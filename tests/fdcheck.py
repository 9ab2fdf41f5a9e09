"""Central finite-difference gradient oracle shared by the test modules, the
plain tape nodes that test-only reference compositions are built from,
allocating references for the ops that compute in place, and the loss nodes
as they read before they shared one."""

import numpy as np

import kduda.autodiff as ad
from kduda.losses import PROB_FLOOR, _cell_sum


def finite_diff_grad(f, x, step=1e-5):
    """Gradient of scalar f at x by central differences, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def relative_error(numeric, analytic):
    """Vector-level relative error between two gradients."""
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-12)
    return np.linalg.norm(numeric - analytic) / denom


def assert_grad_matches(f, x, analytic, step=1e-5, tol=1e-5):
    numeric = finite_diff_grad(f, np.array(x, dtype=np.float64), step=step)
    err = relative_error(numeric, analytic)
    assert err < tol, f"gradient mismatch: relative error {err:.3e} >= {tol}"


# -- reference nodes -------------------------------------------------------------


def exp(x):
    out = np.exp(x.values)
    return ad.Tensor(x.graph, out, (x,), lambda g: (g * out,))


def log(x, floor):
    """Natural log of inputs clamped at floor; zero gradient where the clamp
    is active."""
    clamped = np.maximum(x.values, floor)
    active = x.values > floor
    return ad.Tensor(x.graph, np.log(clamped), (x,),
                     lambda g: (np.where(active, g / clamped, 0.0),))


def mean(x):
    xv = x.values
    return ad.Tensor(x.graph, np.asarray(xv.mean()), (x,),
                     lambda g: (np.full_like(xv, float(g) / xv.size),))


def weighted_sum(x, w):
    """Scalar sum(x * w) for a constant array w: a fixed linear functional,
    so a gradient check sees a generic downstream gradient, not all ones."""
    w = np.asarray(w, dtype=np.float64)
    return ad.Tensor(x.graph, np.asarray((x.values * w).sum()), (x,),
                     lambda g: (g * w,))


# -- allocating references of the in-place ops ---------------------------------
#
# Each is the op as it read before it computed into its own buffers: the same
# numpy operations in the same order, every step into a fresh array. The ops
# must match them bit for bit.


def old_linear(x, w, b, relu=False):
    xv, wv, bv = x.values, w.values, b.values
    z = xv @ wv
    z += bv
    mask = None
    if relu:
        mask = z > 0
        z = np.where(mask, z, 0.0)
    def vjp(g):
        gm = g if mask is None else g * mask
        return (gm @ wv.T, xv.T @ gm, gm.sum(axis=0))
    return ad.Tensor(x.graph, z, (x, w, b), vjp)


def old_softmax_temperature(logits, tau):
    tau = float(tau)
    z = logits.values / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    def vjp(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner) / tau,)
    return ad.Tensor(logits.graph, p, (logits,), vjp)


def old_cross_entropy(probs, labels):
    """cross_entropy as its own node, before it shared one with distill_kl."""
    p = probs.values
    n, c = p.shape[-2:]
    onehot = (labels[..., None] == np.arange(c)).astype(np.float64)
    clamped = np.maximum(p, PROB_FLOOR)
    active = p > PROB_FLOOR
    scale = -1.0 / n
    value = _cell_sum(np.log(clamped) * onehot) * scale
    def vjp(g):
        coef = np.asarray(g * scale)[..., None, None]
        return (np.where(active, coef * onehot / clamped, 0.0),)
    return ad.Tensor(probs.graph, np.asarray(value), (probs,), vjp)


def old_distill_kl(student_soft, t, tau, scale_by_tau_sq=True):
    """distill_kl as its own node, before it shared one with cross_entropy."""
    s = student_soft.values
    inv_n = 1.0 / t.shape[-2]
    clamped = np.maximum(s, PROB_FLOOR)
    active = s > PROB_FLOOR
    entropy = _cell_sum(t * np.log(np.maximum(t, PROB_FLOOR))) * inv_n
    value = _cell_sum(np.log(clamped) * t) * -inv_n + entropy
    tau_sq = float(tau * tau) if scale_by_tau_sq else None
    if tau_sq is not None:
        value = value * tau_sq
    def vjp(g):
        if tau_sq is not None:
            g = g * tau_sq
        coef = np.asarray(g * -inv_n)[..., None, None]
        return (np.where(active, coef * t / clamped, 0.0),)
    return ad.Tensor(student_soft.graph, np.asarray(value), (student_soft,), vjp)


def old_softmax_np(logits, tau):
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def old_pairwise_sqdist(a, b):
    av, bv = a.values, b.values
    aa = (av * av).sum(axis=1)[:, None]
    bb = (bv * bv).sum(axis=1)[None, :]
    d = np.maximum(aa + bb - 2.0 * (av @ bv.T), 0.0)
    def vjp(g):
        ga = 2.0 * (av * g.sum(axis=1)[:, None] - g @ bv)
        gb = 2.0 * (bv * g.sum(axis=0)[:, None] - g.T @ av)
        return (ga, gb)
    return ad.Tensor(a.graph, d, (a, b), vjp)


def old_predict_logits(model, x):
    """Model.predict_logits with a fresh array per step."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(model.weights) - 1):
        h = np.maximum(h @ model.weights[i] + model.biases[i], 0.0)
    return h @ model.weights[-1] + model.biases[-1]


def median_of_roots(sq):
    """What losses._median_of_roots must equal bit for bit."""
    return float(np.median(np.sqrt(sq)))
