"""Central finite-difference gradient oracle shared by the test modules, the
plain tape nodes that test-only reference compositions are built from (a
constant multiple among them, as autodiff had it before each loss head took
its weight as its scale), allocating references for the ops that compute
in place, the loss heads as two nodes each (a softmax, then a clamped
log-loss) as they read before each became one log-softmax node, the MMD as
it read before it was one node and the one node as it read with a flat pair
index and a dense adjoint, the adaptation loss as it read before it took
both domains' rows in one forward, evaluation as it read before it ran in
row blocks, backward as it read when it kept every adjoint, and a
tracemalloc probe of the memory a call holds."""

import tracemalloc

import numpy as np

import kduda.autodiff as ad
import kduda.losses
from kduda.errors import ParameterError, ShapeError
from kduda.losses import _cell_sum, cross_entropy

# the two-node loss heads clamped their log inputs here
PROB_FLOOR = 1e-12


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


def log_softmax(x, tau):
    """Row-wise log softmax(x / tau) by the shifted log-sum-exp, taken as
    log1p of the exponentials other than the first maximal entry's, which
    is exactly 1; the adjoint is (g - softmax * rowsum(g)) / tau."""
    z = x.values / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    first = z.argmax(axis=-1)[..., None] == np.arange(z.shape[-1])
    rest = (e - first).sum(axis=-1, keepdims=True)
    p = e / (1.0 + rest)
    return ad.Tensor(x.graph, z - np.log1p(rest), (x,),
                     lambda g: ((g - p * g.sum(axis=-1, keepdims=True)) / tau,))


def scalar_multiply(a, c):
    """c times a, with adjoint c g."""
    c = float(c)
    return ad.Tensor(a.graph, a.values * c, (a,), lambda g: (g * c,))


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
    """ad.linear with a fresh array per step and its ReLU mask stored with
    the node, over the trailing axes of a stack."""
    xv, wv, bv = x.values, w.values, b.values
    z = xv @ wv
    z += bv[..., None, :]
    mask = None
    if relu:
        mask = z > 0
        z = np.where(mask, z, 0.0)
    def vjp(g):
        gm = g if mask is None else g * mask
        return (gm @ ad._t(wv), ad._t(xv) @ gm, gm.sum(axis=-2))
    return ad.Tensor(x.graph, z, (x, w, b), vjp)


def old_softmax_temperature(logits, tau):
    """The softmax tape node that fed both loss heads their probabilities."""
    tau = float(tau)
    z = logits.values / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    def vjp(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner) / tau,)
    return ad.Tensor(logits.graph, p, (logits,), vjp)


def old_cross_entropy(probs, labels):
    """cross_entropy on probabilities, as its own node with the log clamped
    at PROB_FLOOR, before it shared one with distill_kl."""
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


def old_distill_kl(student_soft, t, tau):
    """distill_kl on probabilities, as its own node with the log clamped at
    PROB_FLOOR, before it shared one with cross_entropy."""
    s = student_soft.values
    inv_n = 1.0 / t.shape[-2]
    clamped = np.maximum(s, PROB_FLOOR)
    active = s > PROB_FLOOR
    entropy = _cell_sum(t * np.log(np.maximum(t, PROB_FLOOR))) * inv_n
    tau_sq = float(tau * tau)
    value = (_cell_sum(np.log(clamped) * t) * -inv_n + entropy) * tau_sq
    def vjp(g):
        coef = np.asarray(g * tau_sq * -inv_n)[..., None, None]
        return (np.where(active, coef * t / clamped, 0.0),)
    return ad.Tensor(student_soft.graph, np.asarray(value), (student_soft,), vjp)


def old_softmax_np(logits, tau):
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def old_pairwise_sqdist(a, b):
    """All squared distances between rows of a and rows of b, per cell of a
    stack."""
    av, bv = a.values, b.values
    aa = (av * av).sum(axis=-1)[..., :, None]
    bb = (bv * bv).sum(axis=-1)[..., None, :]
    d = np.maximum(aa + bb - 2.0 * (av @ ad._t(bv)), 0.0)
    def vjp(g):
        ga = 2.0 * (av * g.sum(axis=-1)[..., :, None] - g @ bv)
        gb = 2.0 * (bv * g.sum(axis=-2)[..., :, None] - ad._t(g) @ av)
        return (ga, gb)
    return ad.Tensor(a.graph, d, (a, b), vjp)


def old_predict_logits(model, x):
    """Model.predict_logits with a fresh array per step."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(model.weights) - 1):
        h = np.maximum(h @ model.weights[i] + model.biases[i], 0.0)
    return h @ model.weights[-1] + model.biases[-1]


def old_evaluate(model, x, y_true):
    """trainer.evaluate as one predict_logits call over all rows, before it
    ran in row blocks."""
    y_true = np.asarray(y_true)
    preds = np.argmax(model.predict_logits(x), axis=-1)
    return np.mean(preds == y_true, axis=-1)


# -- the MMD as three distance blocks and three kernel banks --------------------


def old_kernel_bank_mean(d, sigmas):
    """Mean over all entries of (1/K) * sum_k exp(-d / (2 s_k^2)), for each
    block of a stack; sigmas is (K,) for all blocks or one row of K per
    block."""
    sig = np.asarray(sigmas, dtype=np.float64)
    if sig.ndim == 0:
        sig = sig.reshape(1)
    # nan passes, so a diverged batch reaches the caller's finiteness check
    if sig.size == 0 or np.any(sig <= 0):
        raise ParameterError(f"kernel_bank_mean needs positive bandwidths, got {sigmas}")
    dv = d.values
    if dv.size == 0 or dv.ndim < 2:
        raise ShapeError(f"kernel_bank_mean needs a non-empty block, got {dv.shape}")
    coef = -0.5 / (sig * sig)
    k = np.exp(coef[..., :, None, None] * dv[..., None, :, :])
    n = dv.shape[-1] * dv.shape[-2] * coef.shape[-1]
    slope = (coef[..., None, :] @ k.reshape(k.shape[:-2] + (-1,))).reshape(dv.shape)
    def vjp(g):
        return (slope * (np.asarray(g) / n)[..., None, None],)
    value = k.reshape(k.shape[:-3] + (-1,)).sum(axis=-1) / n
    return ad.Tensor(d.graph, np.asarray(value, dtype=np.float64), (d,), vjp)


def old_resolve(kernel, d_ss, d_tt, d_st):
    """Bandwidths from the three distance blocks of a pooled sample, (K,)
    per cell: the median of the roots of the within-domain blocks' strict
    upper triangles and of every cross-domain entry, by np.median."""
    stack = d_st.shape[:-2]
    if kernel.bandwidths:
        return np.broadcast_to(kernel.bandwidths, stack + (len(kernel.bandwidths),))
    pairs = np.concatenate([d_ss[(...,) + np.triu_indices(d_ss.shape[-1], k=1)],
                            d_tt[(...,) + np.triu_indices(d_tt.shape[-1], k=1)],
                            d_st.reshape(stack + (-1,))], axis=-1)
    med = np.asarray(np.median(np.sqrt(pairs), axis=-1))
    med[med < 1e-12] = 1.0
    return med[..., None] * np.array(kduda.losses.MEDIAN_MULTIPLIERS)


class OldFixedKernel:
    """The kernel's former "fixed" mode, which a mode field chose apart from
    its bandwidths: resolve broadcast the given bandwidths to one row per
    cell, whatever the pairs."""

    def __init__(self, bandwidths):
        self.bandwidths = tuple(float(b) for b in bandwidths)

    def resolve(self, pairs):
        return np.broadcast_to(self.bandwidths,
                               pairs.shape[:-1] + (len(self.bandwidths),))


def old_mmd_squared(fs, ft, kernel):
    """mmd_squared as nine nodes: a distance block and a kernel bank for
    each of source-source, target-target and source-target, then the
    within-domain sum plus -2 times the cross-domain bank."""
    d_ss = old_pairwise_sqdist(fs, fs)
    d_tt = old_pairwise_sqdist(ft, ft)
    d_st = old_pairwise_sqdist(fs, ft)
    sigmas = old_resolve(kernel, d_ss.values, d_tt.values, d_st.values)
    within = ad.add(old_kernel_bank_mean(d_ss, sigmas),
                    old_kernel_bank_mean(d_tt, sigmas))
    across = old_kernel_bank_mean(d_st, sigmas)
    return ad.add(within, scalar_multiply(across, -2.0))


def old_teacher_da_loss(teacher, xs, ys, xt, kernel, gamma):
    """teacher_da_loss as it read before it took the pooled rows: a forward
    per domain, the nine-node MMD between their features, and cross-entropy
    on the head of the source features, times gamma."""
    fs = teacher.features(xs)
    ft = teacher.features(xt)
    mmd = old_mmd_squared(fs, ft, kernel)
    ce = cross_entropy(teacher.head(fs), ys)
    return ad.add(mmd, scalar_multiply(ce, gamma)), mmd.values


def median_of_roots(sq):
    """What losses._median_of_roots must equal bit for bit."""
    return float(np.median(np.sqrt(sq)))


# -- the one-node MMD with a flat pair index, and backward keeping every adjoint


def old_pair_index(ns, nt):
    """Flat indices of the distinct pairs of an (ns + nt)-row pooled sample
    in its square block, 8 bytes a pair: source-source pairs, then
    target-target, then every source-target pair, each row by row."""
    n = ns + nt
    across = np.zeros((n, n), dtype=bool)
    across[:ns, ns:] = True
    within = np.triu(~across, k=1)
    return np.concatenate([np.flatnonzero(within), np.flatnonzero(across)])


def old_pair_sqdist(z, index):
    """Squared distances of the row pairs that index picks from each cell's
    square block, from one outer sum over the whole block."""
    sq = (z * z).sum(axis=-1)
    block = z @ ad._t(z)
    block *= 2.0
    np.subtract(sq[..., :, None] + sq[..., None, :], block, out=block)
    d = block.reshape(block.shape[:-2] + (-1,)).take(index, axis=-1)
    np.maximum(d, 0.0, out=d)
    return d


def old_pooled_mmd_squared(z, ns, kernel):
    """mmd_squared as one node whose pair distances come through a flat
    index and whose adjoint builds m + m^T from a second n x n array."""
    zv = z.values
    n, stack = zv.shape[-2], zv.shape[:-2]
    nt = n - ns
    index = old_pair_index(ns, nt)
    d = old_pair_sqdist(zv, index)
    sig = kernel.resolve(d)
    coef = -0.5 / (sig * sig)
    chunk = kduda.losses._PAIR_CHUNK
    bank, slope = np.empty_like(d), np.empty_like(d)
    for lo in range(0, d.shape[-1], chunk):
        part = slice(lo, lo + chunk)
        k = np.exp(coef[..., :, None] * d[..., None, part])
        bank[..., part] = k.sum(axis=-2)
        slope[..., part] = (coef[..., None, :] @ k)[..., 0, :]
    c = 2.0 / coef.shape[-1]
    weights = (c / (ns * ns), c / (nt * nt), -c / (ns * nt))
    ss = ns * (ns - 1) // 2
    tt = ss + nt * (nt - 1) // 2
    value = 1.0 / ns + 1.0 / nt
    for w, b in zip(weights, (slice(0, ss), slice(ss, tt), slice(tt, None))):
        value = value + w * bank[..., b].sum(axis=-1)
        slope[..., b] *= w
    value = np.where(np.isfinite(coef).all(axis=-1), value, np.nan)
    def vjp(g):
        m = np.zeros(stack + (n * n,))
        m[..., index] = slope * (2.0 * np.asarray(g))[..., None]
        m = m.reshape(stack + (n, n))
        m = m + ad._t(m)
        gz = m.sum(axis=-1)[..., :, None] * zv
        gz -= m @ zv
        return (gz,)
    return ad.Tensor(z.graph, np.asarray(value), (z,), vjp)


def old_backward(loss, weight=1.0):
    """backward as it read when it kept every adjoint until it returned and
    gave one to every tensor the loss depends on, leaf or not."""
    adjoint = {loss.node_id: np.full_like(loss.values, weight)}
    reached = {loss.node_id: loss}
    for pos in range(loss.node_id, -1, -1):
        g = adjoint.get(pos)
        if g is None or reached[pos]._vjp is None:
            continue
        t = reached[pos]
        for inp, contrib in zip(t._inputs, t._vjp(g)):
            prev = adjoint.get(inp.node_id)
            adjoint[inp.node_id] = contrib if prev is None else prev + contrib
            reached[inp.node_id] = inp
    for node_id, g in adjoint.items():
        t = reached[node_id]
        t.grad = g if t.grad is None else t.grad + g


def traced_peak(f):
    """Run f() under tracemalloc, its result dropped at once: the most bytes
    it held at one time, and the bytes it still holds afterwards (caches,
    gradients), both counted from the call on."""
    tracemalloc.start()
    try:
        f()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept
