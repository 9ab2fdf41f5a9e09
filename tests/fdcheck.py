"""Central finite-difference gradient oracle shared by the test modules, and
the plain tape nodes that test-only reference compositions are built from."""

import numpy as np

import kduda.autodiff as ad


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
