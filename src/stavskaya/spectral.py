"""Weighted transition operator and certified spectral-radius estimates.

The operator scales each allowed move by its step weight, so applying
it to a vector of path weights advances every path by one step.  The
total contour weight converges exactly when the spectral radius is
below one, which is what the bisection in `search` certifies.

The estimate comes from power iteration in gather form.  Both
decisions rest on the Collatz–Wielandt bounds for nonnegative matrices:
for any strictly positive v, min_i (Mv)_i/v_i <= rho <= max_i (Mv)_i/v_i.
A max ratio below one proves the radius below one and a min ratio above
one proves it above one, whatever the irreducibility of the matrix and
however far the iteration has come.  So `check_subcritical` stops at the
first step whose ratios decide "radius < 1" either way, while a direct
`power_iteration` call keeps iterating until the ratio sandwich closes
to `tol` (or the norm ratio stalls), for an estimate of the radius
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .patterns import POW3, Parameters
from .statespace import StateSpace, TransitionTable

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200_000

# Transient plateaus can hold the norm ratio constant for many steps
# (e.g. pure-decay chains at alpha = 0), so one sub-tol change is not
# convergence; require this many in a row before trusting stability
# when the two-sided ratio test cannot close (reducible operators).
_STABLE_ITERS = 30

# Relative floor applied before certification so transient states with
# vanishing weight cannot produce 0/0 ratios.
_POSITIVITY_FLOOR = 1e-12


@dataclass
class SpectralEstimate:
    """Power-iteration outcome plus the one-sided upper certificate."""

    estimate: float
    certified_upper: float
    iterations: int
    converged: bool
    vector: np.ndarray | None = field(repr=False, default=None)

    @property
    def certified_subcritical(self) -> bool:
        # a max ratio below one is a proof on its own; no convergence needed
        return self.certified_upper < 1.0


def _target_weights(table: TransitionTable, params: Parameters) -> np.ndarray:
    """Per-state weight of the (unique) kind of its incoming moves."""
    return np.asarray(params.step_weights(), dtype=np.float64)[table.last_digit]


def apply_operator(table: TransitionTable, params: Parameters, v: np.ndarray) -> np.ndarray:
    """One operator application: out[t] = weight(kind(t)) * sum of v over
    the predecessors of t."""
    n = table.n_states
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({n},)")
    vp = np.empty(n + 1, dtype=np.float64)
    vp[:n] = v
    vp[n] = 0.0
    # pred entries were checked to lie in [0, n] when the table was made
    g0, g1, g2 = table.pred
    out = (np.take(vp, g0, mode="clip") + np.take(vp, g1, mode="clip")
           + np.take(vp, g2, mode="clip"))
    out *= _target_weights(table, params)
    return out


def certified_upper_bound(table: TransitionTable, params: Parameters,
                          v: np.ndarray) -> float:
    """max_i (Mv)_i / v_i for strictly positive v: a true upper bound on
    the spectral radius regardless of irreducibility."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (table.n_states,):
        raise ValueError(f"vector has shape {v.shape}, expected ({table.n_states},)")
    if not (v > 0.0).all():
        raise ValueError("certification requires a strictly positive vector")
    return float((apply_operator(table, params, v) / v).max())


def power_iteration(table: TransitionTable, params: Parameters,
                    tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    v0: np.ndarray | None = None) -> SpectralEstimate:
    """Estimate the spectral radius by v <- Mv / ||Mv||_inf from all-ones
    (or v0), keeping the iterate strictly positive via a relative floor.

    Positivity makes the two-sided ratio bounds min_i (Mv)_i/v_i <= rho
    <= max_i (Mv)_i/v_i available at every step; the iteration stops when
    that sandwich closes to `tol` relative.  For reducible operators
    (some step weight zero) the lower ratio never rises, so a stable norm
    ratio over many steps is accepted instead; the certificate, taken
    from the final max ratio, stays a true upper bound either way, so a
    max ratio below one certifies whether or not the run converged.
    Non-convergence is reported, never raised.
    """
    return _iterate(table, params, tol, max_iter, v0, decide=False)


def _iterate(table: TransitionTable, params: Parameters, tol: float,
             max_iter: int, v0: np.ndarray | None,
             decide: bool) -> SpectralEstimate:
    """Power iteration as documented on `power_iteration`; with `decide`
    it also stops at the first step whose max ratio is below one or whose
    min ratio is above one, since either already settles "radius < 1"."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = table.n_states
    if v0 is None:
        v = np.ones(n, dtype=np.float64)
    else:
        v = np.asarray(v0, dtype=np.float64)
        if v.shape != (n,):
            raise ValueError(f"v0 has shape {v.shape}, expected ({n},)")
        top = v.max()
        if not (top > 0.0) or (v < 0.0).any():
            raise ValueError("v0 must be nonnegative and not all zero")
        v = v / top

    wvec = _target_weights(table, params)
    g0, g1, g2 = table.pred
    vp = np.empty(n + 1, dtype=np.float64)
    vp[n] = 0.0
    vp[:n] = np.maximum(v, _POSITIVITY_FLOOR)
    t0 = np.empty(n, dtype=np.float64)
    t1 = np.empty(n, dtype=np.float64)
    out = np.empty(n, dtype=np.float64)
    ratio = np.empty(n, dtype=np.float64)

    estimate = 0.0
    upper = np.inf
    previous = np.inf
    stable = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # clip skips the bounds pass and the buffered copy that the
        # default mode makes; the table's indices were checked once
        np.take(vp, g0, out=t0, mode="clip")
        np.take(vp, g1, out=t1, mode="clip")
        t0 += t1
        np.take(vp, g2, out=t1, mode="clip")
        t0 += t1
        np.multiply(t0, wvec, out=out)
        np.divide(out, vp[:n], out=ratio)
        upper = float(ratio.max())
        lower = float(ratio.min())
        nrm = float(out.max())
        if nrm == 0.0:
            estimate = 0.0
            upper = 0.0
            converged = True
            vp[:n] = 1.0
            break
        estimate = nrm
        np.divide(out, nrm, out=vp[:n])
        np.maximum(vp[:n], _POSITIVITY_FLOOR, out=vp[:n])
        if upper - lower <= tol * upper:
            converged = True
            break
        if decide and (upper < 1.0 or lower > 1.0):
            break
        stable = stable + 1 if abs(estimate - previous) <= tol * estimate else 0
        if stable >= _STABLE_ITERS:
            converged = True
            break
        previous = estimate

    return SpectralEstimate(estimate=estimate, certified_upper=upper,
                            iterations=iterations, converged=converged,
                            vector=vp[:n].copy())


# The floored certificate can be loose when some step weight is exactly
# zero (the matrix becomes reducible and transient states decay to the
# floor).  That only arises far below criticality, where the estimate is
# well under this threshold, so the slower fallback never runs near the
# bisection boundary.
_FALLBACK_THRESHOLD = 0.99
_FALLBACK_MAX_ITER = 5_000


def _source_certificate(table: TransitionTable, params: Parameters,
                        max_iter: int = _FALLBACK_MAX_ITER) -> float | None:
    """Certify radius < 1 via v <- Mv + 1, which converges exactly when the
    operator is subcritical and keeps every entry >= 1.

    Returns the achieved ratio max_i (Mv)_i/v_i as soon as it drops below
    one (a valid upper bound for any positive v), or None if it never does.
    """
    n = table.n_states
    v = np.ones(n, dtype=np.float64)
    for _ in range(max_iter):
        mv = apply_operator(table, params, v)
        ratio = float((mv / v).max())
        if ratio < 1.0:
            return ratio
        v = mv + 1.0
        top = v.max()
        if not np.isfinite(top) or top > 1e250:
            return None
    return None


def check_subcritical(table: TransitionTable, params: Parameters,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                      v0: np.ndarray | None = None
                      ) -> tuple[bool, float, SpectralEstimate]:
    """Certified subcriticality test: (certified, certificate, estimate).

    The certificate is a genuine upper bound on the spectral radius; it is
    below one exactly when `certified` is True.  The power iteration ends
    as soon as a ratio bound decides the question: a max ratio below one
    certifies, a min ratio above one proves the radius above one.  Only
    when neither happens does it run on to convergence, and then the
    reducible-operator fallback may still certify.
    """
    est = _iterate(table, params, tol, max_iter, v0, decide=True)
    if est.certified_subcritical:
        return True, est.certified_upper, est
    if est.converged and est.estimate < _FALLBACK_THRESHOLD:
        ratio = _source_certificate(table, params)
        if ratio is not None:
            return True, ratio, est
    return False, est.certified_upper, est


def is_subcritical(table: TransitionTable, params: Parameters,
                   tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                   v0: np.ndarray | None = None) -> bool:
    """True iff the radius is certified below one.

    Only the True branch is load-bearing: it proves the radius is < 1.
    Anything short of a certificate, non-convergence included, is False.
    """
    return check_subcritical(table, params, tol, max_iter, v0)[0]


def word_weight_vector(space: StateSpace, params: Parameters) -> np.ndarray:
    """Per-state product of step weights over the state's full history.

    Used to seed path-sum computations: iterating the operator m times on
    this vector and summing gives the total weight of all valid paths of
    length L + m.
    """
    counts = np.zeros((len(space), 3), dtype=np.int64)
    for i in range(space.length):
        digit = ((space.codes // POW3[i]) % np.uint64(3)).astype(np.int64)
        for d in range(3):
            counts[:, d] += digit == d
    w = params.step_weights()
    out = np.ones(len(space), dtype=np.float64)
    for d in range(3):
        out *= np.asarray(w[d], dtype=np.float64) ** counts[:, d]
    return out
