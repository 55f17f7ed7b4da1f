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

At q = 1 the iteration computes only half of every iterate.  The 1<->3
swap pairs state t with state N-1-t (see `statespace`); on a mirrored
table pred[2-s, N-1-t] = N-1-pred[s, t] and last_digit[N-1-t] =
2 - last_digit[t], and at q = 1 kinds 1 and 3 weigh exactly the same
(1/(p*1.0) == 1.0/p).  So for a start vector equal to its reverse,
target N-1-t gathers from slots 0, 1, 2 the values that target t
gathers from slots 2, 1, 0.  Both operator codes add the slots as
(slot0 + slot2) + slot1, and float addition is commutative, so the two
targets get the same value bit for bit, and so do their ratios.  Every
iterate therefore stays equal to its reverse: the targets past the
middle are copies, and the max, min and norm over the first half are
those over all of them.  The returned vector is full length, and
`apply_operator` computes every target, so a certificate re-derived
from it on the full operator is exactly the same number.
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
    """Power-iteration outcome plus the one-sided upper certificate.

    `certified_upper` is max_i (Mv)_i / v_i of `vector` itself, so
    `certified_upper_bound(table, params, vector)` re-derives it exactly.
    """

    estimate: float
    certified_upper: float
    iterations: int
    converged: bool
    vector: np.ndarray | None = field(repr=False, default=None)

    @property
    def certified_subcritical(self) -> bool:
        # a max ratio below one is a proof on its own; no convergence needed
        return self.certified_upper < 1.0


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
    # pred entries were checked to lie in [0, n] when the table was made;
    # the slots add in `_iterate`'s order, which the mirror argument of
    # the module docstring needs
    g0, g1, g2 = table.pred
    out = (np.take(vp, g0, mode="clip") + np.take(vp, g2, mode="clip")
           + np.take(vp, g1, mode="clip"))
    # every in-edge of t carries the kind of t's newest step
    out *= np.asarray(params.step_weights(), dtype=np.float64)[table.last_digit]
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
    min ratio is above one, since either already settles "radius < 1".

    Only the first m targets are computed.  m = ceil(N/2) when the mirror
    argument of the module docstring holds (a mirrored table, equal
    weights for kinds 1 and 3, and a start vector equal to its reverse);
    the rest of each iterate is then the first part reversed.  Otherwise
    m = N.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = table.n_states
    vp = np.empty(n + 1, dtype=np.float64)
    vp[n] = 0.0
    v = vp[:n]
    if v0 is None:
        v[:] = 1.0
    else:
        v0 = np.asarray(v0, dtype=np.float64)
        if v0.shape != (n,):
            raise ValueError(f"v0 has shape {v0.shape}, expected ({n},)")
        top = v0.max()
        if not (top > 0.0) or (v0 < 0.0).any():
            raise ValueError("v0 must be nonnegative and not all zero")
        np.divide(v0, top, out=v)
    np.maximum(v, _POSITIVITY_FLOOR, out=v)

    w = np.asarray(params.step_weights(), dtype=np.float64)
    half = table.mirrored and w[0] == w[2] and np.array_equal(v, v[::-1])
    m = (n + 1) // 2 if half else n
    wvec = w[table.last_digit[:m]]
    g0, g1, g2 = table.pred[:, :m]
    out = np.empty(m, dtype=np.float64)
    work = np.empty(m, dtype=np.float64)

    estimate = 0.0
    upper = np.inf
    previous = np.inf
    stable = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # clip skips the bounds pass and the buffered copy that the
        # default mode makes; the table's indices were checked once
        np.take(vp, g0, out=out, mode="clip")
        np.take(vp, g2, out=work, mode="clip")
        out += work
        np.take(vp, g1, out=work, mode="clip")
        out += work
        out *= wvec
        np.divide(out, vp[:m], out=work)
        upper = float(work.max())
        lower = float(work.min())
        nrm = float(out.max())
        if nrm == 0.0:
            estimate = 0.0
            upper = 0.0
            converged = True
            v[:] = 1.0
            break
        estimate = nrm
        # every exit leaves in vp the iterate whose ratios were just taken,
        # so the returned vector re-derives the returned certificate
        if upper - lower <= tol * upper:
            converged = True
            break
        if decide and (upper < 1.0 or lower > 1.0):
            break
        stable = stable + 1 if abs(estimate - previous) <= tol * estimate else 0
        if stable >= _STABLE_ITERS:
            converged = True
            break
        if iterations == max_iter:
            break
        previous = estimate
        np.divide(out, nrm, out=vp[:m])
        np.maximum(vp[:m], _POSITIVITY_FLOOR, out=vp[:m])
        vp[m:n] = vp[:n - m][::-1]

    return SpectralEstimate(estimate=estimate, certified_upper=upper,
                            iterations=iterations, converged=converged,
                            vector=v)


def check_subcritical(table: TransitionTable, params: Parameters,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                      v0: np.ndarray | None = None
                      ) -> tuple[bool, float, SpectralEstimate]:
    """Certified subcriticality test: (certified, certificate, estimate).

    The certificate is a genuine upper bound on the spectral radius; it is
    below one exactly when `certified` is True, and it is the max ratio
    of the returned vector.  The power iteration ends as soon as a ratio
    bound decides the question: a max ratio below one certifies, a min
    ratio above one proves the radius above one.  Only when neither
    happens does it run on to convergence or to `max_iter`.
    """
    est = _iterate(table, params, tol, max_iter, v0, decide=True)
    return est.certified_subcritical, est.certified_upper, est


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
