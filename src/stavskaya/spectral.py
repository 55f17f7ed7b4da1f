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

Everything here applies the gather operator of whatever table it is
given.  `search` gives it the quotient of `TransitionTable.quotient`;
why each ratio bound there is one on the paper's matrix is set out in
`statespace`.

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
`certified_upper_bound` computes every target, so a certificate
re-derived from it is exactly the same number.

Both the iteration and `certified_upper_bound` apply the operator
through `_sweep`, a block of `_BLOCK` targets at a time, so a block's
index slices, sums and ratios stay in cache from the gathers to the
reductions.  Blocking changes no number: each target still adds its
slots as (slot0 + slot2) + slot1, as in `apply_operator`, and the max or
min over the blocks' maxes or mins is that over all targets.  The
blocks' scalars are merged by ndarray reductions, so a NaN in any block
makes the merged value NaN.

A warm start is the vector an earlier solve returned.  Its max is
exactly 1.0, since it was divided by its own max (x / x == 1), and no
entry is below the floor, so normalising and flooring it into the
solve's own buffer leaves every entry as it is (x / 1.0 == x).  Each
solve stays one public call, however short: `search` makes every one
through its module-level `check_subcritical`, which the benchmark's
tracer wraps to count solves and iterations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .patterns import Parameters
from .statespace import TransitionTable

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

# Targets per block of `_sweep`: at 2**15 a block's index slices, sums
# and ratios take a few hundred KiB and stay in cache.  Measured best at
# levels 6 and 7 among 2**13..2**17 (2 cores, Python 3.11, numpy 2.4;
# one half-state sweep at level 7: 105 ms unblocked, 53 ms at 2**15,
# 61 ms at 2**17; at level 6: 4.8 ms unblocked, 3.6 ms at 2**15).
_BLOCK = 1 << 15


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
    # the slots add in `_sweep`'s order, which the mirror argument of the
    # module docstring needs
    g0, g1, g2 = table.pred
    out = (np.take(vp, g0, mode="clip") + np.take(vp, g2, mode="clip")
           + np.take(vp, g1, mode="clip"))
    # every in-edge of t carries the kind of t's newest step
    out *= np.asarray(params.step_weights(), dtype=np.float64)[table.last_digit]
    return out


def certified_upper_bound(table: TransitionTable, params: Parameters,
                          v: np.ndarray) -> float:
    """max_i (Mv)_i / v_i for strictly positive, finite v: a true upper
    bound on the spectral radius regardless of irreducibility."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (table.n_states,):
        raise ValueError(f"vector has shape {v.shape}, expected ({table.n_states},)")
    # reductions, not elementwise tests, so no N-length mask is made; a
    # NaN makes the min NaN, so it fails the positivity test
    if not v.min() > 0.0:
        raise ValueError("certification requires a strictly positive vector")
    if not np.isfinite(v.max()):
        raise ValueError("certification requires a finite vector")
    n = table.n_states
    vp = np.empty(n + 1, dtype=np.float64)
    vp[:n] = v
    vp[n] = 0.0
    w = np.asarray(params.step_weights(), dtype=np.float64)
    # block-sized buffers and weights made block by block: no full-length
    # temporary besides vp
    out = np.empty(min(_BLOCK, n), dtype=np.float64)
    work = np.empty_like(out)
    return _sweep(vp, _blocks(vp, table, w, n, out, work))[0]


def _blocks(vp: np.ndarray, table: TransitionTable, w: np.ndarray, m: int,
            out: np.ndarray, work: np.ndarray,
            weights: np.ndarray | None = None) -> Iterator[tuple]:
    """Per block of `_BLOCK` targets in 0..m-1, the views `_sweep` needs:
    slots 0, 1, 2 of pred, the output, scratch, the weights and v (`vp`
    is v padded with 0.0 for the empty slot).  An `out` of m entries is
    sliced; a block-sized one is shared, as `work` always is.  Each
    block's weights are a view of `weights`, the weights of targets
    0..m-1, when it is given, and are gathered from the step weights `w`
    otherwise."""
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        g = table.pred[:, lo:hi]
        o = out[lo:hi] if out.shape[0] == m else out[:hi - lo]
        wb = (w[table.last_digit[lo:hi]] if weights is None
              else weights[lo:hi])
        yield g[0], g[1], g[2], o, work[:hi - lo], wb, vp[lo:hi]


def _sweep(vp: np.ndarray, blocks: Iterable[tuple]) -> tuple[float, float, float]:
    """One operator application, block by block: (max ratio, min ratio,
    max value) of (Mv)_t / v_t and (Mv)_t over the targets of `blocks`
    (see `_blocks`), with every (Mv)_t left in the blocks' outputs."""
    # ndarray methods and ufuncs, not the `np.take` and `.max()`
    # wrappers: on a one-block quotient the call overhead is the cost.
    # The entry at argmax (argmin) is the max (min), a NaN included,
    # since both return the first NaN, for about half the overhead of a
    # ufunc reduction.
    peaks = []
    for g0, g1, g2, o, k, wb, v in blocks:
        # clip skips the bounds pass and the buffered copy that the
        # default mode makes; the table's indices were checked once
        vp.take(g0, out=o, mode="clip")
        vp.take(g2, out=k, mode="clip")
        np.add(o, k, out=o)
        vp.take(g1, out=k, mode="clip")
        np.add(o, k, out=o)
        np.multiply(o, wb, out=o)
        np.divide(o, v, out=k)
        peaks.append((k.item(k.argmax()), k.item(k.argmin()),
                      o.item(o.argmax())))
    if len(peaks) == 1:
        # the merge below would add about a third to a one-block sweep
        return peaks[0]
    # ndarray reductions keep a NaN from any block; max() and min() on
    # floats would drop it depending on where it sits
    uppers, lowers, tops = np.array(peaks).T
    return float(uppers.max()), float(lowers.min()), float(tops.max())


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
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
        # as in `_sweep`; a NaN is both the max and the min, and fails
        # both tests
        top, least = v0.item(v0.argmax()), v0.item(v0.argmin())
        if not (0.0 < top < np.inf and least >= 0.0):
            raise ValueError("v0 must be finite, nonnegative and not all zero")
        np.divide(v0, top, out=v)
        np.maximum(v, _POSITIVITY_FLOOR, out=v)

    w = np.asarray(params.step_weights(), dtype=np.float64)
    half = table.mirrored and w[0] == w[2] and np.array_equal(v, v[::-1])
    m = (n + 1) // 2 if half else n
    out = np.empty(m, dtype=np.float64)
    work = np.empty(min(_BLOCK, m), dtype=np.float64)
    # the views are made once per solve, not once per step, and the
    # blocks' weights are views of one array
    blocks = list(_blocks(vp, table, w, m, out, work,
                          w[table.last_digit[:m]]))
    head = vp[:m]
    tail, tail_source = vp[m:n], vp[:n - m][::-1]

    estimate = 0.0
    upper = np.inf
    previous = np.inf
    stable = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        upper, lower, nrm = _sweep(vp, blocks)
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
        np.divide(out, nrm, out=head)
        np.maximum(head, _POSITIVITY_FLOOR, out=head)
        tail[:] = tail_source

    return SpectralEstimate(estimate=estimate, certified_upper=upper,
                            iterations=iterations, converged=converged,
                            vector=v)


def check_subcritical(table: TransitionTable, params: Parameters,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                      v0: np.ndarray | None = None) -> SpectralEstimate:
    """Certified subcriticality test.

    The estimate's `certified_upper` is a genuine upper bound on the
    spectral radius and the max ratio of its vector; it is below one
    exactly when `certified_subcritical` is True.  The power iteration
    ends as soon as a ratio bound decides the question: a max ratio below
    one certifies, a min ratio above one proves the radius above one.
    Only when neither happens does it run on to convergence or to
    `max_iter`.
    """
    return _iterate(table, params, tol, max_iter, v0, decide=True)

