"""Weighted transition operator and certified spectral-radius estimates.

The operator scales each allowed move by its step weight, so applying
it to a vector of path weights advances every path by one step.  The
total contour weight converges exactly when the spectral radius is
below one, which is what the alpha search in `search` certifies.

The estimate comes from power iteration in gather form.  Both
decisions rest on the Collatz–Wielandt bounds for nonnegative matrices:
for any strictly positive v, min_i (Mv)_i/v_i <= rho <= max_i (Mv)_i/v_i.
A max ratio below one proves the radius below one and a min ratio above
one proves it above one, whatever the irreducibility of the matrix and
however far the iteration has come.  So `check_subcritical` stops at the
first step whose ratios decide "radius < 1" either way, or once they
close to `DEFAULT_TOL`, while a direct `power_iteration` call keeps
iterating until the ratio sandwich closes to its `tol` (or the norm
ratio stalls), for an estimate of the radius itself.

Everything here applies the gather operator of whatever table it is
given.  `search` gives it the quotient of `TransitionTable.quotient`;
why each ratio bound there is one on the paper's matrix is set out in
`statespace`.

At q = 1 a cold start computes only half of every iterate.  The 1<->3
swap pairs state t with state N-1-t (see `statespace`); on a mirrored
table pred[2-s, N-1-t] = N-1-pred[s, t] and last_digit[N-1-t] =
2 - last_digit[t], and at q = 1 kinds 1 and 3 weigh exactly the same
(1/(p*1.0) == 1.0/p).  Only a cold start at such weights asks whether
a table is mirrored, and the first one decides it.  So from the start
of ones, its own reverse, target N-1-t gathers from slots 0, 1, 2 the
values that target t gathers from slots 2, 1, 0.  Both operator codes
add the slots as (slot0 + slot2) + slot1, and float addition is
commutative, so the two targets get the same value bit for bit, and so
do their ratios.  Every iterate therefore stays equal to its reverse,
so the max, min and norm over the first m = ceil(N/2) targets are
those over all of them, and the sweep reads each source i >= m through
its mirror N-1-i.  The loop then holds m + 1 entries, as every source
is below m or the empty slot N, which each `take` clips to entry m,
kept 0.0.  On exit the full vector is written once into an N + 1
buffer ending in 0.0, which `certified_upper_bound` sweeps in place
for the same certificate.

Both the iteration and `certified_upper_bound` apply the operator
through `_sweep`, a block of `_BLOCK` targets at a time, so a block's
index slices, sums and ratios stay in cache from the gathers to the
reductions.  Blocking changes no number: each target still adds its
slots as (slot0 + slot2) + slot1, as in `apply_operator`, and the max or
min over the blocks' maxes or mins is that over all targets.  A block
gathers only the slot rows that hold a move (`_plan`): a dropped row
would add vp[N] = 0.0 to sums that are >= +0.0, as v is positive, and
x + 0.0 == x; a block with no move is 0.  The blocks' scalars are
merged by ndarray reductions, so a NaN in any block makes the merged
value NaN.

The rows are gathered in one of two forms.  When the m targets fit in
one block, as on every quotient, `_plan` stacks the rows once per table
into one (r, m) intp array in the order 0, 2, 1, so a sweep, whose cost
there is numpy's call overhead, is one `take` and one `np.add` reduction
down the rows.  Larger tables keep int32 views of their rows, which cost
no memory, and add each row's `take` into the block's output in the
same order.  Both forms give the same numbers bit for bit.

A warm start is the vector an earlier solve returned.  It runs at full
length: `search` warm-starts only the minimal automaton, which is not
mirrored at any level tested (1..9).  It is normalised and floored like
any other start, which leaves it as it is, bit for bit: its max is
exactly 1.0, as x / x == 1, and no entry is below the floor.
Each solve stays one public call, however short: `search` makes every
one through its module-level `check_subcritical`, which the benchmark's
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
# one half-state sweep at level 7, median of 30: 118 ms unblocked,
# 44 ms at 2**15, 51 ms at 2**17; at level 6: 5.5 ms unblocked, 3.3 ms
# at 2**15).
_BLOCK = 1 << 15


@dataclass
class SpectralEstimate:
    """Power-iteration outcome plus the one-sided upper certificate.

    `certified_upper` is max_i (Mv)_i / v_i of `vector` itself, the head
    of an N + 1 buffer ending in 0.0, which `certified_upper_bound(table,
    params, vector)` sweeps in place to re-derive it exactly.
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
    bound on the spectral radius regardless of irreducibility.  A v that
    heads a longer contiguous float64 buffer with +0.0 at N, as a solve's
    vector does, is swept in place; any other is copied and padded."""
    v = np.asarray(v, dtype=np.float64)
    n = table.n_states
    if v.shape != (n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({n},)")
    # reductions, not elementwise tests, so no N-length mask is made; a
    # NaN makes the min NaN, so it fails the positivity test
    if not v.min() > 0.0:
        raise ValueError("certification requires a strictly positive vector")
    if not np.isfinite(v.max()):
        raise ValueError("certification requires a finite vector")
    vp = v.base
    # only read; the empty slot N must be +0.0, as the sums keep its sign
    if not (isinstance(vp, np.ndarray) and vp.dtype == np.float64
            and vp.strides == v.strides == (8,) and vp.size > n
            and vp.ctypes.data == v.ctypes.data and vp.item(n) == 0.0
            and not np.signbit(vp.item(n))):
        vp = np.append(v, 0.0)
    w = np.asarray(params.step_weights(), dtype=np.float64)
    # a block-sized buffer, with weights made block by block: no
    # full-length temporary besides a padded copy
    out = np.empty(min(_BLOCK, n), dtype=np.float64)
    return _sweep(vp, _blocks(vp, table, w, n, out))[0]


def _rows(table: TransitionTable, lo: int, hi: int, m: int) -> list:
    """The slot rows of targets lo..hi-1 that hold a move, in the order
    0, 2, 1 in which they add.  With m < N a source i >= m is read
    through its mirror N-1-i."""
    n = table.n_states
    rows = []
    for s in (0, 2, 1):
        g = table.pred[s, lo:hi]
        if g.min() == n:
            continue
        if m < n and ((g >= m) & (g < n)).any():
            # a mirrored table's N-1-pred[s, t] is pred[2-s, N-1-t]
            r = table.pred[2 - s, n - hi:n - lo][::-1]
            g = r if g.min() >= m else np.where(g < m, g, r)
        rows.append(g)
    return rows


def _plan(table: TransitionTable, m: int) -> tuple | list:
    """How `_sweep` gathers targets 0..m-1, made once per table,
    `_BLOCK` and m.  If they fit in one block: (rows, digits), the rows
    of `_rows` stacked into one (r, m) intp array, and the targets' last
    digits as intp.  Otherwise (lo, hi, rows) per block of `_BLOCK`
    targets, the rows int32 views of the table (a copy only where a row
    mixes sources on both sides of m)."""
    plan = table.plans.get((_BLOCK, m))
    if plan is None:
        if m <= _BLOCK:
            rows = _rows(table, 0, m, m)
            plan = (np.array(rows, dtype=np.intp).reshape(len(rows), m),
                    table.last_digit[:m].astype(np.intp))
        else:
            plan = [(lo, min(lo + _BLOCK, m),
                     tuple(_rows(table, lo, min(lo + _BLOCK, m), m)))
                    for lo in range(0, m, _BLOCK)]
        table.plans[_BLOCK, m] = plan
    return plan


def _blocks(vp: np.ndarray, table: TransitionTable, w: np.ndarray, m: int,
            out: np.ndarray, whole: bool = False) -> Iterator[tuple]:
    """Per block of `_plan(table, m)`, the arrays `_sweep` needs: its
    rows, the stacked rows' gather buffer (None for row views), the
    output, scratch, the targets' weights from the step weights `w`, and
    v, the head of `vp`.  An `out` of m entries is sliced; a block-sized
    one is shared, as the scratch is.  Row-view blocks gather their
    weights as each block is reached, or, with `whole`, view one array."""
    plan = _plan(table, m)
    if isinstance(plan, tuple):
        rows, digits = plan
        yield (rows, np.empty(rows.shape), out, np.empty(m), w.take(digits),
               vp[:m])
        return
    work = np.empty(_BLOCK, dtype=np.float64)
    weights = w[table.last_digit[:m]] if whole else None
    for lo, hi, rows in plan:
        o = out[lo:hi] if out.shape[0] == m else out[:hi - lo]
        wb = (w[table.last_digit[lo:hi]] if weights is None
              else weights[lo:hi])
        yield rows, None, o, work[:hi - lo], wb, vp[lo:hi]


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
    for rows, x, o, k, wb, v in blocks:
        # clip skips the default mode's bounds pass and buffered copy (the
        # indices were checked), and reads slot N at a half vp's entry m
        if x is not None:
            # one take for every row, then the rows add in stored order;
            # with no row the sum is 0.0, as for a block without a move
            vp.take(rows, out=x, mode="clip")
            np.add.reduce(x, axis=0, out=o)
        elif not rows:
            o.fill(0.0)
        else:
            vp.take(rows[0], out=o, mode="clip")
            for h in rows[1:]:
                vp.take(h, out=k, mode="clip")
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
                    *, v0: np.ndarray | None = None) -> SpectralEstimate:
    """Estimate the spectral radius by v <- Mv / ||Mv||_inf from all-ones
    (or v0, keyword only), keeping the iterate strictly positive via a
    relative floor.

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
    Only m = ceil(N/2) targets are computed when the mirror argument of
    the module docstring holds (a cold start, equal weights for kinds 1
    and 3, a mirrored table, asked in that order), else m = N.  A start
    v0 is divided by its max and floored at `_POSITIVITY_FLOOR`, the step
    that ends every iteration; a warm start comes through unchanged
    (module docstring)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = table.n_states
    w = np.asarray(params.step_weights(), dtype=np.float64)
    if v0 is None:
        m = (n + 1) // 2 if w[0] == w[2] and table.mirrored else n
        vp = np.ones(m + 1, dtype=np.float64)
    else:
        v0 = np.asarray(v0, dtype=np.float64)
        if v0.shape != (n,):
            raise ValueError(f"v0 has shape {v0.shape}, expected ({n},)")
        # as in `_sweep`; a NaN is both the max and the min, and fails
        # both tests
        top, least = v0.item(v0.argmax()), v0.item(v0.argmin())
        if not (0.0 < top < np.inf and least >= 0.0):
            raise ValueError("v0 must be finite, nonnegative and not all zero")
        m = n
        vp = np.empty(n + 1, dtype=np.float64)
        np.divide(v0, top, out=vp[:n])
        np.maximum(vp[:n], _POSITIVITY_FLOOR, out=vp[:n])
    vp[m] = 0.0
    estimate, upper, iterations, converged = _loop(vp, table, w, m, tol,
                                                   max_iter, decide)
    if m < n:
        # written once the loop's blocks, output and weights are freed
        vp = np.concatenate((vp[:m], vp[:n - m][::-1], [0.0]))
    return SpectralEstimate(estimate=estimate, certified_upper=upper,
                            iterations=iterations, converged=converged,
                            vector=vp[:n])


def _loop(vp: np.ndarray, table: TransitionTable, w: np.ndarray, m: int,
          tol: float, max_iter: int, decide: bool) -> tuple:
    """`_iterate`'s steps on targets 0..m-1 of `vp`, which they leave
    holding the last iterate: (estimate, upper, iterations, converged)."""
    out = np.empty(m, dtype=np.float64)
    # buffers, views and weights are made once per solve, not per step
    blocks = list(_blocks(vp, table, w, m, out, whole=True))
    estimate, upper, previous = 0.0, np.inf, np.inf
    stable = iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        upper, lower, nrm = _sweep(vp, blocks)
        if nrm == 0.0:
            estimate = upper = 0.0
            converged = True
            vp[:m] = 1.0
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
        # block by block, while each block is in cache
        for _, _, o, _, _, head in blocks:
            np.divide(o, nrm, out=head)
            np.maximum(head, _POSITIVITY_FLOOR, out=head)
    return estimate, upper, iterations, converged


def check_subcritical(table: TransitionTable, params: Parameters,
                      max_iter: int = DEFAULT_MAX_ITER, *,
                      v0: np.ndarray | None = None) -> SpectralEstimate:
    """Certified subcriticality test.

    The estimate's `certified_upper` is a genuine upper bound on the
    spectral radius and the max ratio of its vector; it is below one
    exactly when `certified_subcritical` is True.  The power iteration
    ends as soon as a ratio bound decides the question: a max ratio below
    one certifies, a min ratio above one proves the radius above one.
    Only when neither happens does it run on to convergence at
    `DEFAULT_TOL` or to `max_iter`.  It starts from all-ones, or from
    `v0`, keyword only, as `power_iteration` does.
    """
    return _iterate(table, params, DEFAULT_TOL, max_iter, v0, decide=True)

