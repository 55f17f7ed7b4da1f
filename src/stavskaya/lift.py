"""The class map of a history table onto its quotient, and the check
that the quotient lifts, both on the first half of the histories only.

A mirrored table pairs history t with history N-1-t under the 1<->3
swap, and σ, the class permutation the swap induces (`automaton.minimal`,
checked by `automaton.check_mirror`), carries what holds on the first
m = ceil(N/2) histories over to the rest; the argument is set out in
`statespace`.  Nothing here reads the successor scatter `succ`, and
every pass over the histories runs in pieces of at most `_CHUNK`: the
class map's double from one state up to it (`_bounds`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError
from .patterns import _CHUNK

if TYPE_CHECKING:
    from .statespace import TransitionTable


def _rows(quotient: TransitionTable) -> np.ndarray:
    """(K+1, 3): row c holds the moves of class c on steps 1..3, and the
    last row, the sentinel K's, holds K on every step."""
    k = quotient.n_states
    rows = np.full((k + 1, 3), k, dtype=np.int32)
    rows[:k] = quotient.pred.T
    return rows


def _bounds(m: int) -> list[tuple[int, int]]:
    """The chunks (lo, hi) of 0..m-1 in index order, doubling in width
    from one state up to `_CHUNK`."""
    bounds, lo = [], 0
    while lo < m:
        hi = min(lo + min(max(lo, 1), _CHUNK), m)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _pass(phi: np.ndarray, src: np.ndarray, add: np.ndarray,
          flat: np.ndarray, bounds: list[tuple[int, int]]) -> bool:
    """One in-place pass 3φ(t) <- flat[3φ(src t) + add t] over the chunks
    in order, so a chunk reads the entries of every earlier chunk as
    this pass left them; whether any entry changed."""
    changed = False
    step = np.empty(min(phi.shape[0], _CHUNK), dtype=np.intp)
    new = np.empty_like(phi[:step.shape[0]])
    for lo, hi in bounds:
        # src < m, so in range: clip skips the bounds pass
        np.add(np.take(phi, src[lo:hi], mode="clip"), add[lo:hi],
               out=step[:hi - lo])
        np.take(flat, step[:hi - lo], out=new[:hi - lo], mode="clip")
        changed = changed or bool((new[:hi - lo] != phi[lo:hi]).any())
        phi[lo:hi] = new[:hi - lo]
    return changed


def half_class_map(pred: np.ndarray, last_digit: np.ndarray,
                   quotient: TransitionTable, start: int,
                   sigma: np.ndarray) -> np.ndarray:
    """φ on the first half of the histories, t < m = ceil(N/2): each
    one's class in `quotient`, read from the root's class `start` by
    gather passes φ(t) = δ(φ(i), last digit of t) along t's first real
    predecessor i.  A predecessor i >= m is read through its mirror, as
    φ(i) = σ(φ(N-1-i)), with N-1-i < m: its target looks up the second
    copy of a doubled move table, which holds δ(σ(c), d) in place of
    δ(c, d), so no pass reads or writes the second half.

    Each pass runs in place over chunks in index order that double from
    one state up to `_CHUNK` (`_pass`), so a target whose first
    predecessor lies in an earlier chunk reads that predecessor as this
    pass left it, and most first predecessors lie before their target.
    The passes stop after the first one that changes no entry, and
    after L = 3n-1 passes at most.  Both stops are exact: live
    Aho–Corasick nodes are at most L deep, so a walk word of L or more
    steps into t leads to the class of t's node from any class, σ
    commuting with the moves (`automaton.check_mirror`).  Each pass
    moves every state at least one step further along its walk, so L
    passes read at least L steps; and a map that a pass leaves
    unchanged equals its own value read L steps back, so it is that
    one fixed point.  `ConsistencyError` is raised when a state has no
    move into it or lands on the sentinel; whether φ is right is left
    to `check_half_lift`.
    """
    n, k = pred.shape[1], quotient.n_states
    m = (n + 1) // 2
    # φ is kept as 3φ, the row of its moves in the flat move table, in
    # one dtype with the flat index 3φ + d into either copy
    dtype = np.min_scalar_type(6 * k + 5)
    rows = _rows(quotient)
    flat = (3 * np.concatenate([rows, rows[sigma]])).ravel().astype(dtype)
    # numpy gathers index in intp, so src is stored in it once, and each
    # pass adds the offsets into an intp buffer
    src = np.empty(m, dtype=np.intp)
    add = np.empty(m, dtype=dtype)
    bounds = _bounds(m)
    for lo, hi in bounds:
        first = np.min(pred[:, lo:hi], axis=0)  # the sentinel N sorts last
        if (first == n).any():
            raise ConsistencyError(
                f"a state in {lo}..{hi - 1} has no move into it")
        far = first >= m
        src[lo:hi] = first
        np.subtract(n - 1, first, out=src[lo:hi], where=far)
        np.multiply(far, dtype.type(3 * (k + 1)), out=add[lo:hi])
        add[lo:hi] += last_digit[lo:hi]
    phi = np.full(m, 3 * start, dtype=dtype)
    for _ in range(3 * quotient.n - 1):
        if not _pass(phi, src, add, flat, bounds):
            break
    if phi.max() == 3 * k:  # the sentinel row is the last
        raise ConsistencyError("a state's walk leaves the quotient")
    phi //= 3
    return phi


def check_half_lift(pred: np.ndarray, last_digit: np.ndarray,
                    quotient: TransitionTable, sigma: np.ndarray,
                    phi: np.ndarray) -> None:
    """Raise `ConsistencyError` unless the first-half class map φ lifts
    B_q onto the first m = ceil(N/2) states, (c) of the `statespace`
    docstring, checked a chunk of them at a time in gather form.  Each
    target t < m must have its class's last digit, and each real move
    (i, t) must have φ(t) = δ(φ(i), d), reading φ(i) = σ(φ(N-1-i)) for
    i >= m.  Each source s < m must have exactly its class's moves.  A
    move from s into the second half is the mirror of one from N-1-s
    into a target below N - m, so each move into those targets marks
    its (source, step), and the moves of s on step d are the marks at
    (s, d) and at its mirror (N-1-s, 2-d), when no mark is made twice.
    When N is odd, the middle state is its own mirror: the moves into
    it are counted apart, the mark at (middle, kind 2) is its own
    mirror and stands for two moves, and its class must be one σ fixes.
    """
    n, k = pred.shape[1], quotient.n_states
    m = phi.shape[0]
    below = n - m  # the targets whose mirror is in the second half
    if below < m and sigma[phi[below]] != phi[below]:
        raise ConsistencyError(
            f"the middle state {below} is in a class the swap moves")
    dtype = phi.dtype
    rows = _rows(quotient)
    flat = (3 * rows).ravel().astype(dtype)
    # 3φ for every state, and the sentinel class K for the sentinel N
    ext = np.empty(n + 1, dtype=dtype)
    ext[:m] = phi
    ext[:m] *= 3
    sigma3 = (3 * sigma).astype(dtype)
    for lo in range(m, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        np.take(sigma3, phi[n - hi:n - lo][::-1], out=ext[lo:hi])
    ext[n] = 3 * k
    # seen[3i + d]: a move from i on step d into a target t < N - m
    seen = np.zeros(3 * n + 3, dtype=bool)
    marked = 0
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        block, digits, cls = pred[:, lo:hi], last_digit[lo:hi], ext[lo:hi]
        width = max(0, min(hi, below) - lo)
        marked += np.count_nonzero(block[:, :width] < n)
        # a move from the sentinel lands on the sentinel class, which no
        # state is in, so only real moves can hit
        hits = 0
        for sources in block:
            landed = np.take(ext, sources, mode="clip")
            landed += digits
            hits += np.count_nonzero(np.take(flat, landed, mode="clip") == cls)
            # in intp, which numpy indexes with
            at = np.multiply(sources[:width], 3, dtype=np.intp)
            at += digits[:width]
            seen[at] = True
        if not (hits == np.count_nonzero(block < n) and np.array_equal(
                quotient.last_digit.take(phi[lo:hi]), digits)):
            raise ConsistencyError(
                f"moves into states {lo}..{hi - 1} do not lift onto "
                "their classes")
    filled = np.count_nonzero(seen[:3 * n])
    if filled != marked:
        raise ConsistencyError(
            f"{marked - filled} moves share a source and a step")
    into_middle = []
    if below < m:
        into_middle = [3 * int(i) + int(last_digit[below])
                       for i in pred[:, below] if i < m]
    # has[c, d]: class c moves on step d
    has = (rows != k).view(np.uint8)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        count = (seen[3 * lo:3 * hi].view(np.uint8)
                 + seen[3 * (n - hi):3 * (n - lo)][::-1].view(np.uint8))
        for at in into_middle:
            if 3 * lo <= at < 3 * hi:
                count[at - 3 * lo] += 1
        want = np.take(has, phi[lo:hi], axis=0)
        if not np.array_equal(count.reshape(-1, 3), want):
            raise ConsistencyError(
                f"moves out of states {lo}..{hi - 1} do not lift onto "
                "their classes")
