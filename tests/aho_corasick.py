"""The Aho–Corasick route to min(F_n), kept as the tests' oracle for
`automaton.chain`: it reads every pattern of a forbidden set, where the
chain reads none.

The Aho–Corasick automaton of a forbidden set F (Aho & Corasick, CACM
1975) has a node for every prefix of a pattern; δ(u, d) is the node of
the longest suffix of u·d that is one, and reading a word from the root
lands on the node of its longest suffix that is one.  A node is dead
when its word ends in a pattern.  Whether w can follow a word x without
completing a pattern depends only on x's node: a pattern that ends
inside w and starts inside x meets x in a suffix that is a pattern
prefix, so a suffix of the node's word.  So the node of a history fixes
its future.

The depth-m nodes are the sorted, distinct length-m prefixes of the
patterns, found from the deepest depth up: the parents of the depth-
(m+1) nodes and the length-m patterns.  The automaton is then built one
depth at a time from the root down: each node's children are scattered
into its row from theirs, its missing moves are δ(fail(u), d), and
fail(u·d) = δ(fail(u), d), so each depth reads only shallower rows.  A
node is dead when it is a pattern or its failure target is dead.

`minimal` merges the live nodes with the same future (`_seeded`).  It
hashes each node's future as deep as the longest pattern, L, with no
sort, and keeps the hash classes when one pass shows that they form a
bisimulation (`automaton._is_stable`); otherwise it refines from the
last digits by `automaton._refine`'s Moore rounds.  The hash classes
are the coarsest partition but for a 64-bit collision.  Two live nodes
with one last digit and different futures differ on a shortest word w
that one allows and the other does not; the pattern the other completes
ends w but does not lie inside w, which the first allows, so it starts
before w and |w| <= L - 1.  The hash `r` rounds deep reads every move
along words of up to `r` steps, so L - 1 rounds already tell the two
apart, and a failed check can only be a collision.
"""

from __future__ import annotations

import numpy as np

from stavskaya.automaton import _is_stable, _rank, _refine
from stavskaya.errors import ConsistencyError
from stavskaya.patterns import _NO_CODES, ForbiddenSet, _find

_THREE = np.uint64(3)
# the future hash's odd multiplier for each step's target, the hash of
# a missing move, and its xor-shift (see `_future_hash`)
HASH_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                             0x165667B19E3779F9], dtype=np.uint64)
_NO_MOVE = np.uint64(0x27D4EB2F165667C5)
_SHIFT = np.uint64(29)


def _automaton(fset: ForbiddenSet) -> tuple[np.ndarray, np.ndarray]:
    """(delta, dead): delta[u, d] is δ(u, d) for step d+1, as an int32
    node index with the root at 0, and dead[u] flags the nodes whose
    word ends in a pattern.  Nodes are numbered by (depth, code)."""
    by_length = fset.codes_by_length
    longest = max(by_length, default=0)
    depth_codes = [np.zeros(1, dtype=np.uint64)]  # the root
    depth_codes += [_NO_CODES] * longest  # filled from the deepest up
    codes = _NO_CODES
    for m in range(longest, 0, -1):
        codes = codes // _THREE  # sorted, as the deeper codes are
        if m in by_length:
            codes = np.sort(np.concatenate([codes, by_length[m]]))
        # each code that differs from its neighbour: np.unique would
        # import numpy.ma on first use
        distinct = np.ones(codes.shape[0], dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
        depth_codes[m] = codes = codes[distinct]
    starts = np.cumsum([0] + [c.shape[0] for c in depth_codes]).tolist()
    delta = np.full((starts[-1], 3), -1, dtype=np.int32)
    fail = np.zeros(starts[-1], dtype=np.int32)
    dead = np.zeros(starts[-1], dtype=bool)
    for m in range(longest + 1):
        lo, hi = starts[m], starts[m + 1]
        if m < longest:  # the depth-(m+1) nodes, children of depth m
            codes = depth_codes[m + 1]
            up = codes // _THREE
            digit = (codes - up * _THREE).astype(np.intp)
            parent = np.searchsorted(depth_codes[m], up)
            parent += lo
            delta[parent, digit] = np.arange(hi, starts[m + 2], dtype=np.int32)
        rows = delta[lo:hi]
        if m == 0:  # the root's missing moves stay at the root
            rows[rows < 0] = 0
        else:
            np.copyto(rows, delta[fail[lo:hi]], where=rows < 0)
        if m < longest:
            new = slice(hi, starts[m + 2])
            if m > 0:  # depth-1 nodes fail to the root
                fail[new] = delta[fail[parent], digit]
            dead[new] = dead[fail[new]]
            if m + 1 in by_length:
                dead[new] |= _find(by_length[m + 1], codes)[1]
    return delta, dead


def minimal(fset: ForbiddenSet) -> tuple[np.ndarray, np.ndarray, int]:
    """(pred, last_digit, start): the minimal automaton of the words that
    avoid `fset`, in the form of the quotient `TransitionTable`, and the
    root's class.  The live nodes and their live moves are refined by
    `_seeded` from the step that enters each node, seeded by a future
    hash as deep as the longest pattern, which is deep enough for the
    seed to pass its check unless two hashes collide (it passed at
    n = 1..11); a live node entered on no step or on two has no one step
    weight, and raises `ConsistencyError`."""
    moves, last_digit = _live(fset)
    size = last_digit.shape[0]
    classes, k = _seeded(moves, last_digit,
                         max(fset.codes_by_length, default=0))
    members = np.empty(k, dtype=np.intp)  # any member node of each class
    members[classes] = np.arange(size)
    padded = np.append(classes, np.int32(k))
    return padded[moves[:, members]], last_digit[members], int(classes[0])


def _live(fset: ForbiddenSet) -> tuple[np.ndarray, np.ndarray]:
    """(moves, last_digit) of the live nodes of `_automaton(fset)`, in
    live order: moves[d, i] is the live index that node i moves to on
    step d+1, as intp, or the live count where it moves into a dead
    node, and last_digit[i] is the step that enters node i.  A live node
    entered on no step or on two raises `ConsistencyError`."""
    delta, dead = _automaton(fset)
    live = ~dead
    # each node's live index, the sentinel (the live count) if dead
    label = np.cumsum(live, dtype=np.intp)
    label -= 1
    size = int(label[-1]) + 1
    label[dead] = size
    moves = np.empty((3, size), dtype=np.intp)
    for d in range(3):
        np.take(label, delta[:, d][live], out=moves[d])
    del delta, dead, live, label
    entered = np.zeros((3, size + 1), dtype=np.uint8)
    for d, row in enumerate(moves):
        entered[d, row] = 1  # only moves into live nodes count
    entered = entered[:, :size]
    if ((entered[0] + entered[1] + entered[2]) != 1).any():
        raise ConsistencyError(
            f"a live node of the level-{fset.level} automaton is not "
            "entered by exactly one step")
    last_digit = entered[1] + 2 * entered[2]
    return moves, last_digit


def _future_hash(succ: np.ndarray, last_digit: np.ndarray,
                 rounds: int) -> np.ndarray:
    """A uint64 hash of each state's future `rounds` steps deep:
    h ← xs(last digit + Σ_d HASH_MULTIPLIERS[d] · h[succ[d]]), from
    h = last digit, with the sentinel's hash fixed at `_NO_MOVE` and
    xs(x) = x ^ (x >> 29), in wrapping uint64 arithmetic.  Each round
    gathers one slot at a time into one scratch array."""
    size = succ.shape[1]
    h = np.empty(size + 1, dtype=np.uint64)
    h[:size] = last_digit
    h[size] = _NO_MOVE
    nxt = h.copy()
    scratch = np.empty(size, dtype=np.uint64)
    for _ in range(rounds):
        acc = nxt[:size]
        acc[:] = last_digit
        for slot, mult in zip(succ, HASH_MULTIPLIERS):
            np.take(h, slot, out=scratch, mode="clip")
            scratch *= mult
            acc += scratch
        np.right_shift(acc, _SHIFT, out=scratch)
        acc ^= scratch
        h, nxt = nxt, h
    return h[:size]


def _seeded(moves: np.ndarray, last_digit: np.ndarray,
            rounds: int) -> tuple[np.ndarray, int]:
    """The ranks of `_future_hash`, `rounds` steps deep, when they pass
    `_is_stable`, and `_refine`'s coarsest partition otherwise."""
    classes, k = _rank(_future_hash(moves, last_digit, rounds))
    if _is_stable(classes, k, moves, last_digit):
        return classes, k
    return _refine(moves, last_digit)
