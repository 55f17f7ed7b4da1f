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

`minimal` merges the live nodes with the same future by
`automaton._refine`'s Moore rounds.
"""

from __future__ import annotations

import numpy as np

from stavskaya.automaton import _refine
from stavskaya.errors import ConsistencyError
from stavskaya.patterns import _NO_CODES, ForbiddenSet, _find

_THREE = np.uint64(3)


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
    `_refine` from the step that enters each node; a live node entered
    on no step or on two has no one step weight, and raises
    `ConsistencyError`."""
    moves, last_digit = _live(fset)
    size = last_digit.shape[0]
    classes, k = _refine(moves, last_digit)
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
