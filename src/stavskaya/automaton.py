"""The minimal automaton of a forbidden set, built from its patterns.

The Aho–Corasick automaton of a forbidden set F (Aho & Corasick, CACM
1975) has a node for every prefix of a pattern; δ(u, d) is the node of
the longest suffix of u·d that is one, and reading a word from the root
lands on the node of its longest suffix that is one.  A node is dead
when its word ends in a pattern.  Whether w can follow a word x without
completing a pattern depends only on x's node: a pattern that ends
inside w and starts inside x meets x in a suffix that is a pattern
prefix, so a suffix of the node's word.  So the node of a history fixes
its future, and the histories' successor form factors through the nodes
(see `statespace`).

The automaton is built one depth at a time from `codes_by_length`: the
depth-m nodes are the sorted, distinct length-m prefixes of the
patterns, the children of a node are found by `_find`, and
fail(u·d) = δ(fail(u), d), so each depth reads only shallower rows.
A node is dead when it is a pattern or its failure target is dead.
`minimal` refines the live nodes by Moore's algorithm (Moore 1956), in
sort rounds: each round packs a node's class and its three targets'
classes into one int64 key and ranks the keys (`_refine`).  Nothing
here reads a history.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ResourceLimitError
from .patterns import POW3, ForbiddenSet, _find


_NO_CODES = np.empty(0, dtype=np.uint64)
_STEPS = np.arange(3, dtype=np.uint64)
# the most classes a refinement round may start from: its keys, below
# (K+1)^4, fit in int64 while K+1 <= 55,108
MAX_CLASSES = 55_107


def _automaton(fset: ForbiddenSet) -> tuple[np.ndarray, np.ndarray]:
    """(delta, dead): delta[u, d] is δ(u, d) for step d+1, as an int32
    node index with the root at 0, and dead[u] flags the nodes whose
    word ends in a pattern.  Nodes are numbered by (depth, code)."""
    by_length = fset.codes_by_length
    depth_codes = [np.zeros(1, dtype=np.uint64)]  # the root
    for m in range(1, max(by_length, default=0) + 1):
        # sorted, then each code that differs from its neighbour:
        # np.unique would import numpy.ma on first use
        prefixes = np.sort(np.concatenate(
            [codes // POW3[length - m]
             for length, codes in by_length.items() if length >= m]))
        distinct = np.ones(prefixes.shape[0], dtype=bool)
        distinct[1:] = prefixes[1:] != prefixes[:-1]
        depth_codes.append(prefixes[distinct])
    starts = np.cumsum([0] + [codes.shape[0] for codes in depth_codes])
    delta = np.zeros((int(starts[-1]), 3), dtype=np.int32)
    fail = np.zeros_like(delta[:, 0])
    dead = np.zeros(delta.shape[0], dtype=bool)
    for m, parents in enumerate(depth_codes):
        ids = np.arange(starts[m], starts[m + 1])
        children = (depth_codes[m + 1] if m + 1 < len(depth_codes)
                    else _NO_CODES)
        idx, hit = _find(children, parents[:, None] * np.uint64(3) + _STEPS)
        delta[ids] = np.where(hit, starts[m + 1] + idx, delta[fail[ids]])
        new = np.arange(starts[m + 1], starts[m + 1] + children.shape[0])
        if m > 0:  # depth-1 nodes fail to the root
            parent = starts[m] + _find(parents, children // np.uint64(3))[0]
            fail[new] = delta[fail[parent],
                              (children % np.uint64(3)).astype(np.intp)]
        dead[new] = (dead[fail[new]]
                     | _find(by_length.get(m + 1, _NO_CODES), children)[1])
    return delta, dead


def minimal(fset: ForbiddenSet) -> tuple[np.ndarray, np.ndarray, int]:
    """(pred, last_digit, start): the minimal automaton of the words that
    avoid `fset`, in the form of the quotient `TransitionTable`, and the
    root's class.  The live nodes and their live moves are refined by
    `_refine`, in sort rounds, from the step that enters each node; a
    live node entered on no step or on two has no one step weight, and
    raises `ConsistencyError`.  The rounds' int64 keys cap the
    refinement at `MAX_CLASSES` = 55,107 classes, and one past it
    raises `ResourceLimitError` (level 8 has 2,465)."""
    delta, dead = _automaton(fset)
    live = ~dead
    ids = np.flatnonzero(live)
    targets = np.ascontiguousarray(delta[ids].T)
    entered = np.zeros((3, delta.shape[0]), dtype=bool)
    for d, row in enumerate(targets):
        entered[d, row] = True
    steps = entered[:, ids]  # only moves into live nodes count
    if (steps.sum(axis=0) != 1).any():
        raise ConsistencyError(
            f"a live node of the level-{fset.level} automaton is not "
            "entered by exactly one step")
    last_digit = np.argmax(steps, axis=0).astype(np.uint8)
    label = np.cumsum(live, dtype=np.int32) - 1
    moves = np.where(live[targets], label[targets], np.int32(ids.shape[0]))
    classes, k = _refine(moves, last_digit)
    members = np.empty(k, dtype=np.intp)  # any member node of each class
    members[classes] = np.arange(ids.shape[0])
    padded = np.append(classes, np.int32(k))
    return padded[moves[:, members]], last_digit[members], int(classes[0])


def _rank(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, count): the int64 keys replaced by dense int32 labels in
    key order, read off a sort as the running count of the places where
    the sorted key changes.  np.unique would import numpy.ma on first
    use."""
    order = np.argsort(keys)
    ranked = keys[order]
    rank = np.empty(keys.shape[0], dtype=np.int32)
    rank[0] = 0
    np.not_equal(ranked[1:], ranked[:-1], out=rank[1:])
    np.cumsum(rank, out=rank)
    labels = np.empty_like(rank)
    labels[order] = rank
    return labels, int(rank[-1]) + 1


def _refine(succ: np.ndarray, last_digit: np.ndarray) -> tuple[np.ndarray, int]:
    """(classes, K): Moore refinement (Moore 1956) of the last-digit
    partition of a successor table until every class sends each step
    into one class, or nowhere.

    Each round keys every state by its class and the classes of its
    three targets, the sentinel N counting as class K, packed into one
    int64, and relabels the keys by rank (`_rank`).  Each key starts
    with the state's class, so each round refines the last, and the
    refinement ends at the first round that leaves the class count
    unchanged.  Only states that some step tells apart are split, so no
    partition along the way is finer than the final one.  A key is
    below (K+1)^4, which fits in int64 while K is at most
    `MAX_CLASSES`; a round past it raises `ResourceLimitError`.
    """
    classes, k = _rank(last_digit.astype(np.int64))
    while True:
        if k > MAX_CLASSES:
            raise ResourceLimitError(
                f"{k} classes exceed the refinement's key limit "
                f"{MAX_CLASSES}")
        ext = np.append(classes, np.int32(k)).astype(np.int64)
        keys = classes.astype(np.int64)
        for slot in succ:
            keys *= k + 1
            keys += ext[slot]
        before = k
        classes, k = _rank(keys)
        if k == before:
            return classes, k
