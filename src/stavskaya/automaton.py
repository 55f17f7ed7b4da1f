"""Each level's minimal automaton from the one below, reading no pattern.

min(F_n) is the minimal automaton of the words that avoid the level-n
forbidden set F_n.  `chain` builds it from the words that avoid the
degenerate pair 13, 31 and climbs one level at a time, listing no
pattern.

Let w avoid F_{n-1}.  A balanced factor of w shorter than 3n would
contain a pattern of F_{n-1}, so the balanced length-3n factors of w are
exactly the order-n loops it contains, and w avoids F_n exactly when it
reads on min(F_{n-1}) and none of its length-3n suffixes has the step
counts (n, n, n).  So a state of level n is a class of min(F_{n-1}) and
the set of deficits (n, n, n) - counts of its nonempty suffixes shorter
than 3n.  Step d moves the class, takes e_d off each deficit and off
(n, n, n), the empty suffix's, and drops the deficits that go negative;
it is refused when a deficit reaches (0, 0, 0).  A deficit is also
dropped when no word read from the new class has exactly those counts
(`_reach`), since no continuation can then complete it.  The same pass
over the counts gives the order-n loops, the length-3n words with counts
(n, n, n) read from min(F_{n-1})'s start, which `list_loops` lists.  A
breadth-first search from (the start class, no deficit) finds the
states, and Moore's algorithm (`_refine`, Moore 1956) merges them into
min(F_n).

Tables are in the quotient's form: pred[d, c] is the class c moves to on
step d+1, or the class count K for no move, and last_digit[c] the step
that enters c.  Nothing here reads a pattern or a history.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError


def level_zero() -> tuple[np.ndarray, np.ndarray, int]:
    """(pred, last_digit, start) of min(F_0), the words that avoid 13
    and 31: after a 1 (class 0) no 3, after a 3 (class 2) no 1, and
    after a 2 or nothing (class 1, the start) any step."""
    pred = np.array([[0, 0, 3], [1, 1, 1], [3, 2, 2]], dtype=np.int32)
    return pred, np.array([0, 1, 2], dtype=np.uint8), 1


def _reach(pred: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(reach, loops).  reach[c, a, b, e] says that some word read from
    class c has a steps of kind 1, b of kind 2 and e of kind 3, for
    counts 0..n each, and the sentinel row K is all False; loops[c]
    counts the words read from c with counts (n, n, n).

    One pass over the count totals s = 0..3n keeps two int64 layers:
    f[a, b, c] counts the words of length s read from class c with a
    steps of kind 1, b of kind 2 and e = s - a - b of kind 3, and each
    layer gathers the one below along the moves,
    f_s[v, c] = sum_d f_{s-1}[v - e_d, pred[d, c]].  Its positive entries
    are the reach.  An entry is at most the multinomial s!/(a! b! e!),
    and so below (3n)!/(n!)^3, which is below 2^63 through n = 14."""
    size = pred.shape[1]
    reach = np.zeros((size + 1, n + 1, n + 1, n + 1), dtype=bool)
    a, b = np.indices((n + 1, n + 1))
    layer = np.zeros((n + 1, n + 1, size + 1), dtype=np.int64)
    layer[0, 0, :size] = 1
    for s in range(3 * n + 1):
        if s:
            below, layer = layer, np.zeros_like(layer)
            layer[1:, :, :size] += below[:-1, :, pred[0]]
            layer[:, 1:, :size] += below[:, :-1, pred[1]]
            layer[:, :, :size] += below[:, :, pred[2]]
        e = s - a - b
        outside = (e < 0) | (e > n)
        layer[outside] = 0
        a_in, b_in, e_in = a[~outside], b[~outside], e[~outside]
        reach[:, a_in, b_in, e_in] = (layer[a_in, b_in] > 0).T
    return reach, layer[n, n, :size]


def list_loops(pred: np.ndarray, start: int, n: int) -> np.ndarray:
    """Sorted uint64 codes of the order-n loops, the length-3n words with
    counts (n, n, n) read from class `start` of min(F_{n-1}) (`pred`).
    They grow a newest step at a time, child 3i + d of prefix i right
    after the children of the prefixes before i, so no sort is needed.
    A prefix is kept only while its class can read the steps it lacks
    (`_reach`, padded with a False plane at lack -1), so each is a loop's
    prefix.  `ConsistencyError` unless as many as `_reach` counts."""
    reach, loops = _reach(pred, n)
    side = n + 2
    padded = np.zeros((reach.shape[0], side, side, side), dtype=bool)
    padded[:, 1:, 1:, 1:] = reach
    padded = padded.reshape(reach.shape[0], -1)
    stride = np.array([side * side, side, 1], dtype=np.int32)
    codes, classes = np.zeros(1, np.uint64), np.full(1, start, np.int32)
    lacks = (n + 1) * stride.sum(keepdims=True, dtype=np.int32)  # n each, + 1
    for _ in range(3 * n):
        targets = pred[:, classes]
        lacked = lacks - stride[:, None]
        # transposed, so the children come out prefix by prefix
        parent, digit = np.nonzero(padded[targets, lacked].T)
        codes = codes[parent] * np.uint64(3) + digit.astype(np.uint64)
        classes = targets[digit, parent]
        lacks = lacked[digit, parent]
    if codes.shape[0] != loops[start]:
        raise ConsistencyError(f"listed {codes.shape[0]} order-{n} loops, not {loops[start]}")
    return codes


def next_level(pred: np.ndarray, last_digit: np.ndarray, start: int,
               n: int) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """(pred, last_digit, start, states, loops) of min(F_n), given
    min(F_{n-1}), where `states` counts the breadth-first states before
    refinement and `loops` the order-n loops: the length-3n words with
    counts (n, n, n) read from min(F_{n-1})'s start."""
    size = pred.shape[1]
    reach, loops = _reach(pred, n)
    full = (n, n, n)
    order = [(start, frozenset())]
    index = {order[0]: 0}
    moves: list[list[int]] = []
    for c, deficits in order:  # breadth first: new states are appended
        row = []
        for d in range(3):
            target = int(pred[d, c])
            moved = set()
            for delta in deficits | {full}:
                if delta[d] == 0:
                    continue
                delta = delta[:d] + (delta[d] - 1,) + delta[d + 1:]
                if delta == (0, 0, 0):
                    target = size  # an order-n loop ends here
                    break
                moved.add(delta)
            if target == size:
                row.append(-1)
                continue
            state = (target, frozenset(delta for delta in moved
                                       if reach[(target, *delta)]))
            if state not in index:
                index[state] = len(order)
                order.append(state)
            row.append(index[state])
        moves.append(row)
    states = len(order)
    succ = np.array(moves, dtype=np.intp).T
    succ[succ < 0] = states
    digits = last_digit[[c for c, _ in order]]
    classes, k = _refine(succ, digits)
    members = np.empty(k, dtype=np.intp)
    members[classes] = np.arange(states)
    padded = np.append(classes, np.int32(k))
    return (padded[succ[:, members]], digits[members], int(classes[0]), states,
            int(loops[start]))


def chain(n: int, below: list | None = None
          ) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """min(F_0), ..., min(F_n), each as (pred, last_digit, start, loops),
    level k built from level k-1 by `next_level`, on top of `below`, a
    chain of any length, when given; `loops` counts the patterns of
    order k: the pair 13, 31 at level 0, the order-k loops above it."""
    levels = [(*level_zero(), 2)] if below is None else list(below[:n + 1])
    for k in range(len(levels), n + 1):
        pred, last_digit, start, _, loops = next_level(*levels[-1][:3], k)
        levels.append((pred, last_digit, start, loops))
    return levels


def _rank(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, count): the keys replaced by dense int32 labels in key
    order, read off a sort as the running count of the places where the
    sorted key changes.  np.unique would import numpy.ma on first use."""
    order = np.argsort(keys)
    ranked = keys[order]
    rank = np.empty(keys.shape[0], dtype=np.int32)
    rank[0] = 0
    np.not_equal(ranked[1:], ranked[:-1], out=rank[1:])
    del ranked
    np.cumsum(rank, out=rank)
    labels = np.empty_like(rank)
    labels[order] = rank
    return labels, int(rank[-1]) + 1


def _refine(succ: np.ndarray, last_digit: np.ndarray) -> tuple[np.ndarray, int]:
    """(classes, K): the coarsest partition of the states of a successor
    table, sentinel N for no move, that refines the last digits and in
    which every class sends each step into one class, or nowhere.

    Moore rounds (Moore 1956) run from the split by last digit until one
    splits no class.  A round keys each state by its class, its last
    digit and its three targets' classes, the sentinel N counting as
    class K, ranked one slot at a time (`_rank`), so no key reaches
    3N(K+1) and no class count overflows int64.  The key starts with the
    class, so each round refines the one before, and an unchanged count
    means an unchanged partition, hence a stable one.  No round splits
    two states with one future, so it is no finer than the coarsest,
    hence the coarsest.  Its keys grow with the class label, so the
    last round keeps every label.
    """
    classes, k = _rank(last_digit)
    while True:
        ext = np.append(classes, np.int32(k))
        keys = classes.astype(np.int64)
        keys *= 3
        keys += last_digit
        for slot in succ:
            keys *= k + 1
            keys += ext[slot]
            classes, count = _rank(keys)
            keys = classes.astype(np.int64)
        if count == k:
            return classes, k
        k = count
