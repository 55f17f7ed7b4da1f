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
(n, n, n) read from min(F_{n-1})'s start.  A breadth-first
search from (the start class, no deficit) finds the states, and
Moore's algorithm (`_refine`, Moore 1956) merges them into min(F_n).

Tables are in the quotient's form: pred[d, c] is the class c moves to on
step d+1, or the class count K for no move, and last_digit[c] the step
that enters c.  Nothing here reads a pattern or a history.
"""

from __future__ import annotations

import numpy as np


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
    level k built from level k-1 by `next_level`, from `below`, a shorter
    chain, when given; `loops` counts the patterns of order k: the pair
    13, 31 at level 0, the order-k loops above it."""
    levels = [(*level_zero(), 2)] if below is None else list(below)
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


def _is_stable(classes: np.ndarray, k: int, succ: np.ndarray,
               last_digit: np.ndarray) -> bool:
    """Whether the partition `classes` (labels 0..k-1) is a bisimulation
    of the successor table: every state ends in its class
    representative's last digit and, on every step, moves into the class
    its representative moves into, or nowhere where it moves nowhere.
    One pass of gathers, no sort."""
    rep = np.empty(k, dtype=np.intp)
    rep[classes] = np.arange(classes.shape[0])
    own = rep[classes]  # each state's representative
    if not np.array_equal(last_digit[own], last_digit):
        return False
    ext = np.append(classes, np.int32(k))
    for slot in succ:
        target = ext[slot]
        if not np.array_equal(target[own], target):
            return False
    return True


def _refine(succ: np.ndarray, last_digit: np.ndarray) -> tuple[np.ndarray, int]:
    """(classes, K): the coarsest partition of the states of a successor
    table, sentinel N for no move, that refines the last digits and in
    which every class sends each step into one class, or nowhere.

    It starts from the split by last digit and ends at the first
    partition that passes `_is_stable`.  Until then each round of
    Moore's algorithm (Moore 1956) keys every state by its class, its
    last digit and the classes of its three targets, the sentinel N
    counting as class K, ranked one slot at a time (`_rank`), so no key
    reaches 3N(K+1) and no class count overflows int64.  No round splits
    two states with the same future: they have one last digit and
    targets of one future.  A round from an unstable partition splits
    some class, so the loop ends, on a bisimulation no finer than the
    coarsest, hence on it.
    """
    classes, k = _rank(last_digit)
    while not _is_stable(classes, k, succ, last_digit):
        ext = np.append(classes, np.int32(k))
        keys = classes.astype(np.int64)
        keys *= 3
        keys += last_digit
        for slot in succ:
            keys *= k + 1
            keys += ext[slot]
            classes, count = _rank(keys)
            keys = classes.astype(np.int64)
        k = count
    return classes, k
