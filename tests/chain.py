"""Each level's minimal automaton from the one below, listing no pattern.

An independent construction of `automaton.minimal(build_forbidden_set(n))`
that reads no forbidden set: it starts from the words that avoid the
degenerate pair 13, 31 and climbs one level at a time.

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
search from (the start class, no deficit) finds the states, and Moore
rounds (`automaton._refine` from the last digits) merge them into
min(F_n).

Tables are in the quotient's form: pred[d, c] is the class c moves to on
step d+1, or the class count K for no move, and last_digit[c] the step
that enters c.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from stavskaya.automaton import _refine


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
    classes, k = _refine(succ, digits, rounds=0)
    members = np.empty(k, dtype=np.intp)
    members[classes] = np.arange(states)
    padded = np.append(classes, np.int32(k))
    return (padded[succ[:, members]], digits[members], int(classes[0]), states,
            int(loops[start]))


def isomorphic(a: tuple[np.ndarray, np.ndarray, int],
               b: tuple[np.ndarray, np.ndarray, int]) -> bool:
    """Whether two (pred, last_digit, start) tables are one automaton:
    one breadth-first search pairs the start classes and then the
    targets of every step, which must be paired one to one, agree on
    their last digit and on which steps have a move, and cover both."""
    (pa, da, sa), (pb, db, sb) = a, b
    ka, kb = pa.shape[1], pb.shape[1]
    if ka != kb:
        return False
    pair = {sa: sb}
    queue = deque([sa])
    while queue:
        x = queue.popleft()
        y = pair[x]
        if da[x] != db[y]:
            return False
        for d in range(3):
            tx, ty = int(pa[d, x]), int(pb[d, y])
            if (tx == ka) != (ty == kb):
                return False
            if tx == ka:
                continue
            if tx not in pair:
                pair[tx] = ty
                queue.append(tx)
            elif pair[tx] != ty:
                return False
    return len(pair) == ka and len(set(pair.values())) == kb
