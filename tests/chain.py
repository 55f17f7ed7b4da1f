"""Whether two automata in the quotient's form are one automaton, up to
the numbering of their classes: the tests compare `automaton.chain`'s
tables with the Aho–Corasick oracle's (`aho_corasick.minimal`) by it.

Tables are in the quotient's form: pred[d, c] is the class c moves to on
step d+1, or the class count K for no move, and last_digit[c] the step
that enters c.
"""

from __future__ import annotations

from collections import deque

import numpy as np


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
