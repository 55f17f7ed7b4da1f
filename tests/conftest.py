"""Shared test helpers, each level's facts written once, and each level's
artefacts built once a session.

`LEVELS` and `LOOPS` hold every count and row the tests pin, each once.
`forbidden_set`, `chain`, `minimal_table`, `level` and `history` cache
the level-n forbidden set, `automaton.chain`'s levels, minimal
automaton, `build_level` result and history table.  Their arrays are
read-only, so a test that writes into shared state fails at once.  A
test that reads a table's own caches (`plans`, `mirrored`) reads them on
a `fresh` table over the same arrays; a test whose subject is a build,
or that patches one, builds afresh.
"""

import functools
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from stavskaya import automaton, statespace
from stavskaya.patterns import build_forbidden_set
from stavskaya.statespace import (TransitionTable, build_state_space,
                                  build_transitions)


class Level(NamedTuple):
    patterns: int
    states: int
    p_opt: float | None
    bound: float | None
    classes: int  # of the minimal automaton
    edges: int | None  # of the history table


# At n = 1..7 the first four columns are the paper's table, copied from
# it as `perfbench/workloads.py`'s PAPER is; the paper prints the level-1
# bound to three digits only.  Every other entry is not from the paper:
# it is a regression value this code gives.  Level 10's row is counted
# on the chain's table, and tier-1 solves no level-10 row.
LEVELS = {
    #        patterns      states    p_opt       bound  classes     edges
    1: Level(4,                 7, 1.464,   0.125,            5,       15),
    2: Level(6,                73, 1.44,    0.13101966,      13,      159),
    3: Level(12,              759, 1.43,    0.13358660,      33,     1653),
    4: Level(36,             7859, 1.424,   0.13502855,      79,    17113),
    5: Level(146,           81231, 1.42,    0.13595342,     187,   176873),
    6: Level(694,          839009, 1.417,   0.13659747,     442,  1826825),
    7: Level(3584,        8663071, 1.415,   0.13707211,    1046, 18862473),
    8: Level(19466,      89435873, 1.41343, 0.13743655,    2465,     None),
    9: Level(109516,    923252245, 1.41207, 0.13772528,    5761,     None),
    10: Level(632764,  9530452553, None,    None,         13336,     None),
}

# the primitive loops of each order k, the patterns of length 3k; order
# 0 is the degenerate pair 13, 31.  Level n's patterns are orders 0..n
LOOPS = {0: 2, 1: 2, 2: 2, 3: 6, 4: 24, 5: 110, 6: 548, 7: 2890, 8: 15882,
         9: 90050, 10: 523248}


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False


@functools.cache
def forbidden_set(n):
    """`build_forbidden_set(n)`."""
    fset = build_forbidden_set(n)
    _read_only(*fset.codes_by_length.values())
    return fset


@functools.cache
def chain(n):
    """`automaton.chain(n)`: min(F_0), ..., min(F_n), each as (pred,
    last_digit, start, loops)."""
    levels = automaton.chain(n)
    for pred, last_digit, *_ in levels:
        _read_only(pred, last_digit)
    return levels


@functools.cache
def minimal_table(n):
    """(table, start): min(F_n), `chain(n)`'s last level, as its own
    quotient, and its start class."""
    pred, last_digit, start, _ = chain(n)[n]
    return TransitionTable(n=n, pred=pred, last_digit=last_digit), start


@functools.cache
def level(n):
    """`build_level(n)`: (patterns, states, table), run on the chain
    cached above."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statespace, "chain", chain)
        return statespace.build_level(n)


@functools.cache
def history(n):
    """(space, table), the level-n history table for n <= 7, whose
    quotient, built by the same chain, is numbered as
    `minimal_table(n)`'s table."""
    space = build_state_space(n, forbidden_set(n - 1))
    table = build_transitions(space, forbidden_set(n))
    _read_only(space.codes, table.pred, table.last_digit)
    return space, table


def fresh(table):
    """A new table on `table`'s arrays, its caches (`plans`, `mirrored`)
    empty, and a fresh copy of its quotient unless it is its own."""
    quotient = None if table.quotient is table else fresh(table.quotient)
    return TransitionTable(n=table.n, pred=table.pred,
                           last_digit=table.last_digit, quotient=quotient)


def make_table(pred_rows, last_digit, n=1):
    """Hand-built transition table for toy operators in tests, given in
    gather form (sentinel = state count)."""
    return TransitionTable(n=n, pred=np.asarray(pred_rows, dtype=np.int32),
                           last_digit=np.asarray(last_digit, dtype=np.uint8))


def word_weights(space, params):
    """Per-state product of the step weights over the state's whole
    history: m operator applications to it sum to the total weight of
    the valid paths of length L + m."""
    w = np.asarray(params.step_weights(), dtype=np.float64)
    out = np.ones(len(space))
    codes = space.codes.copy()
    for _ in range(space.length):
        out *= w[(codes % np.uint64(3)).astype(np.intp)]
        codes //= np.uint64(3)
    return out


def check_lift(table, quotient=None, phi=None):
    """φ, each history's class in `quotient` (the table's own by
    default), once it is checked to lift the quotient onto the table:
    B(u∘φ) = (B_q u)∘φ slot by slot, the identity on which the
    `statespace` docstring rests every ratio bound of the quotient.

    Unless φ is given, it is read along each history's own word from
    the root's class: 3n-1 passes φ(t) <- δ(φ(i), last digit of t) along
    t's first predecessor i, each of which reads one more step of t's
    word, starting from the root's class everywhere.  Every history
    must then be in a class, not the sentinel K, end in its class's
    last step, and on each step d have the move its class has, into a
    history of the class that move enters, or none where the class has
    none: φ_ext[succ[d]] == δ_ext[d, φ], with the sentinel N mapped to
    K and K's moves all K.  `table.succ` refuses two moves on one step.
    """
    if quotient is None:
        quotient = table.quotient
    size, k = table.n_states, quotient.n_states
    moves = np.full((3, k + 1), k, dtype=np.int32)  # δ_ext
    moves[:, :k] = quotient.pred
    if phi is None:
        # kept as 3φ, the row of φ's moves in the flat table 3δ(c, d) at
        # 3c + d; the sentinel N, first when t has no move into it, is
        # in class K
        flat = (3 * moves.T).ravel()
        first = table.pred.min(axis=0).astype(np.intp)
        phi = np.full(size + 1, 3 * minimal_table(table.n)[1],
                      dtype=np.int32)
        phi[size] = 3 * k
        step = np.empty(size, dtype=np.int32)
        # every index is in range by construction, so clip skips numpy's
        # bounds pass
        for _ in range(3 * table.n - 1):
            np.take(phi, first, out=step, mode="clip")
            step += table.last_digit
            np.take(flat, step, out=phi[:size], mode="clip")
        del first, step
        phi = phi[:size] // 3
    assert phi.shape == (size,) and phi.min() >= 0, "φ is no class map"
    assert phi.max() < k, "a history's walk leaves the quotient"
    assert np.array_equal(quotient.last_digit[phi], table.last_digit), \
        "a history does not end in its class's last step"
    ext = np.append(phi, np.int32(k))
    succ = table.succ
    for lo in range(0, size, 1 << 20):
        hi = min(lo + (1 << 20), size)
        assert np.array_equal(ext[succ[:, lo:hi]], moves[:, phi[lo:hi]]), \
            f"the moves of histories {lo}..{hi - 1} do not lift onto their classes'"
    return phi


def exact_left_sides(table, p, alpha, v):
    """(Mv)_c = w(c)·(v[pred[0, c]] + v[pred[2, c]] + v[pred[1, c]]) for
    every class c at q = 1, in exact rationals, the sentinel reading 0:
    p, alpha and v's entries are the exact rationals the doubles are, and
    w1 = w3 = 1/p, w2 = alpha·p^2 (Rump, "Verification methods", Acta
    Numerica 2010)."""
    p, alpha = Fraction(p), Fraction(alpha)
    weights = (1 / p, alpha * p * p, 1 / p)
    vp = [Fraction(x) for x in v.tolist()] + [Fraction(0)]
    return [weights[d] * (vp[a] + vp[c] + vp[b]) for d, a, b, c
            in zip(table.last_digit.tolist(), *table.pred.tolist())]


def exact_subcritical(table, p, alpha, v):
    """Whether v > 0 and Mv < v entry by entry, in exact rationals
    (`exact_left_sides`): a proof that the operator's spectral radius at
    (p, 1, alpha) is below one (Collatz–Wielandt)."""
    assert v.shape == (table.n_states,)
    right = [Fraction(x) for x in v.tolist()]
    return min(right) > 0 and all(
        left < r for left, r in zip(exact_left_sides(table, p, alpha, v), right))


def mirrored_by_definition(table):
    """The mirror flag by its definition, on whole arrays and in int64:
    pred[2-s, N-1-t] is N-1-pred[s, t] for a real move and the sentinel
    N for the sentinel, for slots s = 0, 1, and the reversed last digits
    are 2 minus the digits (`TransitionTable.mirrored` checks the same
    a chunk at a time, in the table's own dtype)."""
    n = table.n_states
    pred = table.pred.astype(np.int64)
    digits = table.last_digit.astype(np.int64)
    src = pred[:2]
    return (np.array_equal(digits[::-1], 2 - digits)
            and np.array_equal(pred[[2, 1], ::-1],
                               np.where(src == n, n, n - 1 - src)))


def unmirrored(table):
    """Copy of a built table with its first real slot-0 predecessor
    emptied, so the 1<->3 swap no longer maps it onto itself."""
    pred = table.pred.copy()
    t = int(np.nonzero(pred[0] < table.n_states)[0][0])
    pred[0, t] = table.n_states
    return TransitionTable(n=table.n, pred=pred, last_digit=table.last_digit)
