import numpy as np
import pytest

from stavskaya.patterns import build_forbidden_set
from stavskaya.statespace import (TransitionTable, build_state_space,
                                  build_transitions)


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


def unmirrored(table):
    """Copy of a built table with its first real slot-0 predecessor
    emptied, so the 1<->3 swap no longer maps it onto itself."""
    pred = table.pred.copy()
    t = int(np.nonzero(pred[0] < table.n_states)[0][0])
    pred[0, t] = table.n_states
    return TransitionTable(n=table.n, pred=pred, last_digit=table.last_digit)


@pytest.fixture(scope="session")
def fset5():
    return build_forbidden_set(5)


@pytest.fixture(scope="session")
def small_levels(fset5):
    """(space, table) for levels 1..3, shared across the suite."""
    levels = {}
    for n in (1, 2, 3):
        space = build_state_space(n, fset5.restrict(n - 1))
        table = build_transitions(space, fset5.restrict(n))
        levels[n] = (space, table)
    return levels


def level_table(n, small_levels, fset5):
    """The level-n table: shared for n <= 3, built afresh above."""
    if n in small_levels:
        return small_levels[n][1]
    return build_transitions(build_state_space(n, fset5.restrict(n - 1)),
                             fset5.restrict(n))
