"""`automaton.minimal` against an independent construction: each level's
automaton built from the one below (`chain`), which reads no pattern."""

import numpy as np
import pytest

from chain import isomorphic, level_zero, next_level
from conftest import LEVELS, LOOPS, forbidden_set, minimal_table

from stavskaya.statespace import _count_words

# the chain's states before refinement
BFS_STATES = {5: 223, 6: 535, 7: 1262, 8: 2938, 9: 6761}


@pytest.fixture(scope="module")
def chain():
    """level -> (pred, last_digit, start, states, loops) of the chain,
    n = 1..10."""
    levels = {}
    below = level_zero()
    for n in range(1, 11):
        levels[n] = next_level(*below, n)
        below = levels[n][:3]
    return levels


def _minimal(n):
    """`automaton.minimal(build_forbidden_set(n))`: (pred, last_digit,
    start)."""
    table, start = minimal_table(n)
    return table.pred, table.last_digit, start


def test_level_zero_is_the_degenerate_pairs_automaton():
    assert isomorphic(level_zero(), _minimal(0))


def test_states_before_refinement(chain):
    # the reach prune keeps the breadth-first states within 1.2x of the
    # classes
    assert {n: chain[n][3] for n in BFS_STATES} == BFS_STATES


@pytest.mark.parametrize("n", range(1, 10))
def test_chain_is_isomorphic_to_minimal(n, chain):
    pred, last_digit, start = chain[n][:3]
    assert pred.shape == (3, LEVELS[n].classes)
    assert isomorphic((pred, last_digit, start), _minimal(n))


def test_chain_counts_the_loops(chain):
    # the pass that prunes the deficits counts each order's loops
    for n in range(1, 10):
        assert chain[n][4] == forbidden_set(n).count_of_order(n) == LOOPS[n]


def test_level_ten_from_the_chain(chain):
    # past every level the tests build from patterns: the classes, the
    # loops of each order summed into the patterns, and the states read
    # on the chain's own table
    pred, _, start, _, loops = chain[10]
    row = LEVELS[10]
    assert pred.shape == (3, row.classes)
    assert loops == LOOPS[10]
    assert LOOPS[0] + sum(chain[n][4] for n in range(1, 11)) == row.patterns
    assert _count_words(pred, start, 3 * 10 - 1) == row.states


def test_isomorphism_tells_tables_apart():
    # a relabelled table is the same automaton; one move redirected, one
    # move dropped, a last digit changed or another start is not
    pred, last_digit, start = _minimal(2)
    k = pred.shape[1]
    perm = np.random.default_rng(3).permutation(k)
    relabel = np.append(perm, k).astype(pred.dtype)
    moved = np.empty_like(pred)
    moved[:, perm] = relabel[pred]
    digits = np.empty_like(last_digit)
    digits[perm] = last_digit
    assert isomorphic((pred, last_digit, start),
                      (moved, digits, int(perm[start])))
    d, c = map(int, np.argwhere(pred < k)[0])
    redirected = pred.copy()
    redirected[d, c] = (pred[d, c] + 1) % k
    dropped = pred.copy()
    dropped[d, c] = k
    changed = last_digit.copy()
    changed[start] = (changed[start] + 1) % 3
    for other in ((redirected, last_digit, start), (dropped, last_digit, start),
                  (pred, changed, start), (pred, last_digit, (start + 1) % k)):
        assert not isomorphic((pred, last_digit, start), other)
