"""`automaton.minimal` against an independent construction: each level's
automaton built from the one below (`chain`), which reads no pattern."""

import numpy as np
import pytest

from chain import isomorphic, level_zero, next_level
from conftest import minimal_table

# minimal's class counts, and the chain's states before refinement
CLASSES = {1: 5, 2: 13, 3: 33, 4: 79, 5: 187, 6: 442, 7: 1046, 8: 2465,
           9: 5761}
BFS_STATES = {5: 223, 6: 535, 7: 1262, 8: 2938, 9: 6761}


@pytest.fixture(scope="module")
def chain():
    """level -> (pred, last_digit, start, states) of the chain, n = 1..9."""
    levels = {}
    below = level_zero()
    for n in sorted(CLASSES):
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


@pytest.mark.parametrize("n", sorted(CLASSES))
def test_chain_is_isomorphic_to_minimal(n, chain):
    pred, last_digit, start, _ = chain[n]
    assert pred.shape == (3, CLASSES[n])
    assert isomorphic((pred, last_digit, start), _minimal(n))


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
