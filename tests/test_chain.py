"""`automaton.chain` against an independent construction: the minimal
automaton of each level's patterns, built by the Aho–Corasick oracle
(`aho_corasick.minimal`), which reads every pattern where the chain
reads none."""

import aho_corasick
import numpy as np
import pytest
from chain import isomorphic
from conftest import LEVELS, LOOPS, chain, forbidden_set, level

from stavskaya import automaton
from stavskaya.patterns import ForbiddenSet

# the chain's states before refinement
BFS_STATES = {5: 223, 6: 535, 7: 1262, 8: 2938, 9: 6761}


def test_level_zero_is_the_degenerate_pairs_automaton():
    assert isomorphic(automaton.level_zero(),
                      aho_corasick.minimal(ForbiddenSet(0, {2: [2, 6]})))


def test_states_before_refinement():
    # the reach prune keeps the breadth-first states within 1.2x of the
    # classes
    assert {n: automaton.next_level(*chain(n - 1)[n - 1][:3], n)[3]
            for n in BFS_STATES} == BFS_STATES


@pytest.mark.parametrize("n", range(1, 10))
def test_chain_is_isomorphic_to_minimal(n):
    pred, last_digit, start, _ = chain(n)[n]
    assert pred.shape == (3, LEVELS[n].classes)
    assert isomorphic((pred, last_digit, start),
                      aho_corasick.minimal(forbidden_set(n)))


def test_chain_stops_at_its_level_on_a_longer_chain():
    # a `below` longer than n + 1 levels comes back cut to levels 0..n
    below = chain(5)
    levels = automaton.chain(3, below)
    assert len(levels) == 4
    assert all(got is want for got, want in zip(levels, below))


def test_chain_counts_the_loops():
    # the pass that prunes the deficits counts each order's loops
    for n in range(1, 10):
        assert chain(9)[n][3] == forbidden_set(n).count_of_order(n) == LOOPS[n]


def test_level_ten_from_the_chain():
    # past every level the tests build from patterns, through the CLI's
    # route: the patterns, the states read on the chain's own table and
    # the classes, and the loops of each order
    patterns, states, table = level(10)
    row = LEVELS[10]
    assert (patterns, states, table.n_states) == (row.patterns, row.states,
                                                  row.classes)
    assert [loops for *_, loops in chain(10)] == [LOOPS[k] for k in range(11)]


def test_isomorphism_tells_tables_apart():
    # a relabelled table is the same automaton; one move redirected, one
    # move dropped, a last digit changed or another start is not
    pred, last_digit, start, _ = chain(2)[2]
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
