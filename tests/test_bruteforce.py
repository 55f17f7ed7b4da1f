import bruteforce
import pytest
from conftest import LEVELS, forbidden_set, history, make_table

from stavskaya.errors import ResourceLimitError
from stavskaya.patterns import Parameters


def test_naive_forbidden_matches_fast_builder():
    for n in range(0, 4):
        naive = set(bruteforce.naive_forbidden_patterns(n))
        fast = set(bruteforce.pattern_words(forbidden_set(n)))
        assert naive == fast


@pytest.mark.parametrize("n", range(0, 4))
def test_texts_are_the_naive_patterns_in_order(n):
    # the rendered text against the definition's words, joined digit by
    # digit: no code of the package's is read on the oracle side
    naive = ["".join(map(str, word))
             for word in bruteforce.naive_forbidden_patterns(n)]
    want = sorted(naive, key=lambda text: (len(text), text))
    assert list(forbidden_set(n).texts()) == want


def test_empty_path_total():
    assert bruteforce.total_weight_bruteforce(1, 0, Parameters(1, 1, 0.7)).total == 1.0


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
def test_total_weight_symbolic(alpha):
    # seven valid length-2 words at level 1 sum to 2 + 4a + a^2 at p = q = 1
    got = bruteforce.total_weight_bruteforce(1, 2, Parameters(1, 1, alpha)).total
    assert got == pytest.approx(2 + 4 * alpha + alpha**2, rel=1e-14)


def test_total_weight_counts_states_at_unit_weights():
    for n in (1, 2):
        total = bruteforce.total_weight_bruteforce(n, 3 * n - 1,
                                                   Parameters(1, 1, 1.0)).total
        assert total == LEVELS[n].states


def test_length_cap():
    with pytest.raises(ResourceLimitError):
        bruteforce.total_weight_bruteforce(1, 17, Parameters(1, 1, 0.5))


def test_dense_growth_rate_single_state_loop():
    table = make_table([[0], [1], [1]], [0])
    c = 1 / (1.7 * 1.2)
    got = bruteforce.dense_growth_rate(table, Parameters(1.7, 1.2, 0.5))
    assert got == pytest.approx(c, rel=1e-12)


def test_dense_growth_rate_halving_runs():
    _, table = history(1)
    got = bruteforce.dense_growth_rate(table, Parameters(2, 1, 0.0))
    assert got == pytest.approx(0.5, rel=1e-10)


def test_dense_size_cap():
    # 1001 isolated states, just past the dense oracle's limit
    n = 1001
    table = make_table([[n] * n, [n] * n, [n] * n], [0] * n)
    with pytest.raises(ResourceLimitError):
        bruteforce.dense_matrix(table, Parameters(1.4, 1, 0.1))
