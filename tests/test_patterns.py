from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from stavskaya import patterns
from stavskaya.errors import ResourceLimitError
from stavskaya.patterns import (MAX_LEVEL, POW3, ForbiddenSet, Parameters,
                                _grow, build_forbidden_set, code_to_pattern,
                                enumerate_primitive_loops, pattern_code,
                                pattern_text)


def test_parameter_validation():
    Parameters(1.0, 1.0, 0.0)
    Parameters(2.5, 1.1, 1.0)
    with pytest.raises(ValueError):
        Parameters(0.99, 1.0, 0.5)
    with pytest.raises(ValueError):
        Parameters(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        Parameters(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        Parameters(1.0, 1.0, -0.1)


@pytest.mark.parametrize("field", ["p", "q", "alpha"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, Decimal(1)])
def test_parameters_refuse_non_finite_values(field, bad):
    # Decimal(1) is in range for every field, but it is not a
    # `numbers.Real` and does not mix with floats in `step_weights`
    values = {"p": 1.4, "q": 1.0, "alpha": 0.1, field: bad}
    with pytest.raises(ValueError, match=field):
        Parameters(**values)


def test_parameters_accept_numpy_scalars():
    params = Parameters(np.float64(1.5), np.int64(1), np.float32(0.25))
    assert params.step_weights() == Parameters(1.5, 1, 0.25).step_weights()
    Parameters(np.int32(2), np.float64(1.1), True)
    weights = Parameters(Fraction(3, 2), 1, 0.25).step_weights()
    assert [float(w) for w in weights] == list(params.step_weights())


@pytest.mark.parametrize("kind,params,want", [
    (2, Parameters(1, 1, 0.5), 0.5),
    (1, Parameters(2, 1, 0.7), 0.5),
    (3, Parameters(2, 3, 0.2), 1.5),
])
def test_step_weight_examples(kind, params, want):
    assert params.step_weights()[kind - 1] == pytest.approx(want, abs=1e-15)


def test_step_weight_formulas():
    params = Parameters(1.7, 1.3, 0.42)
    w1, w2, w3 = params.step_weights()
    assert w1 == pytest.approx(1 / (1.7 * 1.3), rel=1e-15)
    assert w2 == pytest.approx(0.42 * 1.7**2, rel=1e-15)
    assert w3 == pytest.approx(1.3 / 1.7, rel=1e-15)


def test_pattern_text_roundtrip():
    assert pattern_text((1, 2, 3)) == "123"
    assert pattern_text(code_to_pattern(pattern_code((3, 2, 1)), 3)) == "321"


def loop_tuples(k):
    codes = enumerate_primitive_loops(k, build_forbidden_set(k - 1))
    return {code_to_pattern(int(c), 3 * k) for c in codes}


def test_order_one_loops():
    assert loop_tuples(1) == {(1, 2, 3), (3, 2, 1)}


def test_order_two_loops():
    assert loop_tuples(2) == {(1, 1, 2, 2, 3, 3), (3, 3, 2, 2, 1, 1)}


def test_order_three_count():
    lower = build_forbidden_set(2)
    assert len(enumerate_primitive_loops(3, lower)) == 6


def test_loops_are_strictly_increasing_codes():
    for k in range(1, 7):
        codes = enumerate_primitive_loops(k, build_forbidden_set(k - 1))
        assert codes.dtype == np.uint64
        assert (codes[1:] > codes[:-1]).all()


@pytest.mark.parametrize("length", [13, 16])
@pytest.mark.parametrize("budget", [13, 4])
def test_kind_budget_keeps_exactly_the_words_within_it(length, budget):
    # the budget path packs each word's three step counts 5 bits apart
    # in one uint16; a count carrying into the next kind's bits would
    # drop or keep the wrong words.  At length 13 one kind can fill a
    # word, up to a budget of 13, past the largest the loops use
    # (MAX_LEVEL), and at length 16 that budget binds
    assert MAX_LEVEL <= 13
    degenerate = ForbiddenSet(0, [(1, 3), (3, 1)])
    every, _ = _grow(length, degenerate)
    counts = np.zeros((3, every.shape[0]), dtype=np.int8)
    for j in range(length):
        digit = every // POW3[j] % np.uint64(3)
        for d in range(3):
            counts[d] += digit == d
    within = (counts <= budget).all(axis=0)
    got, _ = _grow(length, degenerate, budget)
    assert got.dtype == np.uint64
    assert np.array_equal(got, every[within])
    assert within.all() == (budget >= length)


def test_primitivity_needs_matching_level():
    with pytest.raises(ValueError):
        enumerate_primitive_loops(3, build_forbidden_set(1))


EXPECTED_TOTALS = {0: 2, 1: 4, 2: 6, 3: 12, 4: 36, 5: 146}
EXPECTED_PER_ORDER = {1: 2, 2: 2, 3: 6, 4: 24, 5: 110}


@pytest.mark.parametrize("n,total", sorted(EXPECTED_TOTALS.items()))
def test_forbidden_set_sizes(n, total):
    assert len(build_forbidden_set(n)) == total


def test_per_order_counts(fset5):
    for k, want in EXPECTED_PER_ORDER.items():
        assert fset5.count_of_order(k) == want


def test_degenerate_pair_always_present(fset5):
    for n in range(0, 6):
        fset = fset5.restrict(n)
        assert (1, 3) in fset.patterns
        assert (3, 1) in fset.patterns


def test_loops_are_balanced_and_closed(fset5):
    moves = {1: (-1, -1), 2: (2, 0), 3: (-1, 1)}  # (dx, dy) of each kind
    for pat in fset5.patterns:
        if len(pat) == 2:
            continue
        k = len(pat) // 3
        assert len(pat) == 3 * k
        assert all(pat.count(kind) == k for kind in (1, 2, 3))
        assert sum(moves[kind][0] for kind in pat) == 0
        assert sum(moves[kind][1] for kind in pat) == 0


def test_swap_and_reversal_closure(fset5):
    for n in range(0, 6):
        patterns = set(fset5.restrict(n).patterns)
        assert {tuple(4 - k for k in p) for p in patterns} == patterns
        assert {tuple(reversed(p)) for p in patterns} == patterns


def test_mutual_primitivity(fset5):
    # no member is a contiguous factor of another
    pats = fset5.patterns
    for a in pats:
        for b in pats:
            if a is b or len(a) > len(b):
                continue
            m = len(a)
            hits = sum(b[s:s + m] == a for s in range(len(b) - m + 1))
            assert hits == (1 if a == b else 0), (a, b)


def test_canonical_order(fset5):
    keys = [(len(p), pattern_code(p)) for p in fset5.patterns]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_level_cap(monkeypatch):
    # MAX_LEVEL = 11 is measured, not the encoding limit 13: above it
    # both builders refuse before any word is grown
    def no_grow(*args):
        raise AssertionError("a word was grown above the level cap")
    monkeypatch.setattr(patterns, "_grow", no_grow)
    for n in (12, 14):
        with pytest.raises(ResourceLimitError, match="largest level measured"):
            build_forbidden_set(n)
    with pytest.raises(ResourceLimitError, match="largest level measured"):
        enumerate_primitive_loops(12, ForbiddenSet(11, [(1, 3), (3, 1)]))
    with pytest.raises(ValueError):
        build_forbidden_set(-1)


def test_restrict_matches_direct_build(fset5):
    for n in range(0, 5):
        assert fset5.restrict(n).patterns == build_forbidden_set(n).patterns


def test_forbidden_set_validation():
    with pytest.raises(ValueError):
        ForbiddenSet(0, [(1,)])
    with pytest.raises(ValueError):
        ForbiddenSet(0, [(1, 4)])
