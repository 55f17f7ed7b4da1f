import numpy as np
import pytest

from stavskaya.errors import ConsistencyError, ResourceLimitError
from stavskaya.patterns import POW3, build_forbidden_set
from stavskaya.statespace import (TransitionTable, append_step,
                                  build_state_space, build_transitions,
                                  decode_word, encode_word,
                                  enumerate_valid_words, pred_from_succ,
                                  succ_from_pred, suffix_blocked, word_text)

EXPECTED_SIZES = {1: 7, 2: 73, 3: 759, 4: 7859, 5: 81231}


def test_word_codec_roundtrip():
    rng = np.random.RandomState(3)
    for _ in range(50):
        length = rng.randint(1, 21)
        word = tuple(rng.randint(1, 4) for _ in range(length))
        code = encode_word(word)
        assert 0 <= code < int(POW3[length])
        assert decode_word(code, length) == word


def test_append_step_shifts():
    # appending drops the oldest step and pushes the new one at the end
    word = (2, 1, 3, 2)
    code = encode_word(word)
    for kind in (1, 2, 3):
        assert decode_word(append_step(code, 4, kind), 4) == word[1:] + (kind,)


@pytest.mark.parametrize("n,size", sorted(EXPECTED_SIZES.items()))
def test_state_space_sizes(n, size, fset5):
    assert len(build_state_space(n, fset5.restrict(n - 1))) == size


def test_level_one_words(small_levels):
    space, _ = small_levels[1]
    assert space.word_texts() == ["11", "12", "21", "22", "23", "32", "33"]


def test_index_inverts_codes(small_levels):
    space, _ = small_levels[2]
    for i in range(0, len(space), 7):
        assert space.index_of(int(space.codes[i])) == i
    with pytest.raises(KeyError):
        space.index_of(encode_word((1, 3, 1, 1, 1)))


def test_suffix_blocked_examples():
    f1 = build_forbidden_set(1)
    assert suffix_blocked(encode_word((2, 2, 1, 3)), 4, f1)
    assert not suffix_blocked(encode_word((2, 2, 1, 2)), 4, f1)
    f2 = build_forbidden_set(2)
    assert suffix_blocked(encode_word((1, 1, 2, 2, 3, 3)), 6, f2)


def test_level_one_transitions(small_levels):
    space, table = small_levels[1]
    assert table.edge_count == 15
    # "12" cannot take step 3 (would close the order-1 loop)
    assert table.succ[2, space.index_of(encode_word((1, 2)))] == -1
    # "22" accepts all three steps
    i22 = space.index_of(encode_word((2, 2)))
    targets = [word_text(int(space.codes[table.succ[d, i22]]), 2) for d in range(3)]
    assert targets == ["21", "22", "23"]


def test_transitions_match_suffix_rule(small_levels, fset5):
    # scatter table against the scalar suffix check, state by state
    for n in (1, 2):
        space, table = small_levels[n]
        fset = fset5.restrict(n)
        for i in range(len(space)):
            code = int(space.codes[i])
            for kind in (1, 2, 3):
                extended = code * 3 + (kind - 1)
                blocked = suffix_blocked(extended, space.length + 1, fset)
                assert (table.succ[kind - 1, i] == -1) == blocked


def test_closure_targets_are_states(small_levels):
    for n in (1, 2, 3):
        space, table = small_levels[n]
        for d in range(3):
            src = np.nonzero(table.succ[d] >= 0)[0]
            want = (space.codes[src] % POW3[space.length - 1]) * np.uint64(3) + np.uint64(d)
            got = space.codes[table.succ[d][src]]
            assert np.array_equal(got, want)


def test_suffix_sufficiency_full_factor_scan(small_levels, fset5):
    # suffix-only validity equals full-factor validity of the extended word
    for n in (1, 2):
        space, table = small_levels[n]
        patterns = fset5.restrict(n).patterns
        for i in range(len(space)):
            word = space.word(i)
            for kind in (1, 2, 3):
                ext = word + (kind,)
                full_hit = any(
                    ext[s:s + len(p)] == p
                    for p in patterns for s in range(len(ext) - len(p) + 1))
                assert (table.succ[kind - 1, i] == -1) == full_hit


def test_out_degree_structure(small_levels):
    for n in (1, 2, 3):
        space, table = small_levels[n]
        degrees = table.out_degrees()
        assert degrees.max() <= 3
        last = space.codes % np.uint64(3)
        # ...1 never takes step 3, ...3 never takes step 1
        assert (table.succ[2][last == 0] == -1).all()
        assert (table.succ[0][last == 2] == -1).all()


def test_transpose_roundtrip(small_levels):
    for n in (1, 2, 3):
        _, table = small_levels[n]
        assert np.array_equal(succ_from_pred(table.pred, table.last_digit),
                              table.succ)
        assert np.array_equal(pred_from_succ(table.succ), table.pred)


def test_swap_symmetry_of_state_space(small_levels):
    # the 1<->3 swap maps every state word to a state word
    for n in (1, 2, 3):
        space, _ = small_levels[n]
        top = POW3[space.length] - np.uint64(1)
        swapped = np.sort(top - space.codes)
        assert np.array_equal(swapped, space.codes)


def test_memory_budget_guard(fset5):
    with pytest.raises(ResourceLimitError):
        build_state_space(5, fset5.restrict(4), memory_budget=1 << 10)


def test_level_validation(fset5):
    with pytest.raises(ValueError):
        build_state_space(0, fset5.restrict(0))
    with pytest.raises(ValueError):
        build_state_space(2, fset5.restrict(0))
    with pytest.raises(ValueError):
        build_transitions(build_state_space(1, fset5.restrict(0)),
                          fset5.restrict(2))


def test_enumerate_valid_words_small():
    f0 = build_forbidden_set(0)
    assert list(enumerate_valid_words(1, f0)) == [0, 1, 2]
    assert len(enumerate_valid_words(2, f0)) == 7


def test_codes_strictly_increasing(small_levels):
    for space, _ in small_levels.values():
        assert (space.codes[1:] > space.codes[:-1]).all()


@pytest.mark.parametrize("bad", ["past_sentinel", "negative"])
def test_out_of_range_predecessor_rejected(small_levels, bad):
    # the operator's gathers clamp instead of checking, so a bad index
    # must be refused when the table is made
    _, table = small_levels[1]
    n = table.n_states
    pred = table.pred.copy()
    pred[1, 2] = n + 1 if bad == "past_sentinel" else -1
    with pytest.raises(ConsistencyError):
        TransitionTable(n=table.n, succ=table.succ, pred=pred,
                        last_digit=table.last_digit)
