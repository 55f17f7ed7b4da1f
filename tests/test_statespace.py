import itertools
import tracemalloc

import aho_corasick
import bruteforce
import numpy as np
import pytest
from conftest import (LEVELS, check_lift, forbidden_set, history, level,
                      make_table, minimal_table, mirrored_by_definition,
                      unmirrored)

from stavskaya import automaton, patterns, statespace
from stavskaya.errors import ConsistencyError, ResourceLimitError
from stavskaya.patterns import (POW3, ForbiddenSet, Parameters,
                                enumerate_primitive_loops)
from stavskaya.search import alpha_sup, optimize_p
from stavskaya.spectral import certified_upper_bound, power_iteration
from stavskaya.statespace import (TransitionTable, build_state_space,
                                  build_transitions)

# (n, count) at the levels whose history tables are small
EDGES = [(n, LEVELS[n].edges) for n in range(1, 6)]
CLASSES = [(n, LEVELS[n].classes) for n in range(1, 6)]


def _successor_table(table):
    """The full successor form B as a table whose gather operator it is."""
    return TransitionTable(n=table.n, pred=table.succ,
                           last_digit=table.last_digit)


def test_word_codec_roundtrip():
    # the tests' codec orders words as `product` does, oldest step most
    # significant, and its code is the sum of the digits' powers of 3
    for length in range(1, 7):
        words = list(itertools.product((1, 2, 3), repeat=length))
        assert [bruteforce.code_word(c, length)
                for c in range(3**length)] == words
    rng = np.random.RandomState(3)
    for _ in range(50):
        length = rng.randint(1, 21)
        code = int(rng.randint(0, 3**length, dtype=np.int64))
        word = bruteforce.code_word(code, length)
        assert sum((k - 1) * 3**(length - 1 - j)
                   for j, k in enumerate(word)) == code
    for code, length in ((9, 2), (-1, 2), (int(POW3[20]), 20)):
        with pytest.raises(ValueError):
            bruteforce.code_word(code, length)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_history_table_is_its_definition(n):
    # every state, move and last digit against the table written from
    # the naive patterns, and the scatter `succ` as pred's exact transpose
    space, table = history(n)
    codes, pred, last_digit = bruteforce.history_table(n)
    assert np.array_equal(space.codes, codes)
    assert np.array_equal(table.pred, pred)
    assert np.array_equal(table.last_digit, last_digit)
    size = table.n_states
    real = table.pred < size
    targets = np.broadcast_to(np.arange(size), real.shape)[real]
    succ = table.succ
    assert np.array_equal(succ[table.last_digit[targets], table.pred[real]],
                          targets)
    assert np.count_nonzero(succ < size) == np.count_nonzero(real)


@pytest.mark.parametrize("n,edges", EDGES)
def test_edge_counts(n, edges):
    _, table = history(n)
    assert table.edge_count == edges
    # every state has a move
    assert (table.succ < table.n_states).any(axis=0).all()


@pytest.mark.parametrize("chunk", [7, 64])
def test_chunked_moves_match_one_chunk(monkeypatch, chunk):
    # the move rule's lookups and the mirror check run in chunks of
    # _CHUNK targets; chunk boundaries must not change a loop, a state
    # code, a predecessor or the mirror flag
    def build():
        loops = [enumerate_primitive_loops(k, forbidden_set(k - 1))
                 for k in range(1, 6)]
        levels = []
        for n in range(1, 5):
            space = build_state_space(n, forbidden_set(n - 1))
            levels.append((space.codes, build_transitions(space, forbidden_set(n))))
        return loops, levels

    whole_loops, whole = build()
    whole_quotients = [(table.quotient, check_lift(table))
                       for _, table in whole]
    assert all(table.mirrored for _, table in whole)  # in one chunk
    for module in (patterns, statespace):
        monkeypatch.setattr(module, "_CHUNK", chunk)
    loops, levels = build()
    for got, want in zip(loops, whole_loops):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for (codes, table), (want_codes, want), want_quotient in zip(
            levels, whole, whole_quotients):
        assert np.array_equal(codes, want_codes)
        assert table.pred.dtype == want.pred.dtype
        assert np.array_equal(table.pred, want.pred)
        # the scatter that the lift check reads runs in chunks
        got_q, got_phi = table.quotient, check_lift(table)
        want_q, want_phi = want_quotient
        assert np.array_equal(got_q.pred, want_q.pred)
        assert np.array_equal(got_q.last_digit, want_q.last_digit)
        assert np.array_equal(got_phi, want_phi)
        assert table.mirrored and mirrored_by_definition(table)
        # a break near the start, and breaks a third of the way in
        assert not unmirrored(table).mirrored
        assert not mirrored_by_definition(unmirrored(table))
        size, third = table.n_states, table.n_states // 3
        pred, digits = table.pred.copy(), table.last_digit.copy()
        pred[1, third] = size if pred[1, third] < size else 0
        digits[third] = (digits[third] + 1) % 3
        for broken in ((pred, table.last_digit), (table.pred, digits)):
            broken = TransitionTable(table.n, *broken)
            assert not broken.mirrored
            assert not mirrored_by_definition(broken)


@pytest.mark.parametrize("n", [4, 5])
def test_pred_sentinel_is_a_real_absence(n):
    # each empty slot s of target t: the source word s*3^(L-1) +
    # code(t)//3 is no state, or the joined 3n-step word is an order-n
    # loop; both are looked up here by plain binary search, at the levels
    # past those `test_history_table_is_its_definition` checks
    space, table = history(n)
    codes, size = space.codes, table.n_states
    loops = forbidden_set(n).codes_by_length[3 * n]
    reasons = np.zeros(2, dtype=int)
    for s in range(3):
        empty = np.nonzero(table.pred[s] == size)[0]
        source = np.uint64(s) * POW3[space.length - 1] + codes[empty] // np.uint64(3)
        at = np.minimum(np.searchsorted(codes, source), size - 1)
        missing = codes[at] != source
        joined = np.uint64(s) * POW3[space.length] + codes[empty]
        at = np.minimum(np.searchsorted(loops, joined), loops.shape[0] - 1)
        loop = loops[at] == joined
        assert (missing | loop).all()
        reasons += missing.sum(), loop.sum()
    assert (reasons > 0).all()  # both kinds of absence occur


def test_swap_symmetry_of_state_space():
    # the 1<->3 swap maps code c to 3^L-1-c, so it reverses the sorted
    # codes (state i pairs with state N-1-i) and the moves follow
    for n in range(1, 6):
        space, table = history(n)
        top = POW3[space.length] - np.uint64(1)
        assert np.array_equal(space.codes[::-1], top - space.codes)
        assert table.mirrored


def test_mirrored_only_when_it_holds():
    _, table = history(3)
    assert not unmirrored(table).mirrored
    # toy two-state operator: both states end in kind 1, so no mirror
    assert not make_table([[1, 0], [2, 2], [2, 2]], [0, 0]).mirrored
    # a lone kind-2 state with no moves is its own swap partner
    assert make_table([[1], [1], [1]], [1]).mirrored


def test_mirror_check_is_decided_on_a_cold_solve_at_equal_weights():
    # only a cold start whose kind-1 and kind-3 weights are equal asks
    # whether a table is mirrored, so a history table solved only through
    # its quotient, or at q != 1, never runs the check
    table = build_transitions(build_state_space(4, forbidden_set(3)),
                              forbidden_set(4))
    decided = ["mirrored" in vars(table)]
    alpha_sup(table, 1.424)
    optimize_p(4, table=table)
    decided.append("mirrored" in vars(table))
    power_iteration(table, Parameters(1.424, 1.1, 0.13), max_iter=3)
    decided.append("mirrored" in vars(table))
    power_iteration(table, Parameters(1.424, 1.0, 0.13), max_iter=3)
    decided.append(vars(table).get("mirrored"))
    assert decided == [False, False, False, True]


def test_mirrored_matches_the_definition_on_built_tables():
    for n in range(1, 6):
        _, table = history(n)
        assert table.mirrored == mirrored_by_definition(table) is True
        size, pred = table.n_states, table.pred.copy()
        # a sentinel's mirror turned into state N-1, which would mirror
        # a real move from state 0
        t = int(np.nonzero(pred[0] == size)[0][0])
        pred[2, size - 1 - t] = size - 1
        broken = TransitionTable(table.n, pred, table.last_digit)
        assert broken.mirrored == mirrored_by_definition(broken) is False


def _mirrored_toy(size, dtype, rng):
    """A random table of `size` states in `dtype` that the swap maps onto
    itself, about a third of its slots empty."""
    half = size // 2
    pred = rng.integers(0, size, (3, size))
    pred[rng.random((3, size)) < 0.35] = size
    mirror = np.where(pred == size, size, size - 1 - pred)
    # pred[2-s, N-1-t] is the mirror of pred[s, t]
    pred[2] = mirror[0, ::-1]
    pred[1, size - half:] = mirror[1, :half][::-1]
    if size % 2:
        pred[1, half] = size
    digits = rng.integers(0, 3, size)
    digits[size - half:] = 2 - digits[:half][::-1]
    if size % 2:
        digits[half] = 1
    return TransitionTable(1, pred.astype(dtype), digits.astype(np.uint8))


@pytest.mark.parametrize("dtype,size", [(np.int8, 100), (np.int8, 127),
                                        (np.uint8, 200), (np.int16, 20_001),
                                        (np.uint32, 1_001)])
def test_mirror_check_never_wraps(dtype, size):
    # N-1-pred is taken in the table's own dtype, which holds N: a
    # sentinel's N-1-N wraps in the unsigned ones and is overwritten by
    # N, so two sentinels must still read as a pair, and nothing else
    rng = np.random.default_rng(size)
    table = _mirrored_toy(size, dtype, rng)
    assert table.pred.dtype == dtype
    assert (table.pred == size).any()
    assert table.mirrored and mirrored_by_definition(table)
    for s, t, value in ((0, 3, size - 1), (1, size // 3, 0), (2, size - 1, size),
                        (0, size // 2, size), (1, size - 2, size - 1)):
        pred = table.pred.copy()
        if pred[s, t] == value:
            value = size - 1 - value if value < size else 0
        pred[s, t] = value
        broken = TransitionTable(1, pred, table.last_digit)
        assert broken.mirrored == mirrored_by_definition(broken) is False
    digits = table.last_digit.copy()
    digits[[1, size - 2]] = (digits[1], (digits[size - 2] + 1) % 3)
    broken = TransitionTable(1, table.pred, digits)
    assert broken.mirrored == mirrored_by_definition(broken) is False


def test_history_cap_refused_before_growing(monkeypatch):
    def no_grow(*args):
        raise AssertionError("a word was grown above the history cap")
    monkeypatch.setattr(statespace, "_grow", no_grow)
    with pytest.raises(ResourceLimitError, match="in 1..7, got 8"):
        build_state_space(8, forbidden_set(7))


def test_level_validation():
    with pytest.raises(ValueError, match="in 1..7, got 0"):
        build_state_space(0, forbidden_set(0))
    with pytest.raises(ValueError):
        build_state_space(2, forbidden_set(0))
    with pytest.raises(ValueError):
        build_transitions(build_state_space(1, forbidden_set(0)),
                          forbidden_set(2))


def test_moves_go_to_one_table():
    space = build_state_space(2, forbidden_set(1))
    build_transitions(space, forbidden_set(2))
    assert space.moves is None
    with pytest.raises(ValueError, match="already given its moves"):
        build_transitions(space, forbidden_set(2))


def test_level_six_build_peak_memory():
    # numpy reports its buffers to tracemalloc.  This build peaked at
    # 25.1 MiB with the moves found by binary search and at 23.7 MiB
    # with the recurrence; a full-length int64 index temporary (6.4 MiB
    # at length 17) breaks the bound
    tracemalloc.start()
    try:
        table = build_transitions(build_state_space(6, forbidden_set(5)),
                                  forbidden_set(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n_states == 839_009
    assert peak <= 1.1 * 25.1 * 2**20


def test_growth_holds_its_mask_packed(monkeypatch):
    # numpy reports its buffers to tracemalloc.  The last growth step
    # peaks while it builds the longer codes and still holds the shorter
    # ones, 8 bytes a shorter word or about 3.7 bytes a state; by then
    # its mask of kept pairs is packed a bit a pair, where as bools it
    # took 3 bytes a shorter word (about 1.4 bytes a state: 5.15 bytes a
    # state in all).  Small chunks keep their own temporaries out of it
    for module in (patterns, statespace):
        monkeypatch.setattr(module, "_CHUNK", 1 << 12)
    lower = forbidden_set(5)
    tracemalloc.start()
    try:
        space = build_state_space(6, lower)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 4.5 * len(space)


@pytest.mark.parametrize("bad", ["past_sentinel", "negative", "long_digits",
                                 "short_digits", "digit_3", "four_rows",
                                 "two_rows", "one_row", "float_pred"])
def test_out_of_range_predecessor_rejected(bad):
    # the operator's gathers clamp instead of checking, so a bad index,
    # a pred that is not three rows of integers, or a last digit that is
    # not one step per state must be refused when the table is made
    _, table = history(1)
    n = table.n_states
    pred, digits = table.pred.copy(), table.last_digit.copy()
    if bad == "past_sentinel":
        pred[1, 2] = n + 1
    elif bad == "negative":
        pred[1, 2] = -1
    elif bad == "long_digits":
        digits = np.append(digits, [0, 2]).astype(np.uint8)
    elif bad == "short_digits":
        digits = digits[:-1]
    elif bad == "digit_3":
        digits[2] = 3
    elif bad == "four_rows":
        pred = np.vstack([pred, pred[:1]])
    elif bad == "two_rows":
        pred = pred[:2]
    elif bad == "one_row":
        pred = pred[0]
    else:
        pred = pred.astype(np.float64)
    with pytest.raises(ConsistencyError):
        TransitionTable(n=table.n, pred=pred, last_digit=digits)


def test_pred_type_must_hold_the_sentinel():
    # every index of these 200 states fits int8, but the sentinel 200,
    # which the mirror check compares against, does not
    pred = np.full((3, 200), 100, dtype=np.int8)
    with pytest.raises(ConsistencyError, match="holds the sentinel"):
        TransitionTable(n=1, pred=pred, last_digit=np.ones(200, np.uint8))


@pytest.mark.parametrize("n,classes", CLASSES)
def test_quotient_class_counts(n, classes):
    _, table = history(n)
    quotient, phi = table.quotient, check_lift(table)
    assert quotient.n_states == classes
    assert phi.shape == (table.n_states,)
    assert np.array_equal(np.unique(phi), np.arange(classes))
    assert table.quotient is quotient  # built once per table


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_level_is_the_history_tables_quotient(n):
    # the CLI's route: the same patterns, the history table's length as
    # `states`, and the quotient's own table, which is its own quotient
    patterns, states, table = level(n)
    space, histories = history(n)
    quotient = histories.quotient
    assert (patterns, states) == (len(forbidden_set(n)), len(space))
    assert table.quotient is table
    assert np.array_equal(table.pred, quotient.pred)
    assert np.array_equal(table.last_digit, quotient.last_digit)


@pytest.mark.parametrize("n", range(1, 10))
def test_build_level_table_is_not_mirrored(n):
    # the alpha search warm-starts only the minimal automaton, which is
    # also every history table's quotient, so no warm start is of a
    # mirrored table: the chain numbers its classes by the ranks of its
    # refinement, not in mirror order
    table = minimal_table(n)[0]
    assert not table.mirrored and not mirrored_by_definition(table)


def test_build_level_refuses_before_growing(monkeypatch):
    def no_chain(*args):
        raise AssertionError("a level was chained outside the level range")
    monkeypatch.setattr(statespace, "chain", no_chain)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"in 1..11, got {n}$"):
            statespace.build_level(n)
    with pytest.raises(ResourceLimitError,
                       match="in 1..11, got 12; 11 is the largest level"):
        statespace.build_level(12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_lifts_every_ratio(n):
    # B(u∘φ) = (B_q u)∘φ, so the max ratios agree bit for bit
    _, table = history(n)
    quotient, phi = table.quotient, check_lift(table)
    full = _successor_table(table)
    rng = np.random.RandomState(n)
    for q in (1.0, 1.1):
        for _ in range(3):
            params = Parameters(1 + rng.rand(), q, rng.rand())
            u = rng.rand(quotient.n_states) + 1e-3
            assert (certified_upper_bound(full, params, u[phi])
                    == certified_upper_bound(quotient, params, u))


def test_quotient_keeps_the_spectral_radius():
    rng = np.random.RandomState(7)
    for n in (1, 2, 3):
        _, table = history(n)
        quotient = table.quotient
        for _ in range(3):
            params = Parameters(1 + rng.rand(), 1 + rng.rand(), rng.rand())
            dense = bruteforce.dense_growth_rate(table, params)
            assert bruteforce.dense_growth_rate(quotient, params) == pytest.approx(
                dense, abs=1e-10)
            est = power_iteration(quotient, params)
            assert est.converged
            assert est.estimate == pytest.approx(dense, abs=1e-8)


def test_lift_check_rejects_a_corrupted_class_map():
    _, table = history(3)
    phi = check_lift(table)
    # a state that some move enters: its class is pinned by that move
    s = int(np.nonzero((table.pred < table.n_states).any(axis=0))[0][0])
    # another class that ends in the same step, so only the moves differ
    digits = table.quotient.last_digit
    same = np.flatnonzero(digits == digits[phi[s]])
    bad = phi.copy()
    bad[s] = same[same != phi[s]][0]
    with pytest.raises(AssertionError, match="do not lift"):
        check_lift(table, phi=bad)


@pytest.mark.parametrize("fault", ["dropped move", "added move", "relabelled class"])
def test_lift_check_rejects_a_corrupted_quotient(fault):
    # each fault is in the class of state 0, and the check reads the
    # class map on the corrupted quotient
    _, table = history(3)
    quotient, phi = table.quotient, check_lift(table)
    k, c = quotient.n_states, int(phi[0])
    pred, digits = quotient.pred.copy(), quotient.last_digit.copy()
    if fault == "dropped move":
        # state 0 moves into itself on step 1, so it is read along the
        # dropped move
        pred[int(np.argmax(pred[:, c] < k)), c] = k
        match = "leaves the quotient"
    elif fault == "added move":
        # a move on step d must enter a class whose states end in step d
        d = int(np.argmax(pred[:, c] == k))
        pred[d, c] = int(np.nonzero(digits == d)[0][0])
        match = "do not lift"
    else:
        digits[c] = (digits[c] + 1) % 3
        match = "last step"
    corrupted = TransitionTable(n=quotient.n, pred=pred, last_digit=digits)
    with pytest.raises(AssertionError, match=match):
        check_lift(table, corrupted)


def test_two_moves_on_one_step_refused():
    # state 0 enters both states, each ending in step 1
    table = make_table([[0, 0], [2, 2], [2, 2]], [0, 0])
    with pytest.raises(ConsistencyError, match="share a source and a step"):
        table.succ


def test_hand_built_table_is_its_own_quotient():
    # with no patterns to build classes from, the table is solved on
    # itself, which the identity map lifts onto trivially
    _, table = history(2)
    bare = TransitionTable(n=table.n, pred=table.pred,
                           last_digit=table.last_digit)
    assert bare.quotient is bare
    res = alpha_sup(bare, LEVELS[2].p_opt)
    assert res.certified
    assert res.alpha_low == pytest.approx(LEVELS[2].bound, abs=1e-6)


@pytest.mark.parametrize("fault,match", [
    ("no move into a state", "leaves the quotient"),
    # its target keeps another move, so every state still has a
    # predecessor to read its class along, and the move's source lacks
    # a move its class has
    ("dropped move", "do not lift"),
    # from a state whose class has no move on the target's last step,
    # after the target's first predecessor, so every class is read as
    # before
    ("added move", "do not lift"),
    # the class map reads the state along its new last step, which its
    # first predecessor's class has no move on
    ("relabelled last digit", "leaves the quotient"),
    # a move that spells a pattern, from its target's first
    # predecessor: the class map reads the target's own word along it,
    # which holds no pattern, but its source's class has no such move
    ("blocked pattern move put back", "do not lift"),
    # a second move on one step, into a state of the class the first
    # one enters, so both land where they should
    ("two moves on one step", "share a source and a step"),
], ids=["no move into a state", "dropped move", "added move",
        "relabelled last digit", "blocked pattern move put back",
        "two moves on one step"])
def test_lift_check_refuses_each_fault(fault, match):
    # faults in the moves or last digits of a level-2 table, each of
    # which takes it off the patterns' moves
    space, table = history(2)
    n = table.n_states
    phi, quotient = check_lift(table), table.quotient
    pred, digits = table.pred.copy(), table.last_digit.copy()
    if fault == "no move into a state":
        pred[:, 40] = n
    elif fault == "dropped move":
        t = int(np.nonzero((pred < n).sum(axis=0) > 1)[0][0])
        pred[int(np.argmax(pred[:, t] < n)), t] = n
    elif fault == "added move":
        t, s, i = next(
            (t, int(s), i) for t in range(n)
            for s in np.nonzero(pred[:, t] == n)[0]
            for i in range(int(pred[:, t].min()) + 1, n)
            if quotient.pred[digits[t], phi[i]] == quotient.n_states)
        pred[s, t] = i
    elif fault == "relabelled last digit":
        digits[40] = (digits[40] + 1) % 3
    elif fault == "two moves on one step":
        t, u = next((t, u) for t, u in itertools.permutations(range(n), 2)
                    if phi[t] == phi[u] and (pred[:, t] == n).any())
        pred[int(np.argmax(pred[:, t] == n)), t] = pred[:, u].min()
    else:
        # put back a blocked move whose source is its target's first
        top = POW3[space.length - 1]
        t, s, src = next(
            (t, s, src) for t, s in itertools.product(range(n), range(3))
            for code in [np.uint64(s) * top + space.codes[t] // np.uint64(3)]
            for src in [int(np.searchsorted(space.codes, code))]
            if pred[s, t] == n and src < pred[:, t].min()
            and space.codes[src] == code)
        pred[s, t] = src
    broken = TransitionTable(n=table.n, pred=pred, last_digit=digits)
    with pytest.raises((AssertionError, ConsistencyError), match=match):
        check_lift(broken, quotient)


def _other_set(name):
    """A set the quotient does not hold for, by name: the level-3 set
    with one order-3 loop swapped for a balanced word that is no loop,
    swapped for 222222222, which avoids the level-2 set but is not
    balanced, or dropped; the set {11}; or the level-1 set with a
    length-4 pattern."""
    if name == "11":
        return ForbiddenSet(1, {2: [0]})
    if name == "length-4":
        return ForbiddenSet(1, {**forbidden_set(1).codes_by_length, 4: [0]})
    paper = forbidden_set(3).codes_by_length
    swapped = {
        "order-3-code-changed": next(
            np.uint64(c) for c in range(3**9)
            if sorted(bruteforce.code_word(c, 9)) == sorted([1, 2, 3] * 3)
            and c not in paper[9]),
        "unbalanced-code": (POW3[9] - np.uint64(1)) // np.uint64(2),
    }
    loops = paper[9][1:]
    if name in swapped:
        loops = np.sort(np.append(loops, swapped[name]))
    return ForbiddenSet(3, {**paper, 9: loops})


@pytest.mark.parametrize("name", ["order-3-code-changed", "unbalanced-code",
                                  "order-3-code-dropped", "11", "length-4"])
def test_history_tables_refuse_other_sets(name):
    # the chain's quotient is min(F_n) for the paper's sets only, so
    # `build_state_space` and `build_transitions` take no other, as the
    # level-n set or the one below
    fset = _other_set(name)
    n = fset.level
    with pytest.raises(ValueError, match="not the paper's"):
        build_transitions(build_state_space(n, forbidden_set(n - 1)), fset)
    with pytest.raises(ValueError, match="not the paper's"):
        build_state_space(n + 1, fset)


@pytest.mark.parametrize("n", range(1, 8))
def test_history_tables_accept_the_paper_sets(n):
    # each level's set and its restriction to the level below, the two
    # the benchmark passes to `build_transitions` and `build_state_space`
    fset = forbidden_set(n)
    for paper in (fset, fset.restrict(n - 1)):
        assert len(statespace._paper_levels(paper)) == paper.level + 1


def test_table_level_must_match_its_quotient():
    # a level-2 table labelled level 3 would pass optimize_p(3, ...)'s
    # level check and report the level-2 row as level 3
    _, table = history(2)
    with pytest.raises(ValueError, match="level-2 quotient"):
        TransitionTable(n=3, pred=table.pred, last_digit=table.last_digit,
                        quotient=table.quotient)


def test_refine_finds_the_coarsest_partition_of_a_hand_built_table():
    # 0 -> 1 -> 2 and 3 -> 4 -> 5 on step 1, then nowhere; 6 loops on
    # step 3 and 7 moves into it; 8 moves nowhere, like 2 and 5, but
    # ends in another step.  N = 9 is the sentinel.  The classes are
    # {0, 3}, {1, 4}, {2, 5}, {6, 7} and {8}: the first three are told
    # apart only by how far they go, {6, 7} by the step it loops on.
    # Refinement starts from the split by last digit, {0, ..., 7} and
    # {8}, and Moore rounds reach the rest.
    succ = np.array([[1, 2, 9, 4, 5, 9, 9, 9, 9],
                     [9, 9, 9, 9, 9, 9, 9, 9, 9],
                     [9, 9, 9, 9, 9, 9, 6, 6, 9]], dtype=np.int32)
    digits = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
    classes, k = automaton._refine(succ, digits)
    assert k == 5 and classes.dtype == np.int32
    want = [0, 1, 2, 0, 1, 2, 3, 3, 4]
    # the same partition: the classes label it one to one
    assert np.unique(classes.astype(np.int64) * 5 + want).shape == (5,)


def test_refine_rejects_a_seed_that_merges_two_last_digits():
    # the hand-built table above: {2, 5} and {8} both move nowhere, so
    # merging them is told apart by the last digit alone
    succ = np.array([[1, 2, 9, 4, 5, 9, 9, 9, 9],
                     [9, 9, 9, 9, 9, 9, 9, 9, 9],
                     [9, 9, 9, 9, 9, 9, 6, 6, 9]], dtype=np.int32)
    digits = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
    coarsest = np.array([0, 1, 2, 0, 1, 2, 3, 3, 4], dtype=np.int32)
    assert automaton._is_stable(coarsest, 5, succ, digits)
    merged = np.array([0, 1, 2, 0, 1, 2, 3, 3, 2], dtype=np.int32)
    assert not automaton._is_stable(merged, 4, succ, digits)
    # and one that merges a class with its target
    assert not automaton._is_stable(np.where(coarsest == 1, 0, coarsest),
                                    5, succ, digits)


def _pairs_one_to_one(a, b, k):
    """Whether two labellings by 0..k-1 give the same partition."""
    pairs = np.unique(a.astype(np.int64) * k + b)
    return (pairs.shape == (k,) and np.unique(a).shape == (k,)
            and np.unique(b).shape == (k,))


@pytest.mark.parametrize("n", range(1, 9))
def test_seeded_refinement_matches_moore(n):
    # the hash classes pass the check on their own and pair one to one
    # with pure Moore refinement from the last digits
    fset = forbidden_set(n)
    moves, digits = aho_corasick._live(fset)
    rounds = max(fset.codes_by_length)
    seeded = automaton._rank(aho_corasick._future_hash(moves, digits, rounds))
    assert automaton._is_stable(*seeded, moves, digits)
    classes, k = aho_corasick._seeded(moves, digits, rounds)
    moore, k_moore = automaton._refine(moves, digits)
    assert k == k_moore == seeded[1]
    assert _pairs_one_to_one(classes, moore, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_failed_seed_falls_back_to_the_coarsest_partition(n, monkeypatch):
    # with no multipliers the hash reads the last digit alone, so the
    # check fails and Moore rounds run from the digit classes
    moves, digits = aho_corasick._live(forbidden_set(n))
    rounds = 3 * n
    moore, k = automaton._refine(moves, digits)
    monkeypatch.setattr(aho_corasick, "HASH_MULTIPLIERS",
                        np.zeros(3, dtype=np.uint64))
    seeded = automaton._rank(aho_corasick._future_hash(moves, digits, rounds))
    assert seeded[1] == 3
    assert not automaton._is_stable(*seeded, moves, digits)
    classes, k_fallback = aho_corasick._seeded(moves, digits, rounds)
    assert k_fallback == k == LEVELS[n].classes
    assert _pairs_one_to_one(classes, moore, k)


@pytest.mark.parametrize("rounds", [3, 0], ids=["seeded", "moore"])
def test_refine_has_no_class_cap(rounds):
    # a random table with missing moves splits into 65,536 classes,
    # from the hash seed or by Moore rounds from the last digits: more than a
    # round key packing a class and its three targets' classes, below
    # (K+1)^4, could hold in int64.  Every state is its own class, so
    # both routes give the same partition.
    size = 65_536
    rng = np.random.default_rng(0)
    succ = rng.integers(0, size + 1, size=(3, size))
    digits = rng.integers(0, 3, size=size).astype(np.uint8)
    if rounds:
        classes, k = aho_corasick._seeded(succ, digits, rounds)
    else:
        classes, k = automaton._refine(succ, digits)
    assert k == size
    assert np.array_equal(np.sort(classes), np.arange(size))
    assert automaton._is_stable(classes, k, succ, digits)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_moore_refinement_of_the_histories_matches(n):
    # the oracle: Moore refinement of the full successor form induces
    # exactly the partition that the automaton route finds
    _, table = history(n)
    moore, k = automaton._refine(table.succ, table.last_digit)
    phi = check_lift(table)
    assert k == table.quotient.n_states == LEVELS[n].classes
    pairs = np.unique(moore.astype(np.int64) * k + phi)
    assert pairs.shape == (k,)
    assert np.array_equal(np.unique(pairs // k), np.arange(k))
    assert np.array_equal(np.unique(pairs % k), np.arange(k))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quotient_reads_nothing_of_the_history_table(n):
    # the quotient comes from the chain, so `check_lift` compares two
    # independent constructions: a space with every move emptied and
    # every code zeroed still gets min(F_n)
    space = build_state_space(n, forbidden_set(n - 1))
    space.moves[:] = len(space)
    space.codes[:] = 0
    got = build_transitions(space, forbidden_set(n)).quotient
    want = minimal_table(n)[0]
    assert got.n == n
    assert (got.pred.dtype == want.pred.dtype
            and np.array_equal(got.pred, want.pred))
    assert (got.last_digit.dtype == want.last_digit.dtype
            and np.array_equal(got.last_digit, want.last_digit))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_map_reads_each_history_word(n):
    # the oracle: each history's own word, read one step at a time from
    # the root's class
    space, table = history(n)
    quotient = table.quotient
    walk = np.full(len(space), minimal_table(n)[1])
    for j in reversed(range(space.length)):
        digits = (space.codes // POW3[j] % np.uint64(3)).astype(np.intp)
        walk = quotient.pred[digits, walk]
    assert np.array_equal(check_lift(table), walk)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_middle_state_is_its_own_mirror(n):
    space, table = history(n)
    size = table.n_states
    middle = (size - 1) // 2
    assert table.mirrored and size % 2 == 1
    assert size - 1 - middle == middle
    # the all-kind-2 word, 22..2
    assert space.codes[middle] == (POW3[space.length] - np.uint64(1)) // np.uint64(2)
    assert table.last_digit[middle] == 1
    # its slot s pairs with its slot 2-s, and it moves into itself
    pred = table.pred[:, middle]
    assert np.array_equal(pred[::-1], np.where(pred == size, size, size - 1 - pred))
    assert pred[1] == middle
