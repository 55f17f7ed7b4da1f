"""Walk state space and one-step transition structure.

A state at level n is a valid history of the last L = 3n-1 steps: a
word over {1,2,3} containing no level-(n-1) forbidden pattern as a
factor.  Appending a step to a state drops its oldest step; the move is
allowed only when the extended length-3n word contains no level-n
pattern.

Both the states and the moves come from one lemma.  A word avoids a
pattern set F exactly when its prefix and its suffix, each one step
shorter, avoid F and the word itself is not in F, since every shorter
factor lies inside one of the two.  So the valid words one step longer
are the moves between the valid words, less the patterns of that
length (`_moves`), and the states are grown that way from single steps.
Every level-n pattern shorter than 3n is in the level-(n-1) set, which
no state contains, so a move between two states is rejected exactly
when its 3n-step word is an order-n loop.

The moves are stored once, in gather form: the sources of a state t are
the up-to-three states that become t on dropping their oldest step, and
each sits in the slot of that oldest step, so slot s holds
s*3^(L-1) + code(t) // 3 when that move exists.  Every in-edge of a
state carries the kind of that state's newest step.

Words are encoded in base 3 (digits 0,1,2 for steps 1,2,3) with the
oldest step in the most significant digit, so the shift-append is
(code mod 3^(L-1)) * 3 + digit.

The 1<->3 swap maps digit d to 2-d, so it maps code c to 3^L-1-c.  The
forbidden sets are closed under the swap, so the state set is too, and
since the codes are sorted the swap partner of state i is state N-1-i:
no lookup table is needed.  `TransitionTable.mirrored` records whether
the moves respect this pairing (pred[2-s, N-1-t] = N-1-pred[s, t], the
sentinel mapping to itself, and last_digit reversed = 2 - last_digit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ResourceLimitError
from .patterns import (MAX_LEVEL, POW3, ForbiddenSet, code_to_pattern,
                       pattern_text)

# Rough per-state footprint (code + predecessor slots + a few iteration
# vectors), used only for the construction memory guard.
_BYTES_PER_STATE = 64

DEFAULT_MEMORY_BUDGET = 4 << 30

# Targets looked up per pass of the move rule.  Its temporaries are
# about 40 bytes per target, so the chunk sets part of the build's peak
# RSS: at 2^18 the whole build (patterns, states, transitions) peaks at
# 56 MiB at level 6, below the solve's footprint, and 285 MiB at level
# 7, where the table itself sets the peak; 2^20 takes level 6 to 72 MiB
# and 2^22 takes level 7 to 335 MiB (2 cores, numpy 2.4).
_CHUNK = 1 << 18

_NO_PATTERNS = np.empty(0, dtype=np.uint64)


def suffix_blocked(code: int, length: int, fset: ForbiddenSet) -> bool:
    """True iff some forbidden pattern equals a suffix of the given word."""
    for m, codes_m in fset.codes_by_length.items():
        if m > length:
            continue
        tail = np.uint64(code % int(POW3[m]))
        i = int(np.searchsorted(codes_m, tail))
        if i < codes_m.shape[0] and codes_m[i] == tail:
            return True
    return False


@dataclass
class StateSpace:
    """All valid length-L histories at level n, in increasing code order."""

    n: int
    length: int
    codes: np.ndarray  # uint64, strictly increasing

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def index_of(self, code: int) -> int:
        """Dense 0-based id of a word code; raises KeyError if absent."""
        i = int(np.searchsorted(self.codes, np.uint64(code)))
        if i >= len(self) or self.codes[i] != np.uint64(code):
            raise KeyError(f"word code {code} is not a state")
        return i

    def word(self, state_id: int) -> tuple[int, ...]:
        return code_to_pattern(int(self.codes[state_id]), self.length)

    def word_texts(self) -> list[str]:
        return [pattern_text(self.word(i)) for i in range(len(self))]


def _moves(codes: np.ndarray, length: int, patterns: np.ndarray) -> np.ndarray:
    """The moves between the sorted length-`length` words `codes`, in
    gather form: pred[s, t] is the index of the word
    s*3^(length-1) + codes[t] // 3, or the sentinel N = len(codes) when
    that word is missing or the joined word s*3^length + codes[t] is one
    of `patterns` (codes of length length+1)."""
    n = codes.shape[0]
    pred = np.empty((3, n), dtype=np.int32)
    if n == 0:
        return pred
    top = POW3[length - 1]
    for lo in range(0, n, _CHUNK):
        tail = codes[lo:lo + _CHUNK] // np.uint64(3)
        for s in range(3):
            src = tail + np.uint64(s) * top
            idx = np.searchsorted(codes, src)
            np.minimum(idx, n - 1, out=idx)
            pred[s, lo:lo + tail.shape[0]] = np.where(codes[idx] == src, idx, n)
    # each pattern blocks the one move that spells it: its last `length`
    # digits name the target, its first digit the slot
    tgt = patterns % POW3[length]
    idx = np.minimum(np.searchsorted(codes, tgt), n - 1)
    hit = codes[idx] == tgt
    pred[(patterns[hit] // POW3[length]).astype(np.intp), idx[hit]] = n
    return pred


def enumerate_valid_words(length: int, fset: ForbiddenSet,
                          memory_budget: int = DEFAULT_MEMORY_BUDGET) -> np.ndarray:
    """Sorted codes of all length-`length` words avoiding `fset` as a factor.

    A word avoids `fset` exactly when its prefix and suffix one step
    shorter do and it is not itself a pattern, so the words one step
    longer are the allowed moves between the current words, less the
    patterns of the new length.  Emitting them slot by slot (oldest step
    0, 1, 2) keeps the codes in increasing order.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    max_states = max(memory_budget // _BYTES_PER_STATE, 1)
    codes = np.array([0, 1, 2], dtype=np.uint64)
    for cur in range(1, length):
        patterns = fset.codes_by_length.get(cur + 1, _NO_PATTERNS)
        kept = _moves(codes, cur, patterns) < codes.shape[0]
        count = int(kept.sum())
        if count > max_states:
            raise ResourceLimitError(
                f"{count} prefixes of length {cur + 1} exceed the "
                f"memory budget of {memory_budget} bytes")
        codes = np.concatenate([codes[kept[s]] + np.uint64(s) * POW3[cur]
                                for s in range(3)])
    return codes


def build_state_space(n: int, lower: ForbiddenSet,
                      memory_budget: int = DEFAULT_MEMORY_BUDGET) -> StateSpace:
    """The level-n state space: length-(3n-1) words avoiding the level-(n-1)
    forbidden set."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds the encoding limit {MAX_LEVEL}")
    if lower.level != n - 1:
        raise ValueError(f"need the level {n - 1} forbidden set, got level {lower.level}")
    length = 3 * n - 1
    codes = enumerate_valid_words(length, lower, memory_budget)
    return StateSpace(n=n, length=length, codes=codes)


@dataclass
class TransitionTable:
    """Allowed shift-append moves at level n, in gather form.

    pred[s, t] is the state that becomes t on dropping its oldest step,
    kind s+1, or the sentinel N (the state count) when that state does
    not exist or its move into t is blocked.  Every in-edge of t carries
    the kind recorded in last_digit[t].

    `mirrored` is derived, never passed: it is True exactly when the 1<->3
    swap, which pairs state t with state N-1-t, maps the table onto
    itself.  Tables built from patterns are, since the forbidden sets are
    closed under the swap; hand-built toy tables mostly are not.
    """

    n: int
    pred: np.ndarray        # (3, N) int32, N = empty slot
    last_digit: np.ndarray  # (N,) uint8 in 0..2
    mirrored: bool = field(init=False)

    def __post_init__(self) -> None:
        # checked once here so the operator's gathers can skip the check
        n = self.n_states
        if self.pred.size and (self.pred.min() < 0 or self.pred.max() > n):
            raise ConsistencyError(
                f"predecessor indices must lie in [0, {n}]")
        # also checked once, for the spectral solver's half-state
        # iteration; slot 1 pairs with itself and slot 2 with slot 0, so
        # checking slots 0 and 1 covers all three
        self.mirrored = (
            np.array_equal(self.last_digit[::-1], 2 - self.last_digit)
            and all(np.array_equal(self.pred[2 - s, ::-1],
                                   np.where(self.pred[s] == n, n, n - 1 - self.pred[s]))
                    for s in range(2)))

    @property
    def n_states(self) -> int:
        return int(self.pred.shape[1])

    @property
    def succ(self) -> np.ndarray:
        """Scatter form, built on each access: succ[d, w] is the target
        of appending step d+1 to state w, or -1 when the move is blocked."""
        n = self.n_states
        succ = np.full((3, n), -1, dtype=np.int32)
        targets = np.arange(n, dtype=np.int32)
        for s in range(3):
            real = self.pred[s] < n
            succ[self.last_digit[real], self.pred[s][real]] = targets[real]
        return succ

    @property
    def edge_count(self) -> int:
        return int((self.pred < self.n_states).sum())

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.pred.ravel(), minlength=self.n_states + 1)[:-1]

    def zero_out_degree_count(self) -> int:
        """States with no allowed move; kept for diagnostics, never pruned."""
        return int((self.out_degrees() == 0).sum())


def build_transitions(states: StateSpace, fset: ForbiddenSet) -> TransitionTable:
    """Allowed moves into every state, checked against the level-n set.

    The source in slot s of target t is the state coded
    s*3^(L-1) + code(t) // 3; its move appends t's newest step.  Every
    factor of the joined length-3n word shorter than 3n lies in the
    source or the target, and every level-n pattern that short is in the
    level-(n-1) set that no state contains, so the move is rejected
    exactly when the joined word is an order-n loop.
    """
    if fset.level != states.n:
        raise ValueError(f"need the level {states.n} forbidden set, got level {fset.level}")
    # the full-length remainder is a temporary, so take it before pred exists
    last_digit = (states.codes % np.uint64(3)).astype(np.uint8)
    loops = fset.codes_by_length.get(states.length + 1, _NO_PATTERNS)
    pred = _moves(states.codes, states.length, loops)
    return TransitionTable(n=states.n, pred=pred, last_digit=last_digit)
