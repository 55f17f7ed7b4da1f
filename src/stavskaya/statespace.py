"""Walk state space and one-step transition structure.

A state at level n is a valid history of the last L = 3n-1 steps: a
word over {1,2,3} containing no level-(n-1) forbidden pattern as a
factor.  Appending a step to a state drops its oldest step; the move is
allowed only when the extended length-3n word contains no level-n
pattern.

The states and the moves come from the move rule of `patterns`, which
also grows the loops: the valid words one step longer are the moves
between the valid words, less the patterns of that length (`_grow`),
and the states are grown that way from single steps.  Every level-n
pattern shorter than 3n is in the level-(n-1) set, which no state
contains, so a move between two states is rejected exactly when its
3n-step word is an order-n loop (`_moves`).

The moves are stored once, in gather form: the sources of a state t are
the up-to-three states that become t on dropping their oldest step, and
each sits in the slot of that oldest step, so slot s holds
s*3^(L-1) + code(t) // 3 when that move exists.  Every in-edge of a
state carries the kind of that state's newest step.

Words are encoded as in `patterns`, oldest step in the most
significant base-3 digit, so the shift-append is
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
from .patterns import (_CHUNK, MAX_LEVEL, POW3, ForbiddenSet, _grow, _moves,
                       code_to_pattern, pattern_text)

# Rough per-state footprint (code + predecessor slots + a few iteration
# vectors), used only for the construction memory guard.
_BYTES_PER_STATE = 64

DEFAULT_MEMORY_BUDGET = 4 << 30


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


def enumerate_valid_words(length: int, fset: ForbiddenSet,
                          memory_budget: int = DEFAULT_MEMORY_BUDGET) -> np.ndarray:
    """Sorted codes of all length-`length` words avoiding `fset` as a factor.

    The words grow from single steps by the move rule of `patterns`,
    which refuses a length with more words than `memory_budget` holds
    before it allocates them.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    max_words = max(memory_budget // _BYTES_PER_STATE, 1)
    codes = np.array([0, 1, 2], dtype=np.uint64)
    for cur in range(1, length):
        codes = _grow(codes, cur, fset, max_words=max_words)[1]
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
        self.mirrored = self._is_mirrored()

    def _is_mirrored(self) -> bool:
        # also checked once, for the spectral solver's half-state
        # iteration, in chunks to keep its temporaries small; slot 1
        # pairs with itself and slot 2 with slot 0, so slots 0 and 1
        # (their mirrors: slots 2 and 1, reversed) cover all three
        n = self.n_states
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            src = self.pred[:2, lo:hi]
            if not (np.array_equal(self.last_digit[n - hi:n - lo][::-1],
                                   2 - self.last_digit[lo:hi])
                    and np.array_equal(self.pred[[2, 1], n - hi:n - lo][:, ::-1],
                                       np.where(src == n, n, n - 1 - src))):
                return False
        return True

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
    pred = _moves(states.codes, states.length, fset)
    return TransitionTable(n=states.n, pred=pred, last_digit=last_digit)
