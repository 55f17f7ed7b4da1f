"""Walk state space and one-step transition structure.

A state at level n is a valid history of the last L = 3n-1 steps: a
word over {1,2,3} containing no level-(n-1) forbidden pattern as a
factor.  Appending a step j to a state drops its oldest step; the move
is allowed only when no level-n forbidden pattern is a suffix of the
extended length-3n word.  Allowed moves of each kind form a 0/1 matrix
with at most one nonzero per source column; every in-edge of a state
carries the kind of that state's newest step.

Words are encoded in base 3 (digits 0,1,2 for steps 1,2,3) with the
oldest step in the most significant digit, so the shift-append is
(code mod 3^(L-1)) * 3 + digit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ResourceLimitError
from .patterns import (MAX_LEVEL, POW3, ForbiddenSet, SuffixTrie,
                       code_to_pattern, pattern_text)

# Rough per-state footprint (code + successor/predecessor slots + a few
# iteration vectors), used only for the construction memory guard.
_BYTES_PER_STATE = 64

DEFAULT_MEMORY_BUDGET = 4 << 30

_CHUNK = 1 << 22


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

    Extends prefixes one step at a time; a prefix survives iff no pattern
    is a suffix of it, which together with induction gives full factor
    avoidance.  Output order is increasing because parents are processed
    in order and the three children of a parent are emitted in order.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    max_states = max(memory_budget // _BYTES_PER_STATE, 1)
    trie = SuffixTrie(fset.patterns)
    codes = np.array([0, 1, 2], dtype=np.uint64)
    for cur in range(1, length):
        keep = np.empty((codes.shape[0], 3), dtype=bool)
        for d in range(3):
            for lo in range(0, codes.shape[0], _CHUNK):
                hi = min(lo + _CHUNK, codes.shape[0])
                keep[lo:hi, d] = ~trie.blocked_on_append(codes[lo:hi], cur, d)
        rows, cols = np.nonzero(keep)
        codes = codes[rows] * np.uint64(3) + cols.astype(np.uint64)
        if codes.shape[0] > max_states:
            raise ResourceLimitError(
                f"{codes.shape[0]} prefixes of length {cur + 1} exceed the "
                f"memory budget of {memory_budget} bytes")
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
    """Allowed shift-append moves at level n, in scatter and gather form.

    succ[d, w] is the target of appending step d+1 to state w, or -1 when
    the move is blocked.  pred[s, t] for s in 0..2 are the up-to-three
    sources with an edge into t (sentinel = state count); every in-edge
    of t carries the kind recorded in last_digit[t].
    """

    n: int
    succ: np.ndarray        # (3, N) int32, -1 = blocked
    pred: np.ndarray        # (3, N) int32, N = empty slot
    last_digit: np.ndarray  # (N,) uint8 in 0..2

    def __post_init__(self) -> None:
        # checked once here so the operator's gathers can skip the check
        n = self.n_states
        if self.pred.size and (self.pred.min() < 0 or self.pred.max() > n):
            raise ConsistencyError(
                f"predecessor indices must lie in [0, {n}]")

    @property
    def n_states(self) -> int:
        return int(self.succ.shape[1])

    @property
    def edge_count(self) -> int:
        return int((self.succ >= 0).sum())

    def out_degrees(self) -> np.ndarray:
        return (self.succ >= 0).sum(axis=0)

    def zero_out_degree_count(self) -> int:
        """States with no allowed move; kept for diagnostics, never pruned."""
        return int((self.out_degrees() == 0).sum())


def pred_from_succ(succ: np.ndarray) -> np.ndarray:
    """Gather-form inverse: per-target source slots (sentinel = N)."""
    n = succ.shape[1]
    pred = np.full((3, n), n, dtype=np.int32)
    for d in range(3):
        srcs = np.nonzero(succ[d] >= 0)[0]
        tgts = succ[d][srcs]
        order = np.argsort(tgts, kind="stable")
        tgts = tgts[order]
        srcs = srcs[order]
        first = np.searchsorted(tgts, tgts, side="left")
        slot = np.arange(tgts.shape[0]) - first
        if slot.size and slot.max() > 2:
            raise ConsistencyError("a state has more than three predecessors")
        pred[slot, tgts] = srcs
    return pred


def succ_from_pred(pred: np.ndarray, last_digit: np.ndarray) -> np.ndarray:
    """Rebuild scatter form from gather form (transpose round-trip)."""
    n = pred.shape[1]
    succ = np.full((3, n), -1, dtype=np.int32)
    targets = np.arange(n, dtype=np.int32)
    for s in range(3):
        real = pred[s] < n
        succ[last_digit[targets[real]], pred[s][real]] = targets[real]
    return succ


def build_transitions(states: StateSpace, fset: ForbiddenSet) -> TransitionTable:
    """Allowed moves out of every state, checked against the level-n set.

    Appending d to w is blocked iff some pattern is a suffix of the
    extended length-3n word.  Every allowed target is itself a state;
    a missing target indicates a construction bug.
    """
    if fset.level != states.n:
        raise ValueError(f"need the level {states.n} forbidden set, got level {fset.level}")
    trie = SuffixTrie(fset.patterns)
    codes = states.codes
    n_states = len(states)
    length = states.length
    succ = np.full((3, n_states), -1, dtype=np.int32)
    for d in range(3):
        blocked = np.empty(n_states, dtype=bool)
        for lo in range(0, n_states, _CHUNK):
            hi = min(lo + _CHUNK, n_states)
            blocked[lo:hi] = trie.blocked_on_append(codes[lo:hi], length, d)
        src = np.nonzero(~blocked)[0]
        tgt_codes = (codes[src] % POW3[length - 1]) * np.uint64(3) + np.uint64(d)
        idx = np.searchsorted(codes, tgt_codes)
        ok = (idx < n_states) & (codes[np.minimum(idx, n_states - 1)] == tgt_codes)
        if not ok.all():
            raise ConsistencyError(
                f"{int((~ok).sum())} shift-append targets are missing from the state space")
        succ[d, src] = idx
    return TransitionTable(
        n=states.n,
        succ=succ,
        pred=pred_from_succ(succ),
        last_digit=(codes % np.uint64(3)).astype(np.uint8),
    )
