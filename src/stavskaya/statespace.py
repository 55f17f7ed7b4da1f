"""Walk state space and one-step transition structure.

A state at level n is a valid history of the last L = 3n-1 steps: a
word over {1,2,3} containing no level-(n-1) forbidden pattern as a
factor.  Appending a step to a state drops its oldest step; the move is
allowed only when the extended length-3n word contains no level-n
pattern.

The states and the moves come from the move rule of `patterns`: `_grow`
carries the valid words and their moves from length to length, starting
from single steps, and a `StateSpace` keeps the moves of its last growth
step.  Every level-n pattern shorter than 3n is in the level-(n-1) set,
which no state contains, so a move between two states is rejected
exactly when its source is no state, which the growth has already
recorded, or its 3n-step word is an order-n loop, which
`build_transitions` blocks (`_block`) in the same array before the table
takes it over.

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
no lookup table is needed.  `TransitionTable.mirrored` says whether
the moves respect this pairing (pred[2-s, N-1-t] = N-1-pred[s, t], the
sentinel mapping to itself, and last_digit reversed = 2 - last_digit);
it is decided on first use, which only a cold solve at q = 1 makes.

The gather operator M = W·Sᵀ (S the 0/1 move matrix, W the diagonal of
the targets' step weights) has the spectral radius of its successor
form B = W·S, in which state s is weighted by its own newest step:
rho(B) = rho(S·W) = rho((S·W)ᵀ) = rho(M).  B counts weighted words that
avoid the patterns, so it factors through a much smaller automaton.
`TransitionTable.quotient` is the coarsest forward bisimulation of B
(5, 13, 33, 79, 187, 442 and 1,046 classes at n = 1..7): min(F_n), the
minimal automaton of the words that avoid the level-n set, which
`build_transitions` takes from `automaton.chain` as it builds the table.
The map from a history to the class its word leads to from the start is
a bisimulation onto min(F_n): a history and its class have the same
newest step, the move on step d exists exactly when the class has one,
and it enters a history whose class is that move's target, since no
pattern is longer than 3n, so a word's future is fixed by its last 3n-1
steps.  So the histories' coarsest bisimulation is min(F_n) pulled back
along the map.  That holds for the paper's sets only, the ones the
chain builds, so `build_state_space` and `build_transitions` refuse any
other set (`_paper_levels`).
The quotient B_q is stored as a table whose slot d of class c holds the
class c moves to on step d+1, so its gather operator is B_q itself.
With φ the class map, B(u∘φ) = (B_q u)∘φ for every u: each history has
the same Collatz–Wielandt ratio under u∘φ as its class has under u, so
a max ratio below one on B_q proves rho(M) < 1 for the full table, and
a min ratio above one proves rho(M) > 1, since rho(W·S) = rho(W·Sᵀ), as
shown above.  The identity holds slot by slot when every history has
its class's last digit and, on every step, the move its class has, into
a history of the class that move enters, or no move where its class has
none.  The tests check that (`check_lift` in `tests/conftest.py`) at
every level up to `MAX_HISTORY_LEVEL`, the only levels whose history
tables are built, with φ read along each history's own word from the
start class.  `build_level` and `build_levels`, the CLI's route, build
none: they return min(F_n) as its own quotient and count the states on
it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .automaton import chain
from .errors import ConsistencyError
from .patterns import (_CHUNK, _NO_CODES, POW3, ForbiddenSet, _block, _grow,
                       check_level)

# The largest level whose history table is built: level 7, the paper's
# headline, has 8,663,071 states, and its history table peaks at about
# 242 MiB.  Level 8 has 89,435,873 states (the length-23 words avoiding
# the level-7 set), and every level above it grows those same words on
# the way.
MAX_HISTORY_LEVEL = 7


@dataclass
class StateSpace:
    """All valid length-L histories at level n, in increasing code order,
    and the moves between them that avoid the level-(n-1) set, which
    `build_transitions` takes over (None once it has)."""

    n: int
    length: int
    codes: np.ndarray  # uint64, strictly increasing
    moves: np.ndarray | None = field(default=None, repr=False)  # (3, N) int32
    # `chain(n - 1)`, which checked the set below; `build_transitions`
    # chains one level more from it
    levels: list | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return int(self.codes.shape[0])


def build_state_space(n: int, lower: ForbiddenSet) -> StateSpace:
    """The level-n state space: length-(3n-1) words avoiding the level-(n-1)
    forbidden set, which must be the paper's (`_paper_levels`).  Levels
    outside 1..`MAX_HISTORY_LEVEL` are refused by `check_level` before
    any word is grown."""
    check_level(n, 1, MAX_HISTORY_LEVEL)
    if lower.level != n - 1:
        raise ValueError(f"need the level {n - 1} forbidden set, got level {lower.level}")
    levels = _paper_levels(lower)
    length = 3 * n - 1
    codes, moves = _grow(length, lower)
    return StateSpace(n=n, length=length, codes=codes, moves=moves,
                      levels=levels)


@dataclass
class TransitionTable:
    """Allowed shift-append moves at level n, in gather form.

    pred[s, t] is the state that becomes t on dropping its oldest step,
    kind s+1, or the sentinel N (the state count) when that state does
    not exist or its move into t is blocked.  Every in-edge of t carries
    the kind recorded in last_digit[t].

    `quotient` is the table every bound solves on (see the module
    docstring): min(F_n) for a history table, and the table itself when
    none is given, since the identity is a bisimulation.  Construction
    only validates; `mirrored`, `plans`, `succ` and `edge_count` are
    derived when used.  `mirrored` is True exactly when the 1<->3 swap,
    which pairs state t with state N-1-t, maps the table onto itself, as
    it does every history table.
    """

    n: int
    pred: np.ndarray        # (3, N) int32, N = empty slot
    last_digit: np.ndarray  # (N,) uint8 in 0..2
    quotient: "TransitionTable" = field(default=None, repr=False,
                                        compare=False)
    # `spectral._plan`'s sweep plans, by block size and target count
    plans: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self) -> None:
        # checked once here so the operator's gathers can skip the check
        pred = self.pred
        if not (pred.ndim == 2 and pred.shape[0] == 3
                and np.issubdtype(pred.dtype, np.integer)
                and np.iinfo(pred.dtype).max >= pred.shape[1]):
            raise ConsistencyError(
                f"pred must be a 2-D integer array with 3 rows whose type "
                f"holds the sentinel, got {pred.dtype} of shape {pred.shape}")
        n = self.n_states
        if pred.size and (pred.min() < 0 or pred.max() > n):
            raise ConsistencyError(
                f"predecessor indices must lie in [0, {n}]")
        digits = self.last_digit
        if digits.shape != (n,) or (n and (digits.min() < 0
                                           or digits.max() > 2)):
            raise ConsistencyError(
                f"last_digit must hold one digit in 0..2 for each of "
                f"the {n} states")
        if self.quotient is None:
            self.quotient = self
        elif self.quotient.n != self.n:
            raise ValueError(f"a level-{self.n} table given a level-"
                             f"{self.quotient.n} quotient")

    @cached_property
    def mirrored(self) -> bool:
        """The pairing of the module docstring, decided on first use a
        `_CHUNK` of targets at a time: slot 2 is slot 0's mirror, and slot
        1's pairs and the digits' are the same at t and N-1-t, so the
        first half of them decides."""
        n, pred, digits = self.n_states, self.pred, self.last_digit
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            first_half = 2 * lo < n
            if first_half and not np.array_equal(
                    digits[n - hi:n - lo][::-1], 2 - digits[lo:hi]):
                return False
            for s in range(2 if first_half else 1):
                src = pred[s, lo:hi]
                mirror = n - 1 - src
                mirror[src == n] = n  # the sentinel is its own mirror
                if not np.array_equal(pred[2 - s, n - hi:n - lo][::-1], mirror):
                    return False
        return True

    @property
    def n_states(self) -> int:
        return int(self.pred.shape[1])

    @property
    def succ(self) -> np.ndarray:
        """Successor form (3, N) int32, scattered from `pred` a chunk of
        targets at a time on each access: succ[d, s] is the target of
        appending step d+1 to state s, or the sentinel N when that move
        is blocked.  Two moves of one state on the same step raise
        `ConsistencyError`, since slot d holds only one of them."""
        n = self.n_states
        succ = np.full((3, n), n, dtype=np.int32)
        edges = filled = 0
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            digits = self.last_digit[lo:hi]
            targets = np.arange(lo, hi, dtype=np.int32)
            for src in self.pred[:, lo:hi]:
                real = src < n
                edges += int(real.sum())
                succ[digits[real], src[real]] = targets[real]
        for lo in range(0, n, _CHUNK):
            filled += int((succ[:, lo:lo + _CHUNK] < n).sum())
        if filled != edges:
            raise ConsistencyError(
                f"{edges - filled} moves share a source and a step")
        return succ

    @property
    def edge_count(self) -> int:
        # in chunks: the whole (3, N) mask would be 26 MB at level 7
        n = self.n_states
        return sum(int(np.count_nonzero(self.pred[:, lo:lo + _CHUNK] < n))
                   for lo in range(0, n, _CHUNK))


def build_transitions(states: StateSpace, fset: ForbiddenSet) -> TransitionTable:
    """Allowed moves into every state, checked against the level-n set,
    which must be the paper's, with min(F_n) from the same chain as the
    table's quotient (`_paper_levels`).

    The source in slot s of target t is the state coded
    s*3^(L-1) + code(t) // 3; its move appends t's newest step.  Every
    factor of the joined length-3n word shorter than 3n lies in the
    source or the target, and every level-n pattern that short is in the
    level-(n-1) set that no state contains, so the move is rejected
    exactly when the joined word is an order-n loop.  The space's moves
    already hold every other rejection; the loops are blocked in that
    array, which the table takes over, so a space gives its moves to one
    table only.
    """
    if fset.level != states.n:
        raise ValueError(f"need the level {states.n} forbidden set, got level {fset.level}")
    if states.moves is None:
        raise ValueError("the state space has already given its moves to a table")
    minimal_pred, minimal_digits, _, _ = _paper_levels(fset, states.levels)[-1]
    pred, states.moves = states.moves, None
    _block(pred, states.codes, states.length, fset)
    # in chunks: codes % 3 would be a full-length uint64 temporary; and
    # as c - 3(c // 3), since numpy divides by a constant faster than it
    # takes a remainder
    last_digit = np.empty(len(states), dtype=np.uint8)
    for lo in range(0, len(states), _CHUNK):
        chunk = states.codes[lo:lo + _CHUNK]
        rest = chunk // np.uint64(3)
        rest *= np.uint64(3)
        np.subtract(chunk, rest, out=rest)
        last_digit[lo:lo + _CHUNK] = rest
    quotient = TransitionTable(n=states.n, pred=minimal_pred,
                               last_digit=minimal_digits)
    return TransitionTable(n=states.n, pred=pred, last_digit=last_digit,
                           quotient=quotient)


def _paper_levels(fset: ForbiddenSet, below: list | None = None
                  ) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """`chain(fset.level, below)`, once `fset` is checked to be the
    paper's set at its level, or `ValueError`: its length-2 codes are 13
    and 31, its other lengths are 3k for k = 1..level, and each order k
    has as many codes as the chain's order-k loops, each a word with k
    steps of each kind that reads through min(F_{k-1}) from its start.
    Distinct such words are order-k loops, so as many of them as there
    are loops are all of them."""
    by_length = fset.codes_by_length
    levels = chain(fset.level, below)
    paper = (set(by_length) <= {2, *range(3, 3 * fset.level + 1, 3)}
             and np.array_equal(by_length.get(2, _NO_CODES), [2, 6]))
    for k in range(1, fset.level + 1):
        codes = by_length.get(3 * k, _NO_CODES)
        pred, _, start, _ = levels[k - 1]
        size = pred.shape[1]
        moves = np.full((3, size + 1), size, dtype=np.intp)
        moves[:, :size] = pred
        at = np.full(codes.shape[0], start, dtype=np.intp)
        counts = np.zeros((3, codes.shape[0]), dtype=np.intp)
        for j in range(3 * k - 1, -1, -1):  # oldest step first
            digit = (codes // POW3[j] % np.uint64(3)).astype(np.intp)
            at = moves[digit, at]
            counts[digit, np.arange(codes.shape[0])] += 1
        paper &= (codes.shape[0] == levels[k][3] and (at < size).all()
                  and (counts == k).all())
    if not paper:
        raise ValueError(f"not the paper's level-{fset.level} forbidden set")
    return levels


def build_level(n: int) -> tuple[int, int, TransitionTable]:
    """(patterns, states, table) for level n, refused outside
    1..`MAX_LEVEL` before the first chain step.  The table is min(F_n),
    built by `automaton.chain` from the level below with no pattern
    listed, and the patterns are counted per order by the same chain;
    the states, the length-(3n-1) words that avoid them, are read on the
    table from the start class, each unit-weight gather counting words
    one step longer.  int64 holds every count exactly through n = 16:
    each is at most the number of length-(3n-1) words that avoid 13 and
    31, the level-0 patterns."""
    check_level(n, 1)
    return _top(chain(n))


def build_levels(n_max: int) -> Iterator[tuple[int, int, TransitionTable]]:
    """`build_level(n)` for n = 1..n_max in turn, each level one chain
    step on the one before, taken when it is asked for; refused as
    `build_level(n_max)` is, before the first step."""
    check_level(n_max, 1)
    levels = None
    for n in range(1, n_max + 1):
        levels = chain(n, levels)
        yield _top(levels)


def _top(levels: list) -> tuple[int, int, TransitionTable]:
    """(patterns, states, table) of a chain's top level."""
    n = len(levels) - 1
    pred, last_digit, start, _ = levels[n]
    patterns = sum(loops for *_, loops in levels)
    return (patterns, _count_words(pred, start, 3 * n - 1),
            TransitionTable(n=n, pred=pred, last_digit=last_digit))


def _count_words(pred: np.ndarray, start: int, length: int) -> int:
    """The words of `length` steps read from class `start` of a table in
    the quotient's form, one int64 gather over the move slots a step; a
    move into the sentinel K ends no word."""
    words = np.ones(pred.shape[1] + 1, dtype=np.int64)
    words[-1] = 0
    for _ in range(length):
        words[:-1] = words[pred].sum(axis=0)
    return int(words[start])
