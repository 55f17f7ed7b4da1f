"""Walk state space and one-step transition structure.

A state at level n is a valid history of the last L = 3n-1 steps: a
word over {1,2,3} containing no level-(n-1) forbidden pattern as a
factor.  Appending a step to a state drops its oldest step; the move is
allowed only when the extended length-3n word contains no level-n
pattern.

The states and the moves come from the move rule of `patterns`, which
also grows the loops: `_grow` carries the valid words and their moves
from length to length, starting from single steps, and a `StateSpace`
keeps the moves of its last growth step.  Every level-n pattern shorter
than 3n is in the level-(n-1) set, which no state contains, so a move
between two states is rejected exactly when its source is no state,
which the growth has already recorded, or its 3n-step word is an
order-n loop, which `build_transitions` blocks (`_block`) in the same
array before the table takes it over.

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

The gather operator M = W·Sᵀ (S the 0/1 move matrix, W the diagonal of
the targets' step weights) has the spectral radius of its successor
form B = W·S, in which state s is weighted by its own newest step:
rho(B) = rho(S·W) = rho((S·W)ᵀ) = rho(M).  B counts weighted words that
avoid the patterns, so it factors through a much smaller automaton.
`TransitionTable.quotient` is the coarsest forward bisimulation of B
(5, 13, 33, 79, 187, 442 and 1,046 classes at n = 1..7): the minimal
automaton, built from the level-n patterns alone (`automaton.minimal`).
The map from a history to the Aho–Corasick node its word leads to is a
bisimulation onto the live nodes (see `automaton`): a history and its
node have the same newest step, the move on step d exists exactly when
δ(node, d) is live, and it enters a history whose node is δ(node, d).
So the histories' coarsest bisimulation is the nodes' pulled back along
the map, with the same class labels.
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
root's class.  The CLI builds none: it solves on the quotient's table,
which, made without a forbidden set, is its own quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .automaton import minimal
from .errors import ConsistencyError, ResourceLimitError
from .patterns import _CHUNK, ForbiddenSet, _block, _grow

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

    def __len__(self) -> int:
        return int(self.codes.shape[0])


def build_state_space(n: int, lower: ForbiddenSet) -> StateSpace:
    """The level-n state space: length-(3n-1) words avoiding the level-(n-1)
    forbidden set.  Levels above `MAX_HISTORY_LEVEL` are refused before
    any word is grown."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if n > MAX_HISTORY_LEVEL:
        raise ResourceLimitError(
            f"level {n} is above {MAX_HISTORY_LEVEL}, the largest level "
            "whose history table is built")
    if lower.level != n - 1:
        raise ValueError(f"need the level {n - 1} forbidden set, got level {lower.level}")
    length = 3 * n - 1
    codes, moves = _grow(length, lower)
    return StateSpace(n=n, length=length, codes=codes, moves=moves)


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
    fset: ForbiddenSet | None = None  # the level-n set the moves avoid
    mirrored: bool = field(init=False)
    # `spectral._plan`'s sweep plans, by block size and target count
    plans: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self) -> None:
        # checked once here so the operator's gathers can skip the check
        pred = self.pred
        if not (pred.ndim == 2 and pred.shape[0] == 3
                and np.issubdtype(pred.dtype, np.integer)):
            raise ConsistencyError(
                f"pred must be a 2-D integer array with 3 rows, got "
                f"{pred.dtype} of shape {pred.shape}")
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
        if self.fset is not None and self.fset.level != self.n:
            raise ValueError(f"a level-{self.n} table given the level "
                             f"{self.fset.level} forbidden set")
        self.mirrored = self._is_mirrored()

    def _is_mirrored(self) -> bool:
        # also checked once, for the spectral solver's half-state
        # iteration, in chunks to keep its temporaries small; slot 1
        # pairs with itself and slot 2 with slot 0, so slots 0 and 1
        # (their mirrors: slots 2 and 1, reversed) cover all three.
        # The mirror of a = pred[s, t] is b = pred[2-s, N-1-t]: N-1-a for
        # a real move, N for the sentinel.  Since both lie in [0, N]
        # (checked above), a + b is N-1 exactly when a < N and b = N-1-a,
        # and 2N exactly when both are the sentinel, so one sum per slot
        # pair decides it; it is taken in a signed type that holds 2N,
        # so a wrapped sum never reads as a pair.  Reversed last digits
        # d and 2-d likewise sum to 2.  Slot 1's sums and the digits' are
        # the same at t and N-1-t, so the first half of them decides.
        n, pred, digits = self.n_states, self.pred, self.last_digit
        wide = np.promote_types(pred.dtype, np.min_scalar_type(-2 * n))
        narrow = np.promote_types(digits.dtype, np.uint8)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            first_half = 2 * lo < n
            if first_half and np.count_nonzero(np.add(
                    digits[lo:hi], digits[n - hi:n - lo][::-1], dtype=narrow) != 2):
                return False
            for s in range(2 if first_half else 1):
                pair = np.add(pred[s, lo:hi], pred[2 - s, n - hi:n - lo][::-1],
                              dtype=wide)
                if (np.count_nonzero(pair == n - 1)
                        + np.count_nonzero(pair == 2 * n) != hi - lo):
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

    @cached_property
    def quotient(self) -> "TransitionTable":
        """The quotient table, built once per table from the patterns
        alone (`automaton.minimal`): the coarsest forward bisimulation of
        the successor form (see the module docstring).  Slot d of class c
        holds the class that c moves to on step d+1, or the sentinel K
        (the class count), and class c carries the step weight of its
        members' newest step, so the quotient's gather operator is B_q.
        A table made without its forbidden set is its own quotient: the
        identity is a bisimulation, so solving on it is always sound.
        """
        if self.fset is None:
            return self
        pred, last_digit, _ = minimal(self.fset)
        return TransitionTable(n=self.n, pred=pred, last_digit=last_digit)

    @property
    def edge_count(self) -> int:
        # in chunks: the whole (3, N) mask would be 26 MB at level 7
        n = self.n_states
        return sum(int(np.count_nonzero(self.pred[:, lo:lo + _CHUNK] < n))
                   for lo in range(0, n, _CHUNK))


def build_transitions(states: StateSpace, fset: ForbiddenSet) -> TransitionTable:
    """Allowed moves into every state, checked against the level-n set.

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
    return TransitionTable(n=states.n, pred=pred, last_digit=last_digit,
                           fset=fset)
