"""Contour steps, forbidden patterns, and the move rule that grows words.

A contour path is a sequence of steps over the three-letter alphabet
{1, 2, 3}.  Certain step sequences can never occur in a valid contour:
the degenerate pair (1,3), (3,1) and every primitive balanced loop.  A
loop of order k is a length-3k sequence with exactly k steps of each
kind; it is primitive when it contains no shorter forbidden pattern as
a contiguous factor.  The forbidden set at level n collects the
degenerate pair plus all primitive loops of orders 1..n.

Words are encoded in base 3 (digits 0,1,2 for steps 1,2,3), oldest
step in the most significant digit.  A `ForbiddenSet` stores only the
sorted codes of each pattern length; the tuples of step kinds and their
text forms ("123") are derived from them.

One move rule grows every word set.  A word avoids a pattern set F
exactly when its prefix and its suffix, each one step shorter, avoid F
and the word itself is not in F, since every shorter factor lies inside
one of the two.  So the valid words one step longer are the moves
between the valid words, less the patterns of that length.  `_grow`
carries each word set together with its moves from length to length,
and finds the moves with no search: the prefix of a longer word is the
move of its suffix, so the longer words' moves are read off the ranks
of the moves kept.  Only the few moves that spell a pattern are looked
up (`_block`).  This holds for any set closed under taking factors: it
grows the loops here and the states and transitions in `statespace`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# Base-3 word codes must fit in uint64, including one appended step.
# 3**39 < 2**63, so level 13 (word length 38, extended 39) is the cap.
MAX_LEVEL = 13

STEP_KINDS = (1, 2, 3)

POW3 = 3 ** np.arange(41, dtype=np.uint64)

# Words handled per pass of every full-length sweep: the move rule's
# running counts, gathers and code copies, in `statespace` the last
# digits, the mirror check and the scatter `succ`, and in `lift` the
# lift check and the class map's passes, whose chunks double from one
# state up to this width, so that most states read a predecessor this
# pass has already moved on.  The chunk sets part of the
# build's peak RSS: at 2^18 the whole build (patterns, states,
# transitions) peaks at 55 MiB at level 6 and 247 MiB at level 7, and at
# both levels it sets the peak of a `bound` run, whose quotient check
# and solve stay below it; 2^20 takes the build to 68 and 268 MiB, and
# 2^22 takes level 7 to 323 MiB (2 cores, numpy 2.4).
_CHUNK = 1 << 18

_NO_CODES = np.empty(0, dtype=np.uint64)


def _finite_real(x) -> bool:
    """Whether `x` is a finite `numbers.Real`: a Python or numpy int or
    float, a bool or a Fraction, but not a Decimal, which `math.isfinite`
    takes but which does not mix with floats in `step_weights`.  The
    float test first skips the slower ABC check in the common case."""
    return ((isinstance(x, (float, int)) or isinstance(x, numbers.Real))
            and math.isfinite(x))


@dataclass(frozen=True)
class Parameters:
    """Weight parameters: p, q >= 1 and erasure probability alpha in [0,1]."""

    p: float
    q: float
    alpha: float

    def __post_init__(self):
        if not (_finite_real(self.p) and self.p >= 1.0):
            raise ValueError(f"p must be a finite real >= 1, got {self.p}")
        if not (_finite_real(self.q) and self.q >= 1.0):
            raise ValueError(f"q must be a finite real >= 1, got {self.q}")
        if not (_finite_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def step_weights(self) -> tuple[float, float, float]:
        """Weights of step kinds 1, 2, 3: 1/(pq), alpha*p^2, q/p."""
        return (1.0 / (self.p * self.q), self.alpha * self.p**2, self.q / self.p)


def pattern_code(pattern) -> int:
    """Base-3 integer code, oldest step in the most significant digit."""
    code = 0
    for k in pattern:
        if k not in STEP_KINDS:
            raise ValueError(f"step kind must be 1, 2, or 3, got {k}")
        code = code * 3 + (k - 1)
    return code


def code_to_pattern(code: int, length: int) -> tuple[int, ...]:
    """Inverse of `pattern_code` for a word of `length` steps."""
    digits = []
    for _ in range(length):
        digits.append(int(code % 3) + 1)
        code //= 3
    return tuple(reversed(digits))


def pattern_text(pattern: tuple[int, ...]) -> str:
    return "".join(str(k) for k in pattern)


class ForbiddenSet:
    """Forbidden patterns at a given level, stored once: `codes_by_length`
    maps each pattern length to its sorted uint64 codes.  The tuples and
    texts are derived in canonical order, by (length, code).
    """

    def __init__(self, level: int, patterns):
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        grouped: dict[int, list[int]] = {}
        for p in map(tuple, patterns):
            if len(p) < 2:
                raise ValueError(f"invalid pattern {p}")
            # pattern_code checks every kind
            grouped.setdefault(len(p), []).append(pattern_code(p))
        self.level = level
        self.codes_by_length = {m: np.array(sorted(set(c)), dtype=np.uint64)
                                for m, c in sorted(grouped.items())}

    @classmethod
    def _of_codes(cls, level: int, codes_by_length) -> "ForbiddenSet":
        fset = cls(level, ())  # the codes are taken as they are
        fset.codes_by_length = dict(sorted(codes_by_length.items()))
        return fset

    @property
    def patterns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(code_to_pattern(int(c), m)
                     for m, codes in self.codes_by_length.items() for c in codes)

    def __len__(self) -> int:
        return sum(codes.shape[0] for codes in self.codes_by_length.values())

    def __repr__(self) -> str:
        return f"ForbiddenSet(level={self.level}, size={len(self)})"

    def count_of_order(self, k: int) -> int:
        """Number of primitive loops of order k (k >= 1) in this set."""
        if k < 1:
            raise ValueError("order must be >= 1")
        return len(self.codes_by_length.get(3 * k, ()))

    def restrict(self, level: int) -> "ForbiddenSet":
        """The sub-set describing a lower level (drop loops above it)."""
        if level > self.level or level < 0:
            raise ValueError(f"cannot restrict level {self.level} to {level}")
        if level == self.level:
            return self
        return ForbiddenSet._of_codes(
            level, {m: codes for m, codes in self.codes_by_length.items()
                    if m == 2 or m <= 3 * level})

    def texts(self) -> list[str]:
        return [pattern_text(p) for p in self.patterns]


def _find(sorted_codes: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, found) of each code in the sorted codes, the index
    clamped into range (0 when there are none)."""
    if sorted_codes.shape[0] == 0:
        return np.zeros(codes.shape, np.intp), np.zeros(codes.shape, bool)
    idx = np.searchsorted(sorted_codes, codes)
    np.minimum(idx, sorted_codes.shape[0] - 1, out=idx)
    return idx, sorted_codes[idx] == codes


def _block(moves: np.ndarray, codes: np.ndarray, length: int,
           fset: ForbiddenSet) -> None:
    """Block in `moves`, the moves between the sorted length-`length`
    words `codes`, each move whose joined word is a pattern of `fset`:
    the pattern's last `length` digits name the target, its first digit
    the slot."""
    patterns = fset.codes_by_length.get(length + 1, _NO_CODES)
    idx, hit = _find(codes, patterns % POW3[length])
    moves[(patterns[hit] // POW3[length]).astype(np.intp), idx[hit]] = codes.shape[0]


def _runs(kept: np.ndarray):
    """(s, columns, keep, at) for each `_CHUNK` of each row s of the
    (3, N) mask `kept`: the chunk's columns and mask, and the rank of
    its first kept pair among all kept pairs in (s, t) order."""
    at = 0
    for s, row in enumerate(kept):
        for lo in range(0, row.shape[0], _CHUNK):
            cols = slice(lo, lo + _CHUNK)
            yield s, cols, row[cols], at
            at += int(np.count_nonzero(row[cols]))


def _grow(length: int, fset: ForbiddenSet,
          budget: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(codes, moves): the sorted codes of the length-`length` words that
    avoid `fset`, with at most `budget` steps of each kind if given, and
    their moves.  moves[s, t] is the index of the word
    s*3^(length-1) + codes[t] // 3, or the sentinel N = len(codes) when
    that word is missing or the joined word s*3^length + codes[t] is a
    pattern of `fset`.

    One step of the move rule keeps the pairs (s, t) whose move is real
    (and within the budget); the longer words are those pairs in (s, t)
    order, so their codes come out sorted.  The prefix of a longer word
    s.t is the move of t, so its move on a new oldest step s' is the
    rank of the kept pair (s', moves[s, t]): one running count and one
    gather per length, with no search.  Every full-length array is
    walked in `_CHUNK` pieces, and each is freed as soon as the next
    one is built.
    """
    codes = np.arange(3, dtype=np.uint64)
    # every two-step word's prefix is its oldest step
    moves = np.repeat(np.arange(3, dtype=np.int32), 3).reshape(3, 3)
    _block(moves, codes, 1, fset)
    unit = np.eye(3, dtype=np.uint8)
    counts = unit  # steps of each kind, one row per word
    for cur in range(1, length):
        n = codes.shape[0]
        kept = moves < n
        if budget is not None:
            # a word with oldest step s and suffix t has one more step s
            kept &= (counts < budget).T
            counts = np.concatenate([counts[kept[s]] + unit[s] for s in range(3)])
        size = int(np.count_nonzero(kept))
        longer = np.empty((3, size), dtype=np.int32)
        # each longer word's prefix goes to row 0, and each kept pair's
        # move is replaced by the pair's rank (the sentinel `size` if
        # it is not kept)
        for s, cols, keep, at in _runs(kept):
            rank = np.cumsum(keep, dtype=np.int32)
            longer[0, at:at + int(rank[-1])] = moves[s, cols][keep]
            rank += np.int32(at - 1)
            moves[s, cols] = np.where(keep, rank, np.int32(size))
        for lo in range(0, size, _CHUNK):
            prefix = longer[0, lo:lo + _CHUNK].copy()
            for s in range(3):
                # the prefixes are real moves, so in range: clip skips
                # the bounds pass and the buffered copy
                np.take(moves[s], prefix, out=longer[s, lo:lo + _CHUNK],
                        mode="clip")
        moves = longer
        grown = np.empty(size, dtype=np.uint64)
        for s, cols, keep, at in _runs(kept):
            part = codes[cols][keep]
            part += np.uint64(s) * POW3[cur]
            grown[at:at + part.shape[0]] = part
        codes = grown
        _block(moves, codes, cur + 1, fset)
    return codes, moves


def enumerate_primitive_loops(k: int, lower: ForbiddenSet) -> np.ndarray:
    """Sorted codes of the primitive loops of order k: length-3k words
    with exactly k steps of each kind and no factor in `lower` (the
    level k-1 set).

    The words with at most k steps of each kind and no factor in `lower`
    are closed under taking factors, so they grow by the move rule, less
    the words over the kind budget; at length 3k only balanced ones stay.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if lower.level != k - 1:
        raise ValueError(f"need the level {k - 1} forbidden set, got level {lower.level}")
    if k > MAX_LEVEL:
        raise ResourceLimitError(f"order {k} exceeds the encoding limit {MAX_LEVEL}")
    return _grow(3 * k, lower, k)[0]


def build_forbidden_set(n: int) -> ForbiddenSet:
    """The forbidden set at level n: degenerate pair plus all primitive
    loops of orders 1..n, built incrementally."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds the encoding limit {MAX_LEVEL}")
    fset = ForbiddenSet(0, [(1, 3), (3, 1)])
    for k in range(1, n + 1):
        loops = enumerate_primitive_loops(k, fset)
        fset = ForbiddenSet._of_codes(k, {**fset.codes_by_length, 3 * k: loops})
    return fset
