"""Contour steps, forbidden patterns, and the move rule that grows words.

A contour path is a sequence of steps over the three-letter alphabet
{1, 2, 3}.  Certain step sequences can never occur in a valid contour:
the degenerate pair (1,3), (3,1) and every primitive balanced loop.  A
loop of order k is a length-3k sequence with exactly k steps of each
kind; it is primitive when it contains no shorter forbidden pattern as
a contiguous factor.  The forbidden set at level n collects the
degenerate pair plus all primitive loops of orders 1..n.

Words are encoded in base 3 (digits 0,1,2 for steps 1,2,3), oldest
step in the most significant digit.  A pattern is its code and
nothing else: a `ForbiddenSet` is built from, and stores, only the
sorted codes of each pattern length, and every layer reads them as
they are.  Text ("123") exists only at the output, where
`ForbiddenSet.texts` renders it from the codes a chunk at a time.

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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# The largest level any command runs, and the largest measured: on 2
# cores and 7.8 GiB, `loops --n 11` lists its patterns in 6.3 s and
# peaks at 914 MiB.  They grow about 5.7x a level, so level 12 is
# refused before any level is built.  `bound` and `table` list no
# pattern (`automaton.chain`): `bound --n 11` takes 1.6-2.3 s and
# 116 MiB.  The base-3 codes alone would reach level 13: they must fit
# in uint64 with one appended step, and 3**39 < 2**63 (word length 38,
# extended 39).
MAX_LEVEL = 11


def check_level(n: int, lowest: int, highest: int = MAX_LEVEL) -> None:
    """Refuse a level below `lowest` (`ValueError`) or above `highest`
    (`ResourceLimitError`), in one message naming the range and level.
    `highest` is a route's measured cap: `MAX_LEVEL` for every command,
    `statespace.MAX_HISTORY_LEVEL` for the history tables."""
    message = f"level must be in {lowest}..{highest}, got {n}"
    if n < lowest:
        raise ValueError(message)
    if n > highest:
        raise ResourceLimitError(f"{message}; {highest} is the largest level measured")


POW3 = 3 ** np.arange(41, dtype=np.uint64)

# Words handled per pass of every full-length sweep: the move rule's
# ranks, gathers and code copies, and in `statespace` the last
# digits, the mirror check and the scatter `succ`.  The chunk sets part
# of the build's peak RSS: at 2^18 the whole build (patterns, states,
# transitions) peaks at 52 MiB at level 6 and 241 MiB at level 7, and at
# both levels it sets the peak of a `bound` run, whose quotient and
# solve stay below it; 2^20 takes the build to 61 and 261 MiB, and
# 2^22 takes level 7 to 295 MiB (2 cores, numpy 2.4).
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
    """Weight parameters: p, q >= 1 and erasure probability alpha in [0,1],
    checked on every construction, the alpha search's steps included."""

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


class ForbiddenSet:
    """Forbidden patterns at a given level, stored once, as codes:
    `codes_by_length` maps each pattern length m >= 2 to its strictly
    increasing codes below 3^m, as uint64 (other non-negative integer
    arrays are converted; anything else raises `ValueError`).  Canonical
    order is by (length, code); text is rendered from the codes only on
    the way out, by `texts`.
    """

    def __init__(self, level: int, codes_by_length):
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        self.level = level
        self.codes_by_length = {}
        for m, codes in sorted(codes_by_length.items()):
            codes = np.asarray(codes)
            if codes.dtype.kind == "u" or (codes.dtype.kind == "i"
                                           and (codes >= 0).all()):
                codes = codes.astype(np.uint64, copy=False)
            if not (isinstance(m, numbers.Integral) and 2 <= m < POW3.shape[0]
                    and codes.ndim == 1 and codes.dtype == np.uint64
                    and (codes[1:] > codes[:-1]).all()
                    and (codes.size == 0 or codes[-1] < POW3[m])):
                raise ValueError(f"length {m}: need a length in 2..{POW3.shape[0] - 1} "
                                 "and strictly increasing codes in 0..3^length-1")
            self.codes_by_length[m] = codes

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
        return ForbiddenSet(level, {m: codes for m, codes in self.codes_by_length.items()
                                    if m == 2 or m <= 3 * level})

    def texts(self) -> Iterator[str]:
        """Each pattern's digit string ("123"), in canonical order.  A
        `_CHUNK` of codes at a time, one base-3 digit a pass, youngest
        first, is written as the bytes "1".."3" into a row per pattern,
        and the rows are read as fixed-width strings."""
        for m, codes in self.codes_by_length.items():
            for lo in range(0, codes.shape[0], _CHUNK):
                rest = codes[lo:lo + _CHUNK].copy()
                digit = np.empty_like(rest)
                rows = np.empty((rest.shape[0], m), dtype=np.uint8)
                for j in range(m - 1, -1, -1):
                    np.divmod(rest, np.uint64(3), out=(rest, digit))
                    rows[:, j] = digit
                rows += ord("1")
                yield from rows.view(f"S{m}").ravel().astype(f"U{m}").tolist()


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


def _runs(kept: np.ndarray, n: int):
    """(s, columns, keep, at) for each `_CHUNK` of each row s of the
    (3, n) mask packed in `kept` by `np.packbits` along its rows: the
    chunk's columns and mask, and the rank of its first kept pair among
    all kept pairs in (s, t) order."""
    at = 0
    for s, row in enumerate(kept):
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            bits = np.unpackbits(row[lo // 8:(hi + 7) // 8])
            keep = bits[lo % 8:lo % 8 + hi - lo].view(bool)
            yield s, slice(lo, hi), keep, at
            at += int(np.count_nonzero(keep))


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
    rank of the kept pair (s', moves[s, t]): one ranking pass and one
    gather per length, with no search.  Every full-length array is
    walked in `_CHUNK` pieces, and each is freed as soon as the next
    one is built.

    Under a budget each word carries its three step counts packed in one
    uint16, 5 bits a kind, and a pair (s, t) is kept only while t's
    count of kind s+1 is below the budget.  A count never exceeds the
    budget, at most `MAX_LEVEL` for the loops, so it never carries into
    the next kind's bits.
    """
    codes = np.arange(3, dtype=np.uint64)
    # every two-step word's prefix is its oldest step
    moves = np.repeat(np.arange(3, dtype=np.int32), 3).reshape(3, 3)
    _block(moves, codes, 1, fset)
    # one step of kind s+1 in the packed counts, and the counts of the
    # one-step words
    step = np.array([1, 1 << 5, 1 << 10], dtype=np.uint16)
    counts = step
    for cur in range(1, length):
        n = codes.shape[0]
        kept = moves < n
        if budget is not None:
            # a word with oldest step s and suffix t has one more step s
            for s in range(3):
                kept[s] &= (counts & (31 * step[s])) < budget * step[s]
        size = int(np.count_nonzero(kept))
        # packed a bit a pair for the rest of the step: as bools it would
        # add 3n bytes to the peak, which comes when the longer codes are
        # built
        kept = np.packbits(kept, axis=1)
        longer = np.empty((3, size), dtype=np.int32)
        # each longer word's prefix goes to row 0, and each kept pair's
        # move is replaced by the pair's rank (the sentinel `size` if
        # it is not kept), written through the mask rather than summed
        # along it.  The loop leaves no view of the old moves behind,
        # which would hold them while the longer codes are built
        for s, cols, keep, at in _runs(kept, n):
            prefix = moves[s, cols][keep]
            longer[0, at:at + prefix.shape[0]] = prefix
            moves[s, cols] = size
            moves[s, cols][keep] = np.arange(at, at + prefix.shape[0],
                                             dtype=np.int32)
        for lo in range(0, size, _CHUNK):
            # the prefixes are real moves, so in range: clip skips the
            # bounds pass and the buffered copy, and one intp copy
            # serves all three gathers
            prefix = longer[0, lo:lo + _CHUNK].astype(np.intp)
            for s in range(3):
                np.take(moves[s], prefix, out=longer[s, lo:lo + _CHUNK],
                        mode="clip")
        moves = longer
        grown = np.empty(size, dtype=np.uint64)
        if budget is not None:
            grown_counts = np.empty(size, dtype=np.uint16)
        for s, cols, keep, at in _runs(kept, n):
            part = codes[cols][keep]
            part += np.uint64(s) * POW3[cur]
            grown[at:at + part.shape[0]] = part
            if budget is not None:
                np.add(counts[cols][keep], step[s],
                       out=grown_counts[at:at + part.shape[0]])
        codes = grown
        if budget is not None:
            counts = grown_counts
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
    check_level(k, 1)
    if lower.level != k - 1:
        raise ValueError(f"need the level {k - 1} forbidden set, got level {lower.level}")
    return _grow(3 * k, lower, k)[0]


def build_forbidden_set(n: int) -> ForbiddenSet:
    """The forbidden set at level n: degenerate pair plus all primitive
    loops of orders 1..n, built incrementally."""
    check_level(n, 0)
    fset = ForbiddenSet(0, {2: [2, 6]})  # 13 and 31
    for k in range(1, n + 1):
        loops = enumerate_primitive_loops(k, fset)
        fset = ForbiddenSet(k, {**fset.codes_by_length, 3 * k: loops})
    return fset
