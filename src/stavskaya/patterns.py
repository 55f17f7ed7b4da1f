"""Contour steps, forbidden patterns, and primitive-loop enumeration.

A contour path is a sequence of steps over the three-letter alphabet
{1, 2, 3}.  Certain step sequences can never occur in a valid contour:
the degenerate pair (1,3), (3,1) and every primitive balanced loop.  A
loop of order k is a length-3k sequence with exactly k steps of each
kind; it is primitive when it contains no shorter forbidden pattern as
a contiguous factor.  The forbidden set at level n collects the
degenerate pair plus all primitive loops of orders 1..n.

Patterns are plain tuples of step kinds.  Their text form is the
comma-free digit string over {1,2,3}, e.g. "123".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# Base-3 word codes must fit in uint64, including one appended step.
# 3**39 < 2**63, so level 13 (word length 38, extended 39) is the cap.
MAX_LEVEL = 13

STEP_KINDS = (1, 2, 3)

POW3 = 3 ** np.arange(41, dtype=np.uint64)


@dataclass(frozen=True)
class Parameters:
    """Weight parameters: p, q >= 1 and erasure probability alpha in [0,1]."""

    p: float
    q: float
    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"p must be a finite real >= 1, got {self.p}")
        if not (np.isfinite(self.q) and self.q >= 1.0):
            raise ValueError(f"q must be a finite real >= 1, got {self.q}")
        if not (np.isfinite(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def step_weights(self) -> tuple[float, float, float]:
        """Weights of step kinds 1, 2, 3: 1/(pq), alpha*p^2, q/p."""
        return (1.0 / (self.p * self.q), self.alpha * self.p**2, self.q / self.p)


def step_weight(kind: int, params: Parameters) -> float:
    """Weight of a single step of the given kind under params."""
    if kind not in STEP_KINDS:
        raise ValueError(f"step kind must be 1, 2, or 3, got {kind}")
    return params.step_weights()[kind - 1]


def swap_pattern(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the 1<->3 kind swap elementwise (2 is fixed)."""
    return tuple(4 - k for k in pattern)


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
    """Forbidden patterns at a given level, in canonical order.

    Canonical order is by (length, base-3 code), which makes enumeration
    output deterministic.
    """

    def __init__(self, level: int, patterns):
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        pats = sorted(set(tuple(p) for p in patterns),
                      key=lambda p: (len(p), pattern_code(p)))
        # the sort key has already checked every kind
        for p in pats:
            if len(p) < 2:
                raise ValueError(f"invalid pattern {p}")
        self.level = level
        self.patterns = tuple(pats)
        grouped: dict[int, list[tuple[int, ...]]] = {}
        for p in self.patterns:
            grouped.setdefault(len(p), []).append(p)
        self.by_length: dict[int, tuple[tuple[int, ...], ...]] = {
            m: tuple(ps) for m, ps in grouped.items()
        }
        self.codes_by_length = {
            m: np.asarray([pattern_code(p) for p in ps], dtype=np.uint64)
            for m, ps in self.by_length.items()
        }

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __contains__(self, pattern) -> bool:
        pattern = tuple(pattern)
        return pattern in self.by_length.get(len(pattern), ())

    def __repr__(self) -> str:
        return f"ForbiddenSet(level={self.level}, size={len(self)})"

    def count_of_order(self, k: int) -> int:
        """Number of primitive loops of order k (k >= 1) in this set."""
        if k < 1:
            raise ValueError("order must be >= 1")
        return len(self.by_length.get(3 * k, ()))

    def restrict(self, level: int) -> "ForbiddenSet":
        """The sub-set describing a lower level (drop loops above it)."""
        if level > self.level or level < 0:
            raise ValueError(f"cannot restrict level {self.level} to {level}")
        if level == self.level:
            return self
        keep = [p for p in self.patterns if len(p) == 2 or len(p) <= 3 * level]
        return ForbiddenSet(level, keep)

    def texts(self) -> list[str]:
        return [pattern_text(p) for p in self.patterns]


def _ends_in_pattern(codes: np.ndarray, length: int,
                     fset: ForbiddenSet) -> np.ndarray:
    """Mask of the length-`length` words whose suffix is some pattern."""
    hit = np.zeros(codes.shape[0], dtype=bool)
    for m, pats in fset.codes_by_length.items():
        if m <= length:
            tail = codes % POW3[m]
            i = np.minimum(np.searchsorted(pats, tail), pats.shape[0] - 1)
            hit |= pats[i] == tail
    return hit


def enumerate_primitive_loops(k: int, lower: ForbiddenSet) -> tuple[tuple[int, ...], ...]:
    """All primitive loops of order k: length-3k sequences with exactly k
    steps of each kind and no factor in `lower` (the level k-1 set).

    Grows prefixes one step at a time; a prefix dies as soon as a kind
    budget is violated or a forbidden suffix appears, so only viable
    balanced prefixes are ever materialized.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if lower.level != k - 1:
        raise ValueError(f"need the level {k - 1} forbidden set, got level {lower.level}")
    if k > MAX_LEVEL:
        raise ResourceLimitError(f"order {k} exceeds the encoding limit {MAX_LEVEL}")

    target = 3 * k
    codes = np.array([0, 1, 2], dtype=np.uint64)
    counts = np.eye(3, dtype=np.int16)
    unit = np.eye(3, dtype=np.int16)
    for length in range(1, target):
        keep = np.empty((codes.shape[0], 3), dtype=bool)
        for d in range(3):
            ok = counts[:, d] + 1 <= k
            floor = (length + 1) - 2 * k
            if floor > 0:
                grown = counts + unit[d]
                ok &= (grown >= floor).all(axis=1)
            ok &= ~_ends_in_pattern(codes * np.uint64(3) + np.uint64(d),
                                    length + 1, lower)
            keep[:, d] = ok
        rows, cols = np.nonzero(keep)
        codes = codes[rows] * np.uint64(3) + cols.astype(np.uint64)
        counts = counts[rows] + unit[cols]
    # counts <= k per kind and total 3k force exact balance here
    return tuple(code_to_pattern(int(c), target) for c in codes)


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
        fset = ForbiddenSet(k, fset.patterns + loops)
    return fset
