"""Small-scale oracles: exhaustive path enumeration, the history table
from its definition, and a dense growth-rate computation.

Everything here is written against the definitions from scratch: naive
full-window factor scans over explicitly enumerated words, and the
eigenvalues of a dense matrix.  None of the incremental machinery from
`patterns` or `statespace` is reused, so a bug there cannot cancel
against a bug here.  These run only at sizes where exhaustive work is
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

import numpy as np

from stavskaya.errors import ResourceLimitError
from stavskaya.patterns import Parameters
from stavskaya.statespace import TransitionTable

MAX_BRUTE_LENGTH = 16
MAX_NAIVE_LEVEL = 3
MAX_DENSE_STATES = 1000

_ROW_CHUNK = 1 << 19


@dataclass(frozen=True)
class PathSum:
    """Total weight of all valid paths of length k at a given level."""

    n: int
    k: int
    total: float


def _weights(params: Parameters) -> tuple[float, float, float]:
    # deliberately independent of Parameters.step_weights
    return (1.0 / (params.p * params.q),
            params.alpha * params.p * params.p,
            params.q / params.p)


def code_word(code: int, length: int) -> tuple[int, ...]:
    """The word of `length` step kinds whose base-3 code is `code`, the
    oldest step in the most significant digit and kind k the digit
    k - 1: the tests' one codec, written from that definition."""
    if not 0 <= code < 3**length:
        raise ValueError(f"code {code} does not fit {length} steps")
    word = []
    for _ in range(length):
        code, digit = divmod(code, 3)
        word.append(digit + 1)
    return tuple(reversed(word))


def pattern_words(fset) -> list[tuple[int, ...]]:
    """The words of a `ForbiddenSet`'s codes, in its canonical order."""
    return [code_word(int(c), m)
            for m, codes in fset.codes_by_length.items() for c in codes]


def _contains_factor(word: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    m = len(pattern)
    return any(word[s:s + m] == pattern for s in range(len(word) - m + 1))


@lru_cache(maxsize=None)
def naive_forbidden_patterns(n: int) -> tuple[tuple[int, ...], ...]:
    """The forbidden patterns at level n by direct definition: degenerate
    pair plus, order by order, every balanced loop with no smaller
    forbidden pattern inside."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n > MAX_NAIVE_LEVEL:
        raise ResourceLimitError(
            f"naive enumeration is limited to level {MAX_NAIVE_LEVEL}")
    found: list[tuple[int, ...]] = [(1, 3), (3, 1)]
    for k in range(1, n + 1):
        loops = []
        for word in product((1, 2, 3), repeat=3 * k):
            if word.count(1) != k or word.count(2) != k or word.count(3) != k:
                continue
            if any(_contains_factor(word, pat) for pat in found):
                continue
            loops.append(word)
        found.extend(loops)
    return tuple(found)


def history_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, pred, last_digit) of the level-n history table by its
    definition, from the naive patterns: the states are every
    length-(3n-1) word with no level-(n-1) factor, in code order; slot s
    of state t holds the index of (s+1)·t[:-1] if that word is a state
    and (s+1)·t has no level-n factor, else the sentinel N; t's last
    digit is its newest step."""
    length = 3 * n - 1
    lower, patterns = naive_forbidden_patterns(n - 1), naive_forbidden_patterns(n)

    def code(word):
        return sum((k - 1) * 3**(length - 1 - j) for j, k in enumerate(word))

    words = sorted((word for word in product((1, 2, 3), repeat=length)
                    if not any(_contains_factor(word, pat) for pat in lower)),
                   key=code)
    index = {word: i for i, word in enumerate(words)}
    pred = np.full((3, len(words)), len(words), dtype=np.int64)
    for t, word in enumerate(words):
        for s in range(3):
            source, joined = (s + 1,) + word[:-1], (s + 1,) + word
            if source in index and not any(_contains_factor(joined, pat)
                                           for pat in patterns):
                pred[s, t] = index[source]
    return (np.array([code(word) for word in words], dtype=np.uint64), pred,
            np.array([word[-1] - 1 for word in words], dtype=np.uint8))


def _digit_columns(k: int, lo: int, hi: int) -> np.ndarray:
    """Words lo..hi of the 3**k enumeration as step kinds, one row per
    position, oldest first: column i is word lo + i."""
    idx = np.arange(lo, hi, dtype=np.int64)
    columns = np.empty((k, hi - lo), dtype=np.int8)
    for pos in range(k):
        columns[k - 1 - pos] = (idx // 3**pos) % 3 + 1
    return columns


@lru_cache(maxsize=None)
def _valid_path_summary(n: int, k: int):
    """(codes, count-triples, multiplicities) of every length-k word with
    no level-n forbidden factor, by scanning all 3**k words."""
    if k < 0:
        raise ValueError(f"length must be >= 0, got {k}")
    if k > MAX_BRUTE_LENGTH:
        raise ResourceLimitError(
            f"exhaustive enumeration is limited to length {MAX_BRUTE_LENGTH}")
    patterns = naive_forbidden_patterns(n)
    if k == 0:
        return (np.zeros(1, dtype=np.uint64),
                np.zeros((1, 3), dtype=np.int64),
                np.ones(1, dtype=np.int64))
    codes = []
    counts = []
    for lo in range(0, 3**k, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, 3**k)
        words = _digit_columns(k, lo, hi)
        good = np.ones(hi - lo, dtype=bool)
        for pat in patterns:
            for s in range(k - len(pat) + 1):
                # the window at s spells the pattern, one step at a time
                hit = words[s] == pat[0]
                for j in range(1, len(pat)):
                    hit &= words[s + j] == pat[j]
                good &= ~hit
        words = words[:, good]
        codes.append(np.arange(lo, hi, dtype=np.uint64)[good])
        trip = np.stack([(words == d).sum(axis=0) for d in (1, 2, 3)], axis=1)
        counts.append(trip)
    codes = np.concatenate(codes)
    counts = np.concatenate(counts)
    packed = counts[:, 0] + 17 * counts[:, 1] + 289 * counts[:, 2]
    uniq, mult = np.unique(packed, return_counts=True)
    triples = np.stack([uniq % 17, (uniq // 17) % 17, uniq // 289], axis=1)
    return codes, triples, mult


def valid_path_codes(n: int, k: int) -> np.ndarray:
    """Sorted codes of all length-k words with no level-n forbidden factor."""
    return _valid_path_summary(n, k)[0]


def total_weight_bruteforce(n: int, k: int, params: Parameters) -> PathSum:
    """Sum of step-weight products over every valid length-k path.

    Words are grouped by their step-kind counts, so the exhaustive scan
    runs once per (n, k) and each parameter set is a cheap reweighting.
    """
    _, triples, mult = _valid_path_summary(n, k)
    w = np.asarray(_weights(params), dtype=np.float64)
    terms = mult * (w[0] ** triples[:, 0]) * (w[1] ** triples[:, 1]) * (w[2] ** triples[:, 2])
    return PathSum(n=n, k=k, total=float(terms.sum()))


def dense_matrix(table: TransitionTable, params: Parameters) -> np.ndarray:
    """The weighted operator as an explicit dense array (small tables only)."""
    n = table.n_states
    if n > MAX_DENSE_STATES:
        raise ResourceLimitError(
            f"dense oracle is limited to {MAX_DENSE_STATES} states, got {n}")
    w = np.asarray(_weights(params))
    mat = np.zeros((n, n), dtype=np.float64)
    targets = np.arange(n)
    # read off the gather table, so tables whose sources move twice on
    # one step, such as a quotient's, count every move
    for src in table.pred:
        real = src < n
        np.add.at(mat, (targets[real], src[real]), w[table.last_digit[real]])
    return mat


def dense_growth_rate(table: TransitionTable, params: Parameters) -> float:
    """The spectral radius of the dense operator: max |λ| over its
    eigenvalues."""
    return float(np.abs(np.linalg.eigvals(dense_matrix(table, params))).max())
