"""Small-scale oracles: exhaustive path enumeration and a dense
growth-rate computation.

Everything here is written against the definitions from scratch: naive
full-window factor scans over explicitly enumerated words, and a dense
matrix power method.  None of the incremental machinery from `patterns`
or `statespace` is reused, so a bug there cannot cancel against a bug
here.  These run only at sizes where exhaustive work is cheap.
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


def _digit_rows(k: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi of the 3**k enumeration as step kinds, oldest first."""
    idx = np.arange(lo, hi, dtype=np.int64)
    rows = np.empty((hi - lo, k), dtype=np.int8)
    for pos in range(k):
        rows[:, k - 1 - pos] = (idx // 3**pos) % 3 + 1
    return rows


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
        rows = _digit_rows(k, lo, hi)
        good = np.ones(hi - lo, dtype=bool)
        for pat in patterns:
            m = len(pat)
            if m > k:
                continue
            pat_arr = np.asarray(pat, dtype=np.int8)
            for s in range(k - m + 1):
                good &= ~(rows[:, s:s + m] == pat_arr).all(axis=1)
        rows = rows[good]
        codes.append(np.arange(lo, hi, dtype=np.uint64)[good])
        trip = np.stack([(rows == d).sum(axis=1) for d in (1, 2, 3)], axis=1)
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


def dense_growth_rate(table: TransitionTable, params: Parameters,
                      doublings: int = 40) -> float:
    """||M^(2^t)||_inf^(1/2^t) after `doublings` squarings with norm
    scaling; decreases monotonically to the spectral radius from above."""
    mat = dense_matrix(table, params)
    nrm = float(np.abs(mat).sum(axis=1).max())
    if nrm == 0.0:
        return 0.0
    mat /= nrm
    # log of ||M^(2^t)||^(1/2^t): each squaring's norm enters at 2^-t
    log_rate = np.log(nrm)
    weight = 1.0
    for _ in range(doublings):
        mat = mat @ mat
        nrm = float(np.abs(mat).sum(axis=1).max())
        if nrm == 0.0:
            return 0.0
        mat /= nrm
        weight *= 0.5
        log_rate += weight * np.log(nrm)
    return float(np.exp(log_rate))
