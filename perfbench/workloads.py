"""The benchmark's workloads and the paper's table they are checked against.

Every pin below is copied from the paper's table of certified bounds
(levels 1..7: forbidden patterns, states, p_opt, bound), never from this
code's own output.  `NOTES.md` records why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

# level -> (forbidden patterns, states, p_opt, certified bound)
PAPER = {
    1: (4, 7, 1.464, 0.125),
    2: (6, 73, 1.44, 0.13101966),
    3: (12, 759, 1.43, 0.13358660),
    4: (36, 7859, 1.424, 0.13502855),
    5: (146, 81231, 1.42, 0.13595342),
    6: (694, 839009, 1.417, 0.13659747),
    7: (3584, 8663071, 1.415, 0.13707211),
}

BOUND_TOL = 1e-6
# the paper prints the level-1 bound to three digits only
LEVEL1_BOUND_TOL = 5e-4
P_OPT_TOL = 0.01
ALPHA_TOL = 1e-10


def bound_tol(n: int) -> float:
    return LEVEL1_BOUND_TOL if n == 1 else BOUND_TOL


@dataclass(frozen=True)
class Workload:
    """One shape of run.

    kind "bound": build `levels[0]`, then `alpha_sup` at the paper's p.
    kind "table": build every level, then `optimize_p` on each with
    `threads=os.cpu_count()`.
    kind "build": build `levels[0]`, then `power_iteration` at
    (p, 1, alpha) for `iterations` steps with a tolerance it cannot
    meet, and re-check the returned vector with `certified_upper_bound`.

    A run takes the median of `setup_samples` set-ups, each in its own
    process.
    """

    name: str
    kind: str
    levels: tuple[int, ...]
    p: float = 0.0
    alpha: float = 0.0
    iterations: int = 0
    setup_samples: int = 5


WORKLOADS = {
    "bound-n6": Workload("bound-n6", "bound", (6,)),
    "table-n3": Workload("table-n3", "table", (1, 2, 3)),
    # alpha = 0.137 lies above the level-6 bound, so the certificate is a
    # level-7 result.  From all-ones the certificate first drops below one
    # between 45 applications (1.00046) and 50 (0.99986).  Each set-up
    # takes about 9 s and 860 MiB, so a run takes two.
    "build-n7": Workload("build-n7", "build", (7,), p=1.415, alpha=0.137,
                         iterations=50, setup_samples=2),
}

# Same shapes at n <= 3, for the benchmark's own tests.  alpha = 0.132
# lies above the level-2 bound.
SMOKE = {
    "bound-n6": Workload("bound-n6", "bound", (3,)),
    "table-n3": Workload("table-n3", "table", (1, 2)),
    "build-n7": Workload("build-n7", "build", (3,), p=1.43, alpha=0.132,
                         iterations=50, setup_samples=2),
}

# Power-iteration tolerance for the "build" kind: no relative sandwich
# closes to this, so the loop always runs its full length.
UNREACHABLE_TOL = 1e-300


def check_counts(level: int, patterns: int, states: int) -> list[str]:
    want_patterns, want_states = PAPER[level][:2]
    errors = []
    if patterns != want_patterns:
        errors.append(f"n={level}: {patterns} patterns, paper has {want_patterns}")
    if states != want_states:
        errors.append(f"n={level}: {states} states, paper has {want_states}")
    return errors


def check_bound(level: int, alpha_low: float, certificate: float,
                certified: bool) -> list[str]:
    want = PAPER[level][3]
    errors = []
    if not certified or not certificate < 1.0:
        errors.append(f"n={level}: bound not certified (certificate {certificate!r})")
    if abs(alpha_low - want) > bound_tol(level):
        errors.append(f"n={level}: bound {alpha_low!r}, paper has {want} "
                      f"+/- {bound_tol(level)}")
    return errors


def check_table_row(level: int, p_opt: float, bound: float) -> list[str]:
    want_p, want = PAPER[level][2:]
    errors = []
    if abs(p_opt - want_p) > P_OPT_TOL:
        errors.append(f"n={level}: p_opt {p_opt!r}, paper has {want_p} +/- {P_OPT_TOL}")
    if abs(bound - want) > bound_tol(level):
        errors.append(f"n={level}: bound {bound!r}, paper has {want} "
                      f"+/- {bound_tol(level)}")
    return errors


def check_certificate(level: int, alpha: float, certificate: float) -> list[str]:
    errors = []
    if not certificate < 1.0:
        errors.append(f"n={level}: alpha={alpha} not certified "
                      f"(certificate {certificate!r})")
    if not alpha > PAPER[level - 1][3]:
        errors.append(f"n={level}: alpha={alpha} is not above the level-{level - 1} bound")
    return errors
