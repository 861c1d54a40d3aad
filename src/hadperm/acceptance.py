"""End-to-end acceptance checks, runnable via ``hadperm verify`` and mirrored
one-to-one by the pytest acceptance module.

Each criterion returns a pass flag and a human-readable detail line, and
:func:`run_criterion` wraps them in a :class:`CriterionResult` with the
number and name that ``CRITERIA`` gives the criterion; nothing is cached
between criteria.  The caller's seed draws the random instances of criteria
5, 6 and 9; the joint eigenbasis of a grid has its own fixed seed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import completion, pperm, prelatin, submagic, torus
from .errors import NotCompletable

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


# --------------------------------------------------------------------------
# instance builders

def _randomized_deleted_row_fourier(n: int, rng: np.random.Generator) -> torus.TorusMatrix:
    """A completable (n-1) x n partial Hadamard matrix: randomize the Fourier
    matrix by unit row/column phases and row/column permutations, then drop a
    random row."""
    a = torus.fourier([n]).to_complex().copy()
    a = np.exp(2j * np.pi * rng.random(n))[:, None] * a
    a = a * np.exp(2j * np.pi * rng.random(n))[None, :]
    a = a[rng.permutation(n)][:, rng.permutation(n)]
    a = np.delete(a, int(rng.integers(n)), axis=0)
    return torus.TorusMatrix.from_complex(a)


def _perturb_one_entry(
    h: torus.TorusMatrix, rng: np.random.Generator, angle: float = 0.05
) -> torus.TorusMatrix:
    a = h.to_complex().copy()
    i = int(rng.integers(a.shape[0]))
    j = int(rng.integers(a.shape[1]))
    a[i, j] *= np.exp(1j * angle)
    return torus.TorusMatrix.from_complex(a)


def two_row_family(values: np.ndarray) -> torus.TorusMatrix:
    """The 2 x N matrix with an all-ones first row and the given unit values
    as second row.  Partial Hadamard exactly when the values sum to zero."""
    ones = np.ones_like(values)
    return torus.TorusMatrix.from_complex(np.vstack([ones, values]))


def _random_balanced_row(n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """2*n_pairs unit values summing to zero exactly (cancelled in pairs) and
    with the sum of squares bounded away from zero, so the induced grid does
    not commute."""
    while True:
        phases = np.exp(2j * np.pi * rng.random(n_pairs))
        values = np.concatenate([phases, -phases])
        if abs((values**2).sum()) > 0.5:
            return values


def m2_family_matrix() -> torus.TorusMatrix:
    """The exact instance [[1,1,1,1],[1,i,-1,-i]]; its second row sums to
    zero and has square-sum zero, so the induced grid commutes."""
    quarter = Fraction(1, 4)
    return torus.TorusMatrix.from_phases(
        [[0, 0, 0, 0], [0, quarter, 2 * quarter, 3 * quarter]]
    )


def pq_counterexample_grid() -> submagic.ProjGrid:
    """The 2 x 2 grid with p = q = Proj(e_1) in C^2 and r = s = 0: completable
    to 4 x 4 but not to 3 x 3."""
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    return submagic.ProjGrid([[p, z], [z, p]])


# --------------------------------------------------------------------------
# criteria

def criterion_counting(seed: int = 0) -> tuple[bool, str]:
    """count_all returns 1, 2, 7, 34, 209, 1546, 13327 for N = 0..6 and
    matches full enumeration for N <= 5."""
    expected = {0: 1, 1: 2, 2: 7, 3: 34, 4: 209, 5: 1546, 6: 13327}
    counts_ok = all(pperm.count_all(n) == v for n, v in expected.items())
    enum_ok = all(
        sum(1 for _ in pperm.enumerate_all(n)) == expected[n] for n in range(1, 6)
    )
    detail = (
        f"counts {[pperm.count_all(n) for n in range(7)]}, "
        f"enumeration matches for N<=5: {enum_ok}"
    )
    return counts_ok and enum_ok, detail


def criterion_asymptotics(seed: int = 0) -> tuple[bool, str]:
    """The count/estimate ratio lies in [0.95, 1.05] at N = 100 and |ratio-1|
    decreases over N in {25, 50, 100}, in under a second.

    Known to fail as stated: the ratio converges like ~0.648/sqrt(N) and is
    1.0648 at N = 100, entering the stated bracket only near N = 169.  The
    computation is reported honestly.
    """
    start = time.perf_counter()
    ratios = {n: pperm.asymptotic_ratio(n) for n in (25, 50, 100)}
    elapsed = time.perf_counter() - start
    in_bracket = 0.95 <= ratios[100] <= 1.05
    decreasing = abs(ratios[25] - 1) > abs(ratios[50] - 1) > abs(ratios[100] - 1)
    fast = elapsed < 1.0
    detail = (
        f"ratios {{25: {ratios[25]:.6f}, 50: {ratios[50]:.6f}, 100: {ratios[100]:.6f}}}, "
        f"bracket [0.95,1.05] at N=100: {in_bracket}, monotone: {decreasing}, "
        f"under 1 s: {fast}"
    )
    return in_bracket and decreasing and fast, detail


def criterion_fourier_pipeline(seed: int = 0) -> tuple[bool, str]:
    """For N = 2..6 the Fourier grid is submagic, magic and commuting within
    1e-10; its pre-Latin square carries the cyclic structure (first-seen
    labels give L[i][j] = ((j-i) mod N) + 1, an alphabet relabeling of
    ((i-j) mod N) + 1); and the square's semigroup is a group of order N."""
    tol = 1e-10
    for n in range(2, 7):
        grid = submagic.grid_from_hadamard(torus.fourier([n]), tol=tol)
        report = submagic.check_grid(grid, tol)
        if not (report.submagic and report.magic and report.commuting):
            return False, f"N={n}: grid flags {report.worst_violations}"
        square = submagic.pre_latin_from_rank_one(grid, n, tol=tol)
        derived = tuple(
            tuple(((j - i) % n) + 1 for j in range(n)) for i in range(n)
        )
        if square.entries != derived:
            return False, (
                f"N={n}: extracted square {square.entries} != derived {derived}"
            )
        stated = tuple(
            tuple(((i - j) % n) + 1 for j in range(n)) for i in range(n)
        )
        if not _relabel_equivalent(square.entries, stated, n):
            return False, (
                f"N={n}: extracted square is not a relabeling of the cyclic form"
            )
        group = prelatin.semigroup_of(square)
        if not (len(group) == n and group.is_group()):
            return False, (
                f"N={n}: semigroup order {len(group)}, group={group.is_group()}"
            )
    return True, (
        "N=2..6: grids magic+commuting at 1e-10, cyclic squares "
        "(relabel-equivalent to the stated form), semigroups cyclic of order N"
    )


def _relabel_equivalent(a, b, alphabet: int) -> bool:
    """True when some bijection of {1..alphabet} maps square a onto square b."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for row_a, row_b in zip(a, b):
        for va, vb in zip(row_a, row_b):
            if forward.setdefault(va, vb) != vb or backward.setdefault(vb, va) != va:
                return False
    return True


def criterion_deleted_row_completion(seed: int = 0) -> tuple[bool, str]:
    """For N = 3..8, dropping the last Fourier row and completing recovers a
    Hadamard matrix (H H* = N within 1e-8) whose appended row is a single unit
    phase times the deleted row (entrywise phase deviation < 1e-8)."""
    for n in range(3, 9):
        full = torus.fourier([n]).to_complex()
        truncated = torus.TorusMatrix.from_complex(full[:-1])
        completed = completion.complete_row(truncated, tol=1e-8).to_complex()
        gram_defect = float(np.abs(completed @ completed.conj().T - n * np.eye(n)).max())
        if gram_defect > 1e-8:
            return False, f"N={n}: ||HH* - N|| = {gram_defect:.3e}"
        ratio = completed[-1] / full[-1]
        phase_dev = float(np.abs(np.angle(ratio / ratio[0])).max())
        unit_dev = float(np.abs(np.abs(ratio) - 1.0).max())
        if phase_dev > 1e-8 or unit_dev > 1e-8:
            return False, (
                f"N={n}: appended row is not a unit multiple of the deleted row "
                f"(phase dev {phase_dev:.3e}, modulus dev {unit_dev:.3e})"
            )
    return True, (
        "N=3..8: completions Hadamard within 1e-8, appended row a unit phase "
        "times the deleted row"
    )


def criterion_concordance(seed: int = 0) -> tuple[bool, str]:
    """On 100 completable and 100 perturbed instances per N in {3..6}, the
    modulus, Gram, weighted and border-completion tests agree: positives all
    accepted and perturbed negatives all rejected at tol 1e-8."""
    tol = 1e-8
    rng = np.random.default_rng(seed)
    checked = 0
    for n in (3, 4, 5, 6):
        for trial in range(100):
            positive = _randomized_deleted_row_fourier(n, rng)
            negative = _perturb_one_entry(positive, rng)
            for instance, expected in ((positive, True), (negative, False)):
                votes = completion.criteria(instance, tol).votes
                checked += 1
                if any(v != expected for v in votes.values()):
                    return False, (
                        f"N={n} trial {trial} expected {expected}, votes {votes} "
                        f"(evidence on the open equivalence question)"
                    )
    return True, (
        f"{checked} instances: modulus/gram/weighted/border tests unanimous, "
        "positives accepted, perturbed negatives rejected"
    )


def criterion_two_by_two(seed: int = 0) -> tuple[bool, str]:
    """200 random 2x2 grids per dimension d in {2,4,8} complete to 4x4 magic
    grids within 1e-9, extending the input bit-exactly; the p = q = Proj(e_1)
    instance fails 3x3 completion and the trace bound with lambda_min = 0."""
    tol = 1e-9
    for d in (2, 4, 8):
        for k in range(200):
            grid = submagic.random_grid(2, d, seed=seed + 1000 * d + k)
            full = submagic.complete_2x2_to_4x4(grid, tol=tol)
            report = submagic.check_grid(full, tol)
            if not report.magic:
                return False, (
                    f"d={d} seed-offset {k}: completion not magic, "
                    f"{report.worst_violations}"
                )
            if not np.array_equal(full.blocks[:2, :2], grid.blocks):
                return False, (
                    f"d={d} seed-offset {k}: completion does not extend bit-exactly"
                )
    bad = pq_counterexample_grid()
    try:
        submagic.complete_last(bad, tol=tol)
        return False, "p=q instance unexpectedly completed to 3x3"
    except NotCompletable:
        pass
    bound = submagic.sum_bound_check(bad, 3, tol=tol)
    if bound.passes or abs(bound.lambda_min) > 1e-12:
        return False, (
            f"p=q instance: trace bound passes={bound.passes}, "
            f"lambda_min={bound.lambda_min:.3e}"
        )
    return True, (
        "600 random grids completed magic at 1e-9 with bit-exact corners; "
        f"p=q instance rejected (lambda_min={bound.lambda_min:.1e})"
    )


def criterion_subantipode(seed: int = 0) -> tuple[bool, str]:
    """The transpose-map identity holds exactly for all partial permutations
    of sizes 1 through 4."""
    for m in (1, 2, 3, 4):
        if not pperm.verify_subantipode(m):
            return False, f"identity fails at M={m}"
    return True, "u^T u u^T = u^T exactly over all 2 + 7 + 34 + 209 elements"


def criterion_tensor_semigroups(seed: int = 0) -> tuple[bool, str]:
    """The semigroup of a tensor-product Fourier grid has order equal to the
    product of the factor orders, for all factors up to 4."""
    factor_orders = {}
    for n in (2, 3, 4):
        grid = submagic.grid_from_hadamard(torus.fourier([n]))
        points = submagic.classical_points(grid)
        factor_orders[n] = len(pperm.generate_semigroup(list(points)))
    if any(factor_orders[n] != n for n in factor_orders):
        return False, f"factor orders {factor_orders}"
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            h = torus.tensor(torus.fourier([m]), torus.fourier([n]))
            grid = submagic.grid_from_hadamard(h)
            points = submagic.classical_points(grid)
            order = len(pperm.generate_semigroup(list(points)))
            if order != m * n:
                return False, (
                    f"F_{m} (x) F_{n}: semigroup order {order}, expected {m * n}"
                )
    return True, (
        "F_m (x) F_n semigroup orders equal m*n for all m, n in {2,3,4} "
        "(F_2 (x) F_2 gives 4 = 2*2)"
    )


def criterion_two_row_family(seed: int = 0) -> tuple[bool, str]:
    """The exact two-row instance with second row (1, i, -1, -i) gives a
    commuting grid with square [[1,2],[3,1]] and a semigroup of order 6; a
    random balanced second row with nonzero square-sum gives a non-commuting
    grid."""
    grid = submagic.grid_from_hadamard(m2_family_matrix())
    report = submagic.check_grid(grid)
    if not report.commuting:
        return False, "exact family instance not commuting"
    square = submagic.pre_latin_from_rank_one(grid, 4)
    if square.entries != ((1, 2), (3, 1)):
        return False, f"extracted square {square.entries}"
    group = prelatin.semigroup_of(square)
    if len(group) != 6:
        return False, f"semigroup order {len(group)}, expected 6"
    rng = np.random.default_rng(seed)
    violator = two_row_family(_random_balanced_row(2, rng))
    bad_report = submagic.check_grid(submagic.grid_from_hadamard(violator))
    if bad_report.commuting:
        return False, "random row without the square-sum condition still commutes"
    return True, (
        f"square ((1,2),(3,1)), semigroup order 6; violating row has "
        f"commutator {bad_report.worst_violations['commutator']:.3e}"
    )


def criterion_embedding_round_trip(seed: int = 0) -> tuple[bool, str]:
    """Completing the two-row family grid to 4 x 4 yields a commuting magic
    grid whose classical points are exactly the total-permutation embeddings
    of the input's classical points."""
    grid = submagic.grid_from_hadamard(m2_family_matrix())
    points = submagic.classical_points(grid)
    full = submagic.complete_commuting(grid, 4)
    report = submagic.check_grid(full)
    if not (report.magic and report.commuting):
        return False, f"completion flags {report.worst_violations}"
    expected = Counter()
    for sigma, mult in points.items():
        expected[pperm.embed_total(sigma, 4)] += mult
    actual = submagic.classical_points(full)
    if actual != expected:
        return False, (
            f"points {sorted(map(str, actual))} != embedded {sorted(map(str, expected))}"
        )
    return True, (
        "4x4 completion commuting+magic; classical points are exactly the "
        "embedded input points"
    )


CRITERIA: list[tuple[str, Callable[[int], tuple[bool, str]]]] = [
    ("counting", criterion_counting),
    ("asymptotics", criterion_asymptotics),
    ("fourier pipeline", criterion_fourier_pipeline),
    ("deleted-row completion", criterion_deleted_row_completion),
    ("criteria concordance", criterion_concordance),
    ("2x2 to 4x4", criterion_two_by_two),
    ("subantipode", criterion_subantipode),
    ("tensor semigroups", criterion_tensor_semigroups),
    ("two-row family", criterion_two_row_family),
    ("embedding round-trip", criterion_embedding_round_trip),
]


def run_criterion(number: int, seed: int = 0) -> CriterionResult:
    if not 1 <= number <= len(CRITERIA):
        raise ValueError(f"criterion number {number} out of range")
    name, fn = CRITERIA[number - 1]
    passed, detail = fn(seed)
    return CriterionResult(number, name, bool(passed), detail)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [run_criterion(number, seed) for number in range(1, len(CRITERIA) + 1)]
