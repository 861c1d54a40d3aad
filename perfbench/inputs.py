"""Seeded benchmark inputs whose answers are known by construction.

Nothing here imports hadperm: every expected answer comes from the structure
the generator builds in, so a wrong library result cannot hide in it.

Each workload has a fixed list of input shapes (sizes and families), and the
seed only randomizes within a shape: row and column order, column phases,
coset choice, free angles, symbol labels.  The work per pass is therefore the
same for every seed, which keeps run-to-run spread small while the inputs
still differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GRID, CRITERIA, SEMIGROUP = "grid", "criteria", "semigroup"


@dataclass(frozen=True)
class Instance:
    """One benchmark input: ``kind`` names the op chain that reads ``text``
    and ``expect`` holds the known answer."""

    name: str
    kind: str
    text: str
    expect: dict


# --------------------------------------------------------------------------
# tokens and documents


def _phase_token(phase: Fraction) -> str:
    return f"{phase.numerator}/{phase.denominator}"


def _float_token(z: complex) -> str:
    return f"({z.real!r},{z.imag!r})"


def phm_text(rows: list[list[str]]) -> str:
    lines = ["phm v1", f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_tokens(text: str) -> np.ndarray:
    """Complex array of a ``.phm`` document, read independently of hadperm."""
    body = [ln.split() for ln in text.splitlines()[2:] if ln.strip()]
    short = {"1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j}
    out = np.empty((len(body), len(body[0])), dtype=complex)
    for i, row in enumerate(body):
        for j, tok in enumerate(row):
            if tok in short:
                out[i, j] = short[tok]
            elif tok.startswith("("):
                re_part, im_part = tok[1:-1].split(",")
                out[i, j] = complex(float(re_part), float(im_part))
            else:
                p, q = tok.split("/")
                out[i, j] = np.exp(2j * np.pi * int(p) / int(q))
    return out


# --------------------------------------------------------------------------
# partial permutations as image tuples (1-based images, 0 = undefined)


def compose_images(s: tuple, t: tuple) -> tuple:
    """(s t)(j) = s(t(j))."""
    return tuple(s[x - 1] if x else 0 for x in t)


def closure(generators) -> set:
    """Semigroup generated by image tuples: right Cayley graph search."""
    gens = list(dict.fromkeys(generators))
    seen = set(gens)
    queue = list(gens)
    for x in queue:
        for g in gens:
            y = compose_images(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def square_generators(square, alphabet: int) -> list[tuple]:
    """sigma_x(j) = i exactly when square[i][j] = x, for x = 1..alphabet."""
    m = len(square)
    gens = []
    for x in range(1, alphabet + 1):
        img = [0] * m
        for i in range(m):
            for j in range(m):
                if square[i][j] == x:
                    img[j] = i + 1
        gens.append(tuple(img))
    return gens


def count_partial_permutations(n: int) -> int:
    """OEIS A002720 by its recurrence a(n) = 2n a(n-1) - (n-1)^2 a(n-2)."""
    a, b = 1, 2
    if n == 0:
        return a
    for k in range(2, n + 1):
        a, b = b, 2 * k * b - (k - 1) ** 2 * a
    return b


# --------------------------------------------------------------------------
# grid workload: character tables of Z_n1 x ... x Z_nk


def _group(orders) -> list[tuple]:
    return list(itertools.product(*(range(n) for n in orders)))


def _pairing(g, h, orders) -> Fraction:
    return sum((Fraction(a * b, n) for a, b, n in zip(g, h, orders)), Fraction(0)) % 1


def _minus(g, h, orders) -> tuple:
    return tuple((a - b) % n for a, b, n in zip(g, h, orders))


def _plus(g, h, orders) -> tuple:
    return tuple((a + b) % n for a, b, n in zip(g, h, orders))


def _label(orders) -> str:
    return "x".join(f"F{n}" for n in orders)


def _column_setup(n: int, rng: np.random.Generator):
    return rng.permutation(n), [Fraction(int(k), 24) for k in rng.integers(0, 24, n)]


def commuting_instance(orders, step, rng: np.random.Generator) -> Instance:
    """Rows g0 + H of the character table of G = Z_n1 x ... x Z_nk, where
    H = step_1 Z_n1 x ... x step_k Z_nk; all steps 1 gives the full table.

    Block (i, j) of the grid projects onto the character g_i - g_j, so the
    grid commutes, its pre-Latin square is the difference table, and the
    point of character k maps j to i exactly when g_i = g_j + k.
    """
    orders = tuple(orders)
    group = _group(orders)
    n = len(group)
    subgroup = [g for g in group if all(a % s == 0 for a, s in zip(g, step))]
    g0 = group[int(rng.integers(n))]
    rows = [_plus(g0, h, orders) for h in subgroup]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    m = len(rows)
    perm, phases = _column_setup(n, rng)
    cols = [group[k] for k in perm]
    text = phm_text(
        [[_phase_token((_pairing(g, h, orders) + c) % 1) for h, c in zip(cols, phases)]
         for g in rows]
    )
    index = {g: k + 1 for k, g in enumerate(group)}
    square = tuple(tuple(index[_minus(gi, gj, orders)] for gj in rows) for gi in rows)
    position = {g: i + 1 for i, g in enumerate(rows)}
    points: dict[tuple, int] = {}
    for k in group:
        img = tuple(position.get(_plus(gj, k, orders), 0) for gj in rows)
        points[img] = points.get(img, 0) + 1
    # full table: the regular representation of G; coset: the translations
    # by H plus the empty map of every symbol missing from the square
    order = n if m == n else m + 1
    kind = "full" if m == n else f"coset{m}"
    return Instance(
        name=f"grid:{_label(orders)}:{kind}",
        kind=GRID,
        text=text,
        expect={
            "rows": m, "cols": n, "submagic": True, "magic": m == n,
            "commuting": True, "square": square, "order": order,
            "points": sorted(points.items()),
        },
    )


def _f4_affine(a: float) -> np.ndarray:
    """The affine family F_4^(1)(a) of Tadej and Zyczkowski."""
    u = 1j * np.exp(1j * a)
    return np.array(
        [[1, 1, 1, 1], [1, u, -1, -u], [1, -1, 1, -1], [1, -u, -1, u]], dtype=complex
    )


def _balanced_two_row(pairs: int, rng: np.random.Generator) -> np.ndarray:
    """All-ones row over a row of 2*pairs unit values that cancel in pairs.
    The square-sum is kept in [1, N-1], so the quotient of the second row and
    its conjugate overlap by c in [1/N, 1 - 1/N] and the grid cannot commute."""
    n = 2 * pairs
    while True:
        half = np.exp(2j * np.pi * rng.random(pairs))
        row = np.concatenate([half, -half])
        if 1.0 <= abs((row**2).sum()) <= n - 1.0:
            return np.vstack([np.ones(n), row])


def noncommuting_instance(family: str, size: int, k: int, rng) -> Instance:
    """``family`` 'F4a' is F_4(a) (x) F_k with a drawn from [pi/8, 3pi/8],
    where the largest commutator is |sin 2a|/2 >= 0.35; 'bal' is a balanced
    2 x size row pair (x) F_k.  Either way the grid is submagic, magic only
    when square, and far from commuting at any tolerance below 1e-3."""
    if family == "F4a":
        base = _f4_affine(float(rng.uniform(np.pi / 8, 3 * np.pi / 8)))
    else:
        base = _balanced_two_row(size // 2, rng)
    fk = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
    a = np.kron(base, fk)
    m, n = a.shape
    perm, phases = _column_setup(n, rng)
    a = a[rng.permutation(m)][:, perm] * np.exp(2j * np.pi * np.array(phases, dtype=float))
    return Instance(
        name=f"grid:{family}{size}xF{k}",
        kind=GRID,
        text=phm_text([[_float_token(complex(z)) for z in row] for row in a]),
        expect={"rows": m, "cols": n, "submagic": True, "magic": m == n,
                "commuting": False},
    )


# (orders, step): steps of 1 give the full table, larger steps a coset of a
# subgroup.  The five full tables of order 16 cost about the same and make up
# the top 18 % of the pool, so the 90th percentile falls near the middle of
# that group rather than on the jump between two single instances.
_GRID_COMMUTING = [
    ((4,), (1,)), ((6,), (1,)), ((8,), (1,)), ((2, 4), (1, 1)), ((9,), (1,)),
    ((10,), (1,)), ((12,), (1,)), ((3, 4), (1, 1)),
    ((16,), (1,)), ((2, 8), (1, 1)), ((4, 4), (1, 1)), ((2, 2, 4), (1, 1, 1)),
    ((2, 2, 2, 2), (1, 1, 1, 1)),
    ((8,), (2,)), ((2, 4), (1, 2)), ((12,), (2,)), ((3, 4), (1, 2)),
    ((2, 6), (1, 3)), ((16,), (2,)),
]
# (family, size of the base matrix's columns, k)
_GRID_NONCOMMUTING = [
    ("F4a", 4, 1), ("F4a", 4, 2), ("F4a", 4, 3), ("F4a", 4, 4),
    ("bal", 4, 2), ("bal", 6, 2), ("bal", 4, 3), ("bal", 8, 2), ("bal", 4, 4),
]


def grid_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 1])
    pool = [commuting_instance(o, s, rng) for o, s in _GRID_COMMUTING]
    pool += [noncommuting_instance(f, s, k, rng) for f, s, k in _GRID_NONCOMMUTING]
    return [pool[k] for k in rng.permutation(len(pool))]


# --------------------------------------------------------------------------
# criteria workload: deleted-row Fourier matrices and perturbations


def criteria_instance(n: int, positive: bool, rng: np.random.Generator) -> Instance:
    """F_N with random row and column phases and orders, one row dropped.
    The negative twin turns one entry by 0.2 rad: the minor moduli, the Gram
    data and the border corner then all miss by far more than any tolerance,
    while the rows stay within the loose 0.1 N orthogonality of the border
    test's grid."""
    a = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    a = np.exp(2j * np.pi * rng.random(n))[:, None] * a * np.exp(2j * np.pi * rng.random(n))
    a = a[rng.permutation(n)][:, rng.permutation(n)]
    a = np.delete(a, int(rng.integers(n)), axis=0)
    if not positive:
        i, j = int(rng.integers(n - 1)), int(rng.integers(n))
        a[i, j] *= np.exp(1j * 0.2 * rng.choice([-1.0, 1.0]))
    return Instance(
        name=f"criteria:F{n}:{'pos' if positive else 'neg'}",
        kind=CRITERIA,
        text=phm_text([[_float_token(complex(z)) for z in row] for row in a]),
        expect={"n": n, "completable": positive},
    )


def criteria_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 2])
    pool = [criteria_instance(n, pos, rng) for n in range(4, 25) for pos in (True, False)]
    return [pool[k] for k in rng.permutation(len(pool))]


# --------------------------------------------------------------------------
# semigroup workload


# 4 x 4 pre-Latin squares over 5 or 6 symbols and their semigroup orders.
# The three largest cost about the same and make up the top 19 % of the
# pool, so the 90th percentile falls inside that group.
_SQUARES = [
    (6, ((2, 1, 6, 4), (4, 5, 2, 6), (1, 2, 5, 3), (6, 4, 3, 5)), 70),
    (5, ((1, 5, 2, 3), (3, 1, 5, 2), (2, 4, 1, 5), (4, 2, 3, 1)), 75),
    (6, ((2, 4, 6, 1), (1, 6, 5, 3), (6, 3, 2, 5), (5, 1, 3, 4)), 90),
    (5, ((3, 4, 5, 2), (1, 5, 4, 3), (4, 3, 2, 5), (5, 1, 3, 4)), 101),
    (6, ((5, 3, 1, 4), (3, 2, 6, 1), (1, 5, 4, 6), (4, 6, 3, 5)), 110),
    (5, ((3, 1, 2, 4), (5, 3, 4, 1), (1, 2, 3, 5), (2, 4, 5, 3)), 122),
    (6, ((1, 3, 5, 4), (5, 4, 1, 3), (2, 5, 3, 6), (6, 1, 2, 5)), 140),
    (5, ((2, 3, 1, 4), (1, 2, 4, 5), (3, 1, 5, 2), (4, 5, 2, 3)), 151),
    (6, ((6, 4, 2, 5), (2, 5, 6, 4), (5, 2, 4, 3), (4, 3, 1, 6)), 188),
    (5, ((4, 1, 2, 5), (2, 5, 1, 3), (3, 4, 5, 2), (1, 2, 3, 4)), 189),
    (6, ((3, 6, 1, 5), (4, 1, 6, 2), (6, 4, 5, 1), (1, 3, 4, 6)), 197),
]
# count_all(COUNT_N): a fixed n, so that the work per pass stays seed-free
COUNT_N = 350
# generator sets in I_4 (image tuples) and the orders they generate
_GENERATOR_SETS = [
    (((4, 0, 1, 2), (2, 3, 0, 1)), 50),
    (((1, 2, 3, 4), (3, 4, 1, 0), (4, 2, 1, 3)), 61),
    (((2, 4, 3, 0), (3, 1, 2, 0), (0, 1, 4, 2)), 87),
]


def _conjugate(img: tuple, pi: list[int]) -> tuple:
    """pi img pi^-1 for a 0-based permutation pi of the points."""
    out = [0] * len(img)
    for j, v in enumerate(img):
        out[pi[j]] = pi[v - 1] + 1 if v else 0
    return tuple(out)


def square_instance(alphabet, square, order, rng) -> Instance:
    """Relabel the symbols, conjugate rows and columns by one permutation and
    maybe transpose: the semigroup is isomorphic, so its order is known."""
    m = len(square)
    symbols = [0] + [int(v) + 1 for v in rng.permutation(alphabet)]
    pi = [int(v) for v in rng.permutation(m)]
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            out[pi[i]][pi[j]] = symbols[square[i][j]]
    if rng.random() < 0.5:
        out = [list(col) for col in zip(*out)]
    lines = ["pls v1", f"{m} {alphabet}"] + [" ".join(map(str, row)) for row in out]
    return Instance(
        name=f"semigroup:pls{order}",
        kind="pls",
        text="\n".join(lines) + "\n",
        expect={"order": order, "generators": square_generators(out, alphabet)},
    )


def generators_instance(gens, order, rng) -> Instance:
    pi = [int(v) for v in rng.permutation(len(gens[0]))]
    images = [_conjugate(g, pi) for g in gens]
    images = [images[k] for k in rng.permutation(len(images))]
    lines = [f"{len(g)}: " + " ".join(str(v) if v else "_" for v in g) for g in images]
    return Instance(
        name=f"semigroup:gens{order}",
        kind="gens",
        text="\n".join(lines) + "\n",
        expect={"order": order, "generators": images},
    )


def semigroup_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 3])
    pool = [square_instance(a, s, o, rng) for a, s, o in _SQUARES]
    pool += [generators_instance(g, o, rng) for g, o in _GENERATOR_SETS]
    pool.append(Instance(f"semigroup:count{COUNT_N}", "count", str(COUNT_N),
                         {"count": count_partial_permutations(COUNT_N)}))
    pool.append(Instance("semigroup:enumerate6", "enumerate", "6",
                         {"count": count_partial_permutations(6)}))
    return [pool[k] for k in rng.permutation(len(pool))]


POOLS = {GRID: grid_pool, CRITERIA: criteria_pool, SEMIGROUP: semigroup_pool}


def pool(workload: str, seed: int) -> list[Instance]:
    return POOLS[workload](seed)


# The main chain of each workload, and the size of one of its inputs as known
# by construction: columns, then rows, commuting first; N, positive first;
# semigroup order.
_MAIN_KIND = {GRID: GRID, CRITERIA: CRITERIA, SEMIGROUP: "pls"}
_SIZE = {
    GRID: lambda e: (e["cols"], e["rows"], not e["commuting"]),
    CRITERIA: lambda e: (e["n"], not e["completable"]),
    SEMIGROUP: lambda e: (e["order"],),
}


def smallest(workload: str, seed: int) -> Instance:
    """The smallest input of the workload's main chain: the warm-up op.
    Which shape it is does not depend on the seed."""
    main = [inst for inst in pool(workload, seed) if inst.kind == _MAIN_KIND[workload]]
    return min(main, key=lambda inst: (_SIZE[workload](inst.expect), inst.name))
