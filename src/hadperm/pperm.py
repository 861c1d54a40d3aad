"""Partial permutations of {1, ..., M} and the semigroups they generate.

A partial permutation is a bijection between two subsets of {1, ..., M},
encoded as a dense image array where entry j holds sigma(j) and 0 marks an
undefined point.  Composition follows function application: (sigma tau)(j) is
sigma(tau(j)) when both steps are defined and undefined otherwise.  The module
also provides exact counting, deterministic enumeration, semigroup closure,
the order-preserving embedding into total permutations of a larger ground
set, and the exact transpose-map identity check for the 0/1 matrix picture
u_ij(sigma) = [sigma(j) = i].

Semigroup closure is a breadth-first search of the right Cayley graph
(Froidure & Pin, "Algorithms for computing finite semigroups", 1997): every
element is a word in the generators, so multiplying each element found on the
right by each of the k distinct generators reaches the whole closure S in
|S|*k compositions.  Elements come out generators first, then in
nondecreasing word length.  A closure that grows past ``CLOSURE_LIMIT``
elements, the order of the full semigroup on DEFAULT_ENUM_LIMIT points, raises
``LimitExceeded``.

The closure and the enumeration run on plain image tuples padded with a
leading 0, so that index 0 stands for an undefined point: the product x g is
then one ``operator.itemgetter(0, *g.image)`` applied to padded x, and the
set of elements found hashes and compares tuples in C.  Each result is
wrapped as a :class:`PartialPermutation` once, at the end.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, LimitExceeded, NotCompletable

__all__ = [
    "PartialPermutation",
    "Semigroup",
    "compose",
    "invert",
    "count_all",
    "enumerate_all",
    "generate_semigroup",
    "embed_total",
    "verify_subantipode",
    "asymptotic_ratio",
    "parse_pperm",
    "format_pperm",
    "format_semigroup",
]

DEFAULT_ENUM_LIMIT = 7

# Largest n that count_all counts for: count_all(50_000) takes about 2.2 s
# and its 213,429 digits 0.7 s more to print (one core of a 2-core x86 box);
# the time grows about as n^2.2.
_COUNT_LIMIT = 50_000


class PartialPermutation:
    """A partially defined injection on {1, ..., M}.

    ``image[j-1]`` holds sigma(j) with 0 meaning undefined; nonzero values
    are pairwise distinct.  Instances are immutable and hashable, with the
    image tuple as the canonical identity.
    """

    __slots__ = ("size", "image")

    def __init__(self, image: Sequence[int]):
        img = tuple(int(v) for v in image)
        m = len(img)
        if m == 0:
            raise ValueError("size must be positive")
        seen = set()
        for v in img:
            if not 0 <= v <= m:
                raise ValueError(f"image value {v} out of range for size {m}")
            if v and v in seen:
                raise ValueError(f"image value {v} repeated; not injective")
            if v:
                seen.add(v)
        self.size = m
        self.image = img

    @classmethod
    def identity(cls, size: int) -> "PartialPermutation":
        return cls(range(1, size + 1))

    @classmethod
    def empty(cls, size: int) -> "PartialPermutation":
        """The nowhere-defined map."""
        return cls([0] * size)

    def __call__(self, j: int) -> int | None:
        """sigma(j) for 1-based j, or None where undefined."""
        if not 1 <= j <= self.size:
            raise ValueError(f"point {j} out of range")
        v = self.image[j - 1]
        return v if v else None

    @property
    def defect(self) -> int:
        """Number of undefined points."""
        return sum(1 for v in self.image if not v)

    @property
    def is_total(self) -> bool:
        return all(self.image)

    def matrix(self) -> np.ndarray:
        """0/1 matrix u with u[i-1, j-1] = 1 exactly when sigma(j) = i."""
        u = np.zeros((self.size, self.size), dtype=int)
        for j, v in enumerate(self.image):
            if v:
                u[v - 1, j] = 1
        return u

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialPermutation):
            return NotImplemented
        return self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __str__(self) -> str:
        return format_pperm(self)

    def __repr__(self) -> str:
        return f"PartialPermutation({list(self.image)!r})"


def _trusted(image: tuple[int, ...]) -> PartialPermutation:
    """Wrap an image tuple this module built and knows to be valid (nonempty,
    values in range, nonzero values distinct), skipping the validation that
    the public constructor applies to outside input."""
    sigma = object.__new__(PartialPermutation)
    sigma.size = len(image)
    sigma.image = image
    return sigma


def compose(sigma: PartialPermutation, tau: PartialPermutation) -> PartialPermutation:
    """(sigma tau)(j) = sigma(tau(j)) where both applications are defined."""
    if sigma.size != tau.size:
        raise ValueError(f"sizes differ: {sigma.size} vs {tau.size}")
    s_img = sigma.image
    return _trusted(tuple([s_img[t - 1] if t else 0 for t in tau.image]))


def invert(sigma: PartialPermutation) -> PartialPermutation:
    """The inverse bijection: sigma^{-1}(i) = j exactly when sigma(j) = i."""
    img = [0] * sigma.size
    for j, v in enumerate(sigma.image, start=1):
        if v:
            img[v - 1] = j
    return _trusted(tuple(img))


def count_all(n: int) -> int:
    """Number of partial permutations of {1, ..., n}: sum_k k! C(n,k)^2.

    Computed exactly by the recurrence a(n) = 2n a(n-1) - (n-1)^2 a(n-2)
    from a(0) = 1 (OEIS A002720); the sequence starts 1, 2, 7, 34, 209, ...
    An n above ``_COUNT_LIMIT`` is refused with :class:`LimitExceeded`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _COUNT_LIMIT:
        raise LimitExceeded(
            f"counting the partial permutations of {n} points exceeds the limit "
            f"of {_COUNT_LIMIT} points"
        )
    prev, cur = 0, 1
    for k in range(1, n + 1):
        prev, cur = cur, 2 * k * cur - (k - 1) ** 2 * prev
    return cur


CLOSURE_LIMIT = count_all(DEFAULT_ENUM_LIMIT)


def enumerate_all(
    n: int, *, limit: int = DEFAULT_ENUM_LIMIT
) -> Iterator[PartialPermutation]:
    """Yield every partial permutation of {1, ..., n} exactly once.

    Order: by number of defined points, then lexicographically on the image
    array.  Guarded by ``limit`` because the count grows super-factorially.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > limit:
        raise LimitExceeded(f"enumeration size {n} exceeds limit {limit}")
    points = range(1, n + 1)
    pad = (0,).__add__
    unpad = itemgetter(slice(1, None))
    for k in range(n + 1):
        batch = []
        for positions in itertools.combinations(points, k):
            # point j reads entry place[j] of (0,) + values, which is the 0
            # of an undefined point unless j is one of the positions; the
            # output keeps a leading 0 (place[0]) so that itemgetter returns
            # a tuple even for n = 1, and unpad drops it at once
            place = [0] * (n + 1)
            for slot, j in enumerate(positions, start=1):
                place[j] = slot
            get = itemgetter(*place)
            batch += map(unpad, map(get, map(pad, itertools.permutations(points, k))))
        batch.sort()
        for img in batch:
            yield _trusted(img)


class Semigroup:
    """A finite composition-closed set of equal-size partial permutations.

    ``elements`` keeps the deterministic closure order of
    :func:`generate_semigroup`: the generators first, then the other
    elements in nondecreasing word length.  ``generators`` records the
    deduplicated generating set.  Membership (``x in semigroup``) scans
    ``elements``.
    """

    __slots__ = ("size", "elements", "generators")

    def __init__(
        self,
        size: int,
        elements: Sequence[PartialPermutation],
        generators: Sequence[PartialPermutation],
    ):
        self.size = size
        self.elements = tuple(elements)
        self.generators = tuple(generators)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Semigroup):
            return NotImplemented
        return self.size == other.size and set(self.elements) == set(other.elements)

    __hash__ = None

    def is_group(self) -> bool:
        """True when the elements form a group of total permutations."""
        members = set(self.elements)
        if PartialPermutation.identity(self.size) not in members:
            return False
        return all(e.is_total and invert(e) in members for e in self.elements)

    def __repr__(self) -> str:
        return f"Semigroup(size={self.size}, order={len(self.elements)})"


def generate_semigroup(generators: Iterable[PartialPermutation]) -> Semigroup:
    """Smallest composition-closed set containing the generators.

    Breadth-first search of the right Cayley graph: each element, in the
    order found, is multiplied on the right by every distinct generator, and
    unseen products are appended.  Since every element is a word in the
    generators this reaches the whole closure S with |S|*k compositions for
    k distinct generators.  Element order is the generators (the caller's
    objects, in first occurrence order), then the products in nondecreasing
    word length, so
    reports are reproducible.  Raises :class:`LimitExceeded` once the
    closure holds more than ``CLOSURE_LIMIT`` elements.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    size = gens[0].size
    for g in gens:
        if g.size != size:
            raise ValueError(f"generator sizes differ: {g.size} vs {size}")
    unique_gens = list(dict.fromkeys(gens))
    # padded tuples: step(x) = x[0], x[g(1)], ..., x[g(M)] is the padded x g
    steps = [itemgetter(0, *g.image) for g in unique_gens]
    order = [(0,) + g.image for g in unique_gens]
    seen = set(order)
    for x in order:
        if len(order) > CLOSURE_LIMIT:
            raise LimitExceeded(
                f"semigroup closure exceeds {CLOSURE_LIMIT} elements"
            )
        for step in steps:
            product = step(x)
            if product not in seen:
                seen.add(product)
                order.append(product)
    found = [_trusted(p[1:]) for p in order[len(unique_gens):]]
    return Semigroup(size, unique_gens + found, unique_gens)


def embed_total(sigma: PartialPermutation, n: int) -> PartialPermutation:
    """Extend sigma to a total permutation of {1, ..., n}.

    With X = domain, Y = image, X^c = {x_1 < ... < x_L} and
    Y^c = {y_1 < ... < y_L} (complements inside {1, ..., M}), the extension
    maps x_r -> M + r, M + r -> y_r, and fixes every point above M + L.
    Restricted to points <= M the extension agrees with sigma exactly:
    sigma'(j) = i iff sigma(j) = i for i, j <= M.  Raises
    :class:`NotCompletable`, with sigma as witness, when sigma has more than
    n - M undefined points.
    """
    m = sigma.size
    undefined = [j for j, v in enumerate(sigma.image, start=1) if not v]
    missing = sorted(set(range(1, m + 1)) - set(sigma.image))
    count = len(undefined)
    if m + count > n:
        raise NotCompletable(
            f"partial permutation {sigma} has {count} undefined values, "
            f"more than N - M = {n - m}",
            witness=sigma,
        )
    img = [0] * n
    for j, v in enumerate(sigma.image):
        img[j] = v
    for r, x in enumerate(undefined, start=1):
        img[x - 1] = m + r
    for r, y in enumerate(missing, start=1):
        img[m + r - 1] = y
    for idx in range(m + count, n):
        img[idx] = idx + 1
    return PartialPermutation(img)


def verify_subantipode(size: int) -> bool:
    """Exactly verify the transpose-map identity on all partial permutations.

    For u_ij(sigma) = [sigma(j) = i] the identity reads
    ``sum_{k,l} u_ki u_kl u_jl = u_ji`` for all i, j, which in matrix form is
    ``u^T u u^T = u^T``.  Checked in exact integer arithmetic over every
    element of the given size.
    """
    for sigma in enumerate_all(size):
        u = sigma.matrix()
        if not np.array_equal(u.T @ u @ u.T, u.T):
            return False
    return True


def asymptotic_ratio(n: int) -> float:
    """count_all(n) divided by the closed-form large-n estimate
    ``n! * sqrt(exp(4*sqrt(n) - 1) / (4*pi*sqrt(n)))``, evaluated in log space
    so huge factorials stay exact."""
    if n < 1:
        raise ValueError("n must be positive")
    log_estimate = (
        math.log(math.factorial(n))
        + 0.5 * (4.0 * math.sqrt(n) - 1.0)
        - 0.5 * math.log(4.0 * math.pi * math.sqrt(n))
    )
    return math.exp(math.log(count_all(n)) - log_estimate)


# --------------------------------------------------------------------------
# Serialization: 'M: v1 v2 ... vM' with '_' for undefined points; semigroups
# as a 'semigroup M order' header followed by one element per line.

def format_pperm(sigma: PartialPermutation) -> str:
    body = " ".join(str(v) if v else "_" for v in sigma.image)
    return f"{sigma.size}: {body}"


def parse_pperm(text: str) -> PartialPermutation:
    head, _, body = text.partition(":")
    if not body:
        raise FormatError(f"expected 'M: v1 ... vM', got {text!r}")
    try:
        size = int(head.strip())
    except ValueError as exc:
        raise FormatError(f"bad size in {text!r}") from exc
    tokens = body.split()
    if len(tokens) != size:
        raise FormatError(f"expected {size} values, got {len(tokens)}")
    img = []
    for tok in tokens:
        if tok == "_":
            img.append(0)
            continue
        try:
            img.append(int(tok))
        except ValueError as exc:
            raise FormatError(f"bad value {tok!r}") from exc
    try:
        return PartialPermutation(img)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_semigroup(semigroup: Semigroup) -> str:
    lines = [f"semigroup {semigroup.size} {len(semigroup)}"]
    lines.extend(format_pperm(e) for e in semigroup)
    return "\n".join(lines) + "\n"
