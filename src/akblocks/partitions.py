"""Partitions, multipartitions, multicharges, and residue contents.

Ground types for the whole library.  Partitions are plain tuples of
weakly decreasing positive integers (trailing zeros never stored),
multipartitions are tuples of partitions, multicharges are tuples of
integers.  The quantum characteristic ``e`` is either an integer >= 2
or ``INFINITY``; all modular arithmetic is routed through :func:`residue`
so that the infinite case is handled uniformly.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator, Sequence

INFINITY = math.inf

Partition = tuple  # tuple[int, ...]
Multipartition = tuple  # tuple[Partition, ...]
Multicharge = tuple  # tuple[int, ...]


def check_quantum_char(e):
    """Validate a quantum characteristic: an int >= 2 or INFINITY."""
    if e == INFINITY:
        return INFINITY
    if isinstance(e, int) and not isinstance(e, bool) and e >= 2:
        return e
    raise ValueError(f"quantum characteristic must be an integer >= 2 or INFINITY, got {e!r}")


def is_finite(e) -> bool:
    return e != INFINITY


def residue(x: int, e) -> int:
    """x mod e, with residues taken in {0, ..., e-1}; the identity when e is infinite."""
    if e == INFINITY:
        return x
    return x % e


def check_integers(values: Iterable[int], what: str) -> tuple:
    """The values as a tuple; anything but a plain int (bool included) is rejected."""
    t = tuple(values)
    bad = [x for x in t if type(x) is not int]
    if bad:
        raise ValueError(f"{what} entries must be integers, got {bad[0]!r}")
    return t


def check_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize to a tuple, stripping trailing zeros; reject bad shapes."""
    p = check_integers(parts, "partition")
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x <= 0 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def check_multipartition(comps: Iterable[Iterable[int]]) -> Multipartition:
    m = tuple(check_partition(c) for c in comps)
    if not m:
        raise ValueError("a multipartition needs at least one component")
    return m


def size(m: Multipartition) -> int:
    """Total number of nodes of a multipartition."""
    return sum(sum(c) for c in m)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: result[j] = #{i : p[i] >= j+1}."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def conjugate_multi(m: Multipartition) -> Multipartition:
    """Componentwise conjugate in reversed component order."""
    return tuple(conjugate(c) for c in reversed(m))


def check_permutation(sigma: Sequence[int], r: int) -> tuple:
    s = tuple(sigma)
    if sorted(s) != list(range(1, r + 1)):
        raise ValueError(f"{s} is not a permutation of 1..{r}")
    return s


def permute(m: Multipartition, sigma: Sequence[int]) -> Multipartition:
    """Reorder components: result[i] = m[sigma[i]] (1-based slots).

    The convention is pinned by a worked four-component example: sigma of
    (4, 1, 3, 2) moves component 4 to the bottom slot.
    """
    s = check_permutation(sigma, len(m))
    return tuple(m[i - 1] for i in s)


def permute_charge(charge: Multicharge, sigma: Sequence[int]) -> Multicharge:
    """Same reordering applied to a multicharge."""
    s = check_permutation(sigma, len(charge))
    return tuple(charge[i - 1] for i in s)


class DominanceRel(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def dominance_compare(a: Multipartition, b: Multipartition) -> DominanceRel:
    """Dominance order on multipartitions of equal rank and size.

    ``a`` dominates ``b`` when every cumulative sum (previous components
    plus a row prefix of the current one) is at least the matching sum
    for ``b``.  Both sums run along the components once.
    """
    if len(a) != len(b):
        raise ValueError("dominance needs multipartitions with the same number of components")
    if size(a) != size(b):
        raise ValueError("dominance needs multipartitions of the same size")
    if a == b:
        return DominanceRel.EQUAL
    ge = True
    le = True
    x = y = 0
    for pa, pb in zip(a, b):
        for j in range(max(len(pa), len(pb), 1)):
            x += pa[j] if j < len(pa) else 0
            y += pb[j] if j < len(pb) else 0
            if x < y:
                ge = False
            elif x > y:
                le = False
        if not ge and not le:
            return DominanceRel.INCOMPARABLE
    if ge:
        return DominanceRel.GREATER
    if le:
        return DominanceRel.LESS
    return DominanceRel.INCOMPARABLE


def residue_content(m: Multipartition, charge: Multicharge, e) -> dict:
    """Counts of nodes by residue: node (i, j, k) contributes j - i + s_k mod e.

    Zero counts are never stored, so equal dicts mean equal contents.
    """
    check_quantum_char(e)
    if len(m) != len(charge):
        raise ValueError("multipartition and multicharge rank mismatch")
    counts: dict = {}
    for k, comp in enumerate(m):
        s_k = charge[k]
        for i, row in enumerate(comp, start=1):
            for j in range(1, row + 1):
                f = residue(j - i + s_k, e)
                counts[f] = counts.get(f, 0) + 1
    return counts


def hook_lengths_product(p: Partition) -> int:
    conj = conjugate(p)
    prod = 1
    for i, row in enumerate(p, start=1):
        for j in range(1, row + 1):
            prod *= row - j + conj[j - 1] - i + 1
    return prod


def count_standard_tableaux(m: Multipartition) -> int:
    """Number of standard tableaux: a multinomial times per-component hook counts."""
    n = size(m)
    result = math.factorial(n)
    for comp in m:
        result //= math.factorial(sum(comp))
    for comp in m:
        if comp:
            result *= math.factorial(sum(comp)) // hook_lengths_product(comp)
    return result


def in_A(charge: Multicharge, e) -> bool:
    """0 <= s_j - s_i < e for all i < j."""
    check_quantum_char(e)
    r = len(charge)
    return all(
        0 <= charge[j] - charge[i] and (e == INFINITY or charge[j] - charge[i] < e)
        for i in range(r)
        for j in range(i + 1, r)
    )


def in_Abar(charge: Multicharge, e) -> bool:
    """0 <= s_j - s_i <= e for all i < j."""
    check_quantum_char(e)
    r = len(charge)
    return all(
        0 <= charge[j] - charge[i] and (e == INFINITY or charge[j] - charge[i] <= e)
        for i in range(r)
        for j in range(i + 1, r)
    )


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts bounded by max_part, in reverse lex order."""
    if n < 0:
        return
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for head in range(min(n, max_part), 0, -1):
        for tail in partitions_of(n - head, head):
            yield (head,) + tail


def multipartitions_of(n: int, r: int) -> Iterator[Multipartition]:
    """All r-multipartitions of n."""
    if r == 1:
        for p in partitions_of(n):
            yield (p,)
        return
    for k in range(n + 1):
        for head in partitions_of(k):
            for tail in multipartitions_of(n - k, r - 1):
                yield (head,) + tail


def count_multipartitions(n: int, r: int) -> int:
    """Number of r-multipartitions of n (0 for negative n), without
    enumerating them.

    The generating function is prod_k (1 - x^k)^(-r), whose logarithmic
    derivative gives m * a_m = r * sum_{k=1..m} sigma(k) * a_(m-k), with
    sigma(k) the sum of the divisors of k.
    """
    if n < 0:
        return 0
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for k in range(d, n + 1, d):
            sigma[k] += d
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = r * sum(sigma[k] * a[m - k] for k in range(1, m + 1)) // m
    return a[n]
