"""Partitions, multipartitions, multicharges, and residue contents.

Ground types for the whole library.  Partitions are plain tuples of
weakly decreasing positive integers (trailing zeros never stored),
multipartitions are tuples of partitions, multicharges are tuples of
integers.  The quantum characteristic ``e`` is either an integer >= 2
or ``INFINITY``; modular arithmetic (bar the run ends folded with
``divmod`` in :func:`residue_content`) goes through :func:`residue` for
uniformity.  The budget gate and the base of the plain value classes
live here too, so every module, the command line's included, has them
without loading another.
"""

from __future__ import annotations

import enum
import math
from itertools import accumulate, chain, count, islice, repeat
from operator import add, le, mul
from typing import Iterable, Iterator, Sequence

INFINITY = math.inf

Partition = tuple  # tuple[int, ...]
Multipartition = tuple  # tuple[Partition, ...]
Multicharge = tuple  # tuple[int, ...]

DEFAULT_ENUMERATION_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration or an operation set would exceed its
    configured budget."""

    def __init__(self, estimate: int, budget: int, what: str = "estimated {} candidates"):
        super().__init__(f"{what.format(estimate)} exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


class Frozen:
    """Base of the plain value classes: ``__init__`` sets the fields named
    in ``_fields`` once, and the instance compares and hashes as their
    tuple, against its own class only.  No attribute can be assigned;
    ``functools.cached_property`` still caches, as it writes the instance
    dict directly."""

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, *values):
        vars(self).update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self._key()))})"


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
    """Transpose of the Young diagram: result[j] = #{i : p[i] >= j+1}.

    The columns p[i] + 1, ..., p[i-1] (1-based, p[len] = 0) all have
    length i, so the result is one run per part: O(len(p) + p[0]).
    """
    if not p:
        return ()
    n = len(p)
    return tuple(chain.from_iterable(repeat(i, p[i - 1] - (p[i] if i < n else 0)) for i in range(n, 0, -1)))


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
    for ``b``.  Both sums run along the components once, and their totals
    are the two sizes.
    """
    if len(a) != len(b):
        raise ValueError("dominance needs multipartitions with the same number of components")
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
    if x != y:
        raise ValueError("dominance needs multipartitions of the same size")
    if ge:
        return DominanceRel.GREATER
    if le:
        return DominanceRel.LESS
    return DominanceRel.INCOMPARABLE


def residue_content(m: Multipartition, charge: Multicharge, e) -> dict:
    """Counts of nodes by residue: node (i, j, k) contributes j - i + s_k mod e.

    Row i of component k holds the content run [s_k + 1 - i, b), where
    b = part_i - i + s_k + 1 is one past its beta-number, so a content x
    is counted once for each run end above it less once for each run
    start above it.  With finite e each start or end y = q*e + u counts
    q for every residue plus one for the residues below u, so the counts
    are one total of the q's plus a suffix sum over the e residues:
    O(parts + e).  With infinite e each component's contents fill the
    range s_k + 1 - len, ..., s_k + part_1 - 1, its support, and a prefix
    sum of the run starts and ends over that range gives the counts:
    O(parts + first parts), whatever the charge spread.  Zero counts are
    never stored, so equal dicts mean equal contents.
    """
    check_quantum_char(e)
    if len(m) != len(charge):
        raise ValueError("multipartition and multicharge rank mismatch")
    counts: dict = {}
    if is_finite(e):
        cycles, above = 0, [0] * e
        for comp, s in zip(m, charge):
            for i, part in enumerate(comp):  # row i + 1's run [s - i, s - i + part)
                q, u = divmod(s - i, e)
                q_end, u_end = divmod(s - i + part, e)
                cycles += q_end - q
                above[u_end] += 1
                above[u] -= 1
        for f in range(e - 1, -1, -1):
            if cycles:
                counts[f] = cycles
            cycles += above[f]
        return counts
    for comp, s in zip(m, charge):
        if comp:
            # over the support from s + 1 - k, row i's run starts at k - i
            # and ends at k - i + part_i
            k = len(comp)
            runs = [1] * k + [0] * comp[0]
            for end in map(add, comp, range(k - 1, -1, -1)):
                runs[end] -= 1
            for x, n in zip(range(s + 1 - k, s + comp[0]), accumulate(runs)):
                counts[x] = counts.get(x, 0) + n
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
    """0 <= s_j - s_i < e for all i < j: weakly increasing, and the last
    entry less than e above the first."""
    check_quantum_char(e)
    return all(map(le, charge, charge[1:])) and (not charge or charge[-1] - charge[0] < e)


def in_Abar(charge: Multicharge, e) -> bool:
    """0 <= s_j - s_i <= e for all i < j: weakly increasing, and the last
    entry at most e above the first."""
    check_quantum_char(e)
    return all(map(le, charge, charge[1:])) and (not charge or charge[-1] - charge[0] <= e)


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


def _divisor_sum(m: int) -> int:
    """sigma(m), the sum of the divisors of m, by trial division up to sqrt(m)."""
    root = math.isqrt(m)
    total = 0
    for d in range(1, root + 1):
        if m % d == 0:
            total += d + m // d
    return total - root if root * root == m else total


def _multipartition_counts(r: int) -> Iterator[int]:
    """Yield a_0, a_1, ..., with a_m the number of r-multipartitions of m.

    The generating function is prod_k (1 - x^k)^(-r), whose logarithmic
    derivative gives m * a_m = r * sum_{k=1..m} sigma(k) * a_(m-k), with
    sigma(k) the sum of the divisors of k.  Each step finds sigma(m) by
    trial division, so nothing is sized by a final m up front.
    """
    sigma, a = [], [1]
    yield 1
    for m in count(1):
        sigma.append(_divisor_sum(m))
        a.append(r * sum(map(mul, sigma, reversed(a))) // m)
        yield a[m]


def count_multipartitions(n: int, r: int) -> int:
    """Number of r-multipartitions of n (0 for negative n), without
    enumerating them."""
    if n < 0:
        return 0
    return next(islice(_multipartition_counts(r), n, None))


def _check_budget(n: int, r: int, budget: int) -> None:
    """Raise :class:`BudgetExceeded` if p_r(n), the number of
    r-multipartitions of n, exceeds the budget.

    p_r(m) never decreases as m grows, so the recurrence stops at the
    first m <= n whose count exceeds the budget and names that count:
    the check costs no more than the budget allows, however large n is.
    """
    for estimate in islice(_multipartition_counts(r), n + 1):
        if estimate > budget:
            raise BudgetExceeded(estimate, budget)
