"""Block identity, defect, Weyl-group action, and block-member enumeration.

A block of the algebra attached to (e, multicharge) is named by its
residue-content vector: two pairs with the same multicharge lie in one
block exactly when their residue contents agree.  The content vector is
the positive-root-lattice element beta written in the simple-root basis,
and the multicharge induces the dominant weight Lambda; the defect
(Lambda, beta) - (beta, beta)/2 is the block's weight.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .abacus import AbacusPair, pair_from_beads
from .partitions import (
    check_quantum_char,
    count_multipartitions,
    is_finite,
    multipartitions_of,
    residue,
    residue_content,
)

DEFAULT_ENUMERATION_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its configured budget."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(f"estimated {estimate} candidates exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


@dataclass(frozen=True)
class BlockId:
    """Identity of a block: quantum characteristic, multicharge, content."""

    e: object
    charge: tuple
    content: tuple  # sorted ((residue, count), ...) with zero counts absent
    n: int

    def content_dict(self) -> dict:
        return dict(self.content)


def block_id(a: AbacusPair) -> BlockId:
    content = residue_content(a.mp, a.charge, a.e)
    return BlockId(a.e, a.charge, tuple(sorted(content.items())), a.n)


@dataclass(frozen=True)
class CartanData:
    """Symmetric Cartan pairing of the cyclic (or doubly infinite) quiver."""

    e: object

    def __post_init__(self):
        check_quantum_char(self.e)

    def alpha_alpha(self, i: int, j: int) -> int:
        if self.e == 2:
            return 2 if residue(i, 2) == residue(j, 2) else -2
        if is_finite(self.e):
            i, j = residue(i, self.e), residue(j, self.e)
            if i == j:
                return 2
            if (i - j) % self.e in (1, self.e - 1):
                return -1
            return 0
        if i == j:
            return 2
        return -1 if abs(i - j) == 1 else 0

    def lambda_alpha(self, i: int, j: int) -> int:
        return 1 if residue(i, self.e) == residue(j, self.e) else 0


def weight_multiplicities(charge, e) -> dict:
    """k_i = number of multicharge entries congruent to i; defines Lambda."""
    check_quantum_char(e)
    k: dict = {}
    for s in charge:
        i = residue(s, e)
        k[i] = k.get(i, 0) + 1
    return k


def _pairing(k: dict, c: dict, j: int, e) -> int:
    """(alpha_j, Lambda - beta) = k_j - 2 c_j + c_(j-1) + c_(j+1)."""
    return (
        k.get(residue(j, e), 0)
        - 2 * c.get(residue(j, e), 0)
        + c.get(residue(j - 1, e), 0)
        + c.get(residue(j + 1, e), 0)
    )


def defect(b: BlockId) -> int:
    """(Lambda, beta) - (beta, beta)/2, an exact integer.

    (beta, beta) = 2 * sum c_i^2 - 2 * sum_i c_i c_(i+1), with the
    neighbour sum cyclic in i mod e for finite e (at e = 2 it counts
    c_0 c_1 twice), so the cost is linear in the content's support.
    """
    k = weight_multiplicities(b.charge, b.e)
    c = b.content_dict()
    lam_beta = sum(k.get(i, 0) * ci for i, ci in c.items())
    square = sum(ci * ci for ci in c.values())
    neighbour = sum(ci * c.get(residue(i + 1, b.e), 0) for i, ci in c.items())
    return lam_beta - square + neighbour


def alpha_pairing(b: BlockId, j: int) -> int:
    """(alpha_j, Lambda - beta)."""
    return _pairing(weight_multiplicities(b.charge, b.e), b.content_dict(), j, b.e)


def weyl_sigma(a: AbacusPair, j: int) -> AbacusPair:
    """The fundamental reflection on abaci: swap columns j-1+ke and j+ke.

    Charges are unchanged; the content vector shifts by the subabacus
    bead difference times the simple root, and applying the same
    reflection twice restores the input.
    """
    e = a.e
    lo, hi = a.bounds()
    lo -= (e + 1) if is_finite(e) else 2
    hi += (e + 1) if is_finite(e) else 2

    def partner(col: int) -> int:
        if is_finite(e):
            if col % e == residue(j, e):
                return col - 1
            if col % e == residue(j - 1, e):
                return col + 1
            return col
        if col == j:
            return j - 1
        if col == j - 1:
            return j
        return col

    rows = []
    for i in range(1, a.r + 1):
        extras = {col for col in range(lo, hi) if a.has_bead(i, partner(col))}
        rows.append((lo, extras))
    return pair_from_beads(rows, e)


def normalize_multicharge(charge, e):
    """Reduce mod e and stably sort ascending.

    Returns (normalized charge, sigma) where sigma is the slot
    permutation (1-based) that must also be applied to the
    multipartition; the normalized charge has weakly increasing entries
    in {0, ..., e-1} (raw entries when e is infinite).
    """
    check_quantum_char(e)
    reduced = [residue(s, e) for s in charge]
    order = sorted(range(len(charge)), key=lambda i: (reduced[i], i))
    sigma = tuple(i + 1 for i in order)
    return tuple(reduced[i] for i in order), sigma


def enumerate_block_members(b: BlockId, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """All multipartitions of n in the block, sorted, exhaustively checked.

    Refuses (raising :class:`BudgetExceeded`) when the number of
    candidate multipartitions of n is estimated above the budget.
    """
    r = len(b.charge)
    estimate = count_multipartitions(b.n, r)
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)
    target = b.content_dict()
    members = [
        mp
        for mp in multipartitions_of(b.n, r)
        if residue_content(mp, b.charge, b.e) == target
    ]
    members.sort()
    return members


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of the bounded orbit search: a word, or exhaustion at depth."""

    found: bool
    word: tuple | None
    depth: int


def _reflection_indices(k: dict, c: dict, e):
    if is_finite(e):
        return range(e)
    support = set(k) | set(c)
    if not support:
        return []
    return range(min(support) - 1, max(support) + 2)


def orbit_reachable(b1: BlockId, b2: BlockId, depth: int) -> OrbitResult:
    """Bounded breadth-first search for a reflection word from b1 to b2.

    States are content vectors; each reflection sends beta to
    beta + (alpha_j, Lambda - beta) alpha_j.  A negative answer only
    means no word of length at most ``depth`` exists.  For infinite e
    the reflection indices are restricted, per state, to the support of
    the dominant weight and the content widened by one slot on each
    side; reflections outside that window act trivially.
    """
    if b1.e != b2.e:
        raise ValueError("blocks must share the quantum characteristic")
    k1 = weight_multiplicities(b1.charge, b1.e)
    k2 = weight_multiplicities(b2.charge, b2.e)
    if k1 != k2:
        raise ValueError("blocks must induce the same dominant weight")
    e = b1.e
    start = b1.content
    target = b2.content
    if start == target:
        return OrbitResult(True, (), depth)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        state, word = queue.popleft()
        if len(word) >= depth:
            continue
        c = dict(state)
        for j in _reflection_indices(k1, c, e):
            mj = _pairing(k1, c, j, e)
            if mj == 0:
                continue
            nxt = dict(c)
            nxt[residue(j, e)] = nxt.get(residue(j, e), 0) + mj
            if nxt[residue(j, e)] == 0:
                del nxt[residue(j, e)]
            key = tuple(sorted(nxt.items()))
            if key in seen:
                continue
            seen.add(key)
            nw = word + (residue(j, e),)
            if key == target:
                return OrbitResult(True, nw, depth)
            queue.append((key, nw))
    return OrbitResult(False, None, depth)
