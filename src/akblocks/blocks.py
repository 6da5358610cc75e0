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
from itertools import accumulate, chain, product
from operator import add, getitem, gt, sub

from .abacus import AbacusPair, _pair_of_beads, row_from_beads
from .moves import _core_pair, _listing, _sub_levels, _vector
from .partitions import (
    check_quantum_char,
    count_multipartitions,
    is_finite,
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

    # partner moves a column by at most one: every column below floor - 1
    # stays beaded, and one from floor - 1 on is beaded iff its partner,
    # at least floor - 2, was
    rows = []
    for floor, extras in a._beadsets:
        lo = floor - 1
        moved = (partner(col) for col in chain(range(lo - 1, floor), extras))
        rows.append((lo, [col for col in moved if col >= lo]))
    return _pair_of_beads(rows, e)


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
    """All multipartitions of n in the block, sorted.

    Built from the block's core, not by filtering: over the normalized
    multicharge every member is the core with one partition lifted onto
    each subabacus, and the lifts' per-row move tallies add up to the
    block's moving vector (James-Kerber's core/quotient bijection, run
    on r rows).  The cost grows with the members found and with the
    partitions of size at most the weight, not with the number p_r(n)
    of r-multipartitions of n.  The budget still gates on p_r(n):
    :class:`BudgetExceeded` is raised when that estimate exceeds it.
    """
    r = len(b.charge)
    estimate = count_multipartitions(b.n, r)
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)
    e = b.e
    content = b.content_dict()
    if sum(content.values()) != b.n or any(
        v <= 0 or not isinstance(f, int) or residue(f, e) != f for f, v in content.items()
    ):
        return []
    charge, sigma = normalize_multicharge(b.charge, e)
    w = defect(b)
    tops, lo = _core_tops(charge, content, e)
    if not is_finite(e) and any(not 0 <= top <= r for top in tops.values()):
        return []
    core = _core_pair(tops, lo, e, r)
    mv = _vector_from_charges(charge, core.charge, w, e)
    if mv is None:
        return []
    # members list their rows in the block's own slot order
    place = [x - 1 for x in sigma]
    # with infinite e a full or empty column cannot move
    tables = [
        _lifts(c, top, mv, e, place) for c, top in tops.items() if is_finite(e) or 0 < top < r
    ]
    rows_by_slot = [None] * r
    for x, (floor, extras) in zip(place, core._beadsets):
        rows_by_slot[x] = _RowComponents(floor, extras)
    members = []
    for groups in _tally_combinations(tables, mv):
        for pick in product(*groups):
            changes = zip(*pick) if pick else [()] * r  # per row; empty when nothing moves
            members.append(tuple(map(getitem, rows_by_slot, changes)))
    members.sort()
    return members


def _core_tops(charge: tuple, content: dict, e):
    """({subabacus: top level of the core}, lo) for a normalized charge.

    Adding a node of residue f moves a bead from subabacus f-1 to
    subabacus f, so the core's tops are those of the empty
    multipartition shifted by c_f - c_(f+1).  With infinite e the
    columns below ``lo`` are full and those past the returned ones empty.
    """
    empty = AbacusPair(((),) * len(charge), charge, e)
    lo, hi = empty.bounds()
    if content and not is_finite(e):
        lo, hi = min(lo, min(content) - 1), max(hi, max(content) + 1)
    tops = {
        f: t_base + len(levels) + content.get(f, 0) - content.get(residue(f + 1, e), 0)
        for f, (t_base, levels) in _sub_levels(empty, range(lo, hi)).items()
    }
    return tops, lo


def _vector_from_charges(charge: tuple, core_charge: tuple, w: int, e):
    """The moving vector m with m_x - m_(x-1) = s_x - s*_x (cyclically)
    and sum w, where m_r = 0 for infinite e; None if no such vector is
    a non-negative integer one.  Moves keep the bead count, so the
    differences s_x - s*_x sum to 0 and m_r = m_0."""
    r = len(charge)
    steps = list(accumulate(s - t for s, t in zip(charge, core_charge)))
    last, rest = divmod(w - sum(steps), r) if is_finite(e) else (0, 0)
    mv = tuple(last + x for x in steps)
    if rest or min(mv) < 0 or sum(mv) != w:
        return None
    return mv


def _lifts(c: int, top: int, mv: tuple, e, place: list) -> dict:
    """{per-row tally: lifts} for every partition pi lifted onto
    subabacus c (bead i rising from level top - i by pi_i) whose tally
    stays <= mv.

    A lift lists, for each row x at index ``place[x - 1]``, the frozen
    set of (column, +1 filled / -1 emptied) bead changes; equal sets are
    one object.  With infinite e the subabacus is one column of r
    levels, so pi fits in a top x (r - top) box.
    """
    r = len(place)
    if is_finite(e):
        max_len = max_part = sum(mv)
    else:
        max_len, max_part = top, r - top
    # the position and the one-move tally of every level a lift can touch
    span = range(top - max_len, top + max_part)
    steps = [(c, 0, t, t - 1) for t in span]
    where = {t: (place[op.row - 1], op.col) for t, op in zip(span, _listing(steps, e, r))}
    unit = {t: _vector([step], r) for t, step in zip(span, steps)}
    changes: dict = {}
    groups: dict = {}
    stack = [((), (0,) * r, {})]  # (pi, tally, {level: +1 filled / -1 emptied})
    while stack:
        pi, tally, net = stack.pop()
        per_row: dict = {}
        for t, sign in net.items():
            x, col = where[t]
            per_row.setdefault(x, []).append((col, sign))
        lift = [frozenset()] * r
        for x, moved in per_row.items():
            key = frozenset(moved)
            lift[x] = changes.setdefault(key, key)
        groups.setdefault(tally, []).append(tuple(lift))
        i = len(pi) + 1
        if i > max_len:
            continue
        grown = tally
        for part in range(1, (pi[-1] if pi else max_part) + 1):
            grown = tuple(map(add, grown, unit[top - i + part]))
            if any(map(gt, grown, mv)):
                break  # a longer rise passes the same levels
            # bead i leaves level top - i, which no lift has touched yet, for a
            # free level that is either above the core or a level emptied before
            child = dict(net)
            child[top - i] = -1
            if child.get(top - i + part) == -1:
                del child[top - i + part]
            else:
                child[top - i + part] = 1
            stack.append((pi + (part,), grown, child))
    return groups


def _tally_combinations(tables: list, mv: tuple):
    """One lift group per subabacus, for every choice of tallies that
    sums to exactly mv: a depth-first search subtracting tallies, with
    the last subabacus's group looked up by the rest."""
    if not tables:
        if not any(mv):
            yield ()
        return
    stack = [(0, mv, ())]
    while stack:
        depth, rest, chosen = stack.pop()
        if depth == len(tables) - 1:
            group = tables[depth].get(rest)
            if group:
                yield chosen + (group,)
            continue
        for tally, group in tables[depth].items():
            left = tuple(map(sub, rest, tally))
            if min(left) >= 0:
                stack.append((depth + 1, left, chosen + (group,)))


class _RowComponents(dict):
    """The components of one core row under the lifts' bead changes in
    that row, keyed by those changes; each is built once, so equal
    components of different members are one object."""

    def __init__(self, floor: int, extras):
        super().__init__()
        self.floor, self.extras = floor, extras

    def __missing__(self, changes: tuple) -> tuple:
        moved = [m for change in changes for m in change]
        low = min([self.floor] + [col for col, sign in moved if sign < 0])
        beads = set(chain(range(low, self.floor), self.extras))
        beads.difference_update(col for col, sign in moved if sign < 0)
        beads.update(col for col, sign in moved if sign > 0)
        comp = self[changes] = row_from_beads(low, beads)[0]
        return comp


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
