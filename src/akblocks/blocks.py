"""Block identity, defect, affine Weyl orbits, and block-member enumeration.

A block of the algebra attached to (e, multicharge) is named by its
residue-content vector: two pairs with the same multicharge lie in one
block exactly when their residue contents agree.  The content vector is
the positive-root-lattice element beta written in the simple-root basis,
and the multicharge induces the dominant weight Lambda; the defect
(Lambda, beta) - (beta, beta)/2 is the block's weight.  Two blocks share
a Weyl orbit exactly when their weights Lambda - beta reduce to the same
dominant one.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain, product, starmap
from operator import sub
from typing import NamedTuple

from .abacus import AbacusPair, _pair_of_beads
from .partitions import (  # the budget names stay importable from this module
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceeded,
    Frozen,
    _check_budget,
    check_integers,
    check_quantum_char,
    is_finite,
    residue,
    residue_content,
)


class BlockId(NamedTuple):
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


class CartanData(Frozen):
    """Symmetric Cartan pairing of the cyclic (or doubly infinite) quiver."""

    _fields = __match_args__ = ("e",)

    def __init__(self, e):
        check_quantum_char(e)
        self._set(e)

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
    (j,) = check_integers((j,), "reflection index")
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
    return sorted(_member_stream(b, budget))


def _block_core(b: BlockId):
    """(normalized charge, sigma, tops, lo, moving vector) of the block,
    or None when no multipartition has its content; O(r*e) with finite e.

    A core fills each subabacus below its base plus its bead count, and
    adding a node of residue f moves a bead from subabacus f-1 to f, so
    the tops are the empty multipartition's shifted by c_f - c_(f+1);
    with infinite e the columns below lo are full and those past the
    tops empty.  The core's charges are read off the tops."""
    from .moves import _core_charges, _core_counts, _vector_from_charges

    e, r = b.e, len(b.charge)
    content = b.content_dict()
    if sum(content.values()) != b.n or any(
        v <= 0 or not isinstance(f, int) or residue(f, e) != f for f, v in content.items()
    ):
        return None
    charge, sigma = normalize_multicharge(b.charge, e)
    empty = AbacusPair(((),) * r, charge, e)
    lo, hi = empty.bounds()
    if content and not is_finite(e):
        lo, hi = min(lo, min(content) - 1), max(hi, max(content) + 1)
    tops = {
        f: top + content.get(f, 0) - content.get(residue(f + 1, e), 0)
        for f, top in _core_counts(empty, range(lo, hi))[0].items()
    }
    if not is_finite(e) and any(not 0 <= top <= r for top in tops.values()):
        return None
    mv = _vector_from_charges(charge, _core_charges(tops, lo, e, r), defect(b), e)
    return None if mv is None else (charge, sigma, tops, lo, mv)


def _member_stream(b: BlockId, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """The members of :func:`enumerate_block_members`, unsorted, each
    yielded as it is built; the budget gate runs at the first ``next()``,
    before any lift table is built, and each table builds a size of lift
    only when the tally search first asks for it."""
    from .moves import _core_pair

    r = len(b.charge)
    _check_budget(b.n, r, budget)
    block = _block_core(b)
    if block is None:
        return
    _, sigma, tops, lo, mv = block
    # members list their rows in the block's own slot order
    place = [x - 1 for x in sigma]
    # with infinite e a full or empty column cannot move
    tables = [
        _Lifts(c, top, mv, b.e, place) for c, top in tops.items() if is_finite(b.e) or 0 < top < r
    ]
    rows = [None] * r
    for x, row in zip(place, _core_pair(tops, lo, b.e, r)._beadsets):
        rows[x] = _RowComponents(*row).__getitem__
    for groups in _tally_combinations(tables, mv):
        # each row's product of its changes in the groups; no groups: the core alone
        yield from zip(*map(map, rows, starmap(product, zip(*groups) if groups else [()] * r)))


class _Lifts(dict):
    """{size s: {per-row tally: lifts by row}} for every partition pi of
    s lifted onto subabacus c (bead i rising from level top - i by pi_i)
    whose tally stays <= mv.  Sizes are built on first use, each after
    every smaller one: a partition is a smaller one with its last part
    added, so each lift built files its children under the sizes they
    reach.  A lift gives row x, at index ``place[x - 1]``, the frozen set
    of its (column, +1 filled / -1 emptied) bead changes; a child is its
    parent with the one or two rows it touches replaced, equal sets are
    one object, and a tally's entry x lists row x's set of each lift.
    With infinite e the subabacus is one column of r levels, so pi fits
    in a top x (r - top) box."""

    def __init__(self, c: int, top: int, mv: tuple, e, place: list):
        super().__init__()
        r = len(place)
        max_len, max_part = (sum(mv), sum(mv)) if is_finite(e) else (top, r - top)
        # every level a lift can touch: level t lies in row r - (t mod r), tallied
        # at r - 1 - t mod r and listed at place[r - 1 - t mod r], column (t // r) * e + c
        step = e if is_finite(e) else 0
        span = range(top - max_len, top + max_part)
        self.where = {t: (r - 1 - t % r, place[r - 1 - t % r], t // r * step + c) for t in span}
        self.top, self.mv, self.max_len = top, mv, max_len
        empty = frozenset()
        self.changes = {empty: empty}
        # {size: [(len pi, last part, tally, lift)]}
        self.waiting = {0: [(0, max_part, (0,) * r, (empty,) * r)]}

    def __missing__(self, size: int) -> dict:
        top, mv, where, changes, waiting = self.top, self.mv, self.where, self.changes, self.waiting
        for s in range(len(self), size + 1):
            groups: dict = {}
            for length, last, tally, lift in waiting.pop(s, ()):
                groups.setdefault(tally, []).append(lift)
                i = length + 1
                if i > self.max_len:
                    continue
                # bead i leaves level top - i, which no lift has touched yet, for a
                # free level that is either above the core or a level emptied before
                _, x, col = where[top - i]
                left = lift[x] | {(col, -1)}
                left = changes.setdefault(left, left)
                grown = list(tally)
                for part in range(1, last + 1):
                    u, y, dst = where[top - i + part]
                    grown[u] += 1
                    if grown[u] > mv[u]:
                        break  # a longer rise passes the same levels
                    child = list(lift)
                    child[x] = left
                    row = child[y] - {(dst, -1)} if (dst, -1) in child[y] else child[y] | {(dst, 1)}
                    child[y] = changes.setdefault(row, row)
                    waiting.setdefault(s + part, []).append((i, part, tuple(grown), tuple(child)))
            self[s] = dict(zip(groups, map(tuple, starmap(zip, groups.values()))))
        return self[size]


def _tally_combinations(tables: list, mv: tuple):
    """One lift group per subabacus, for every choice of tallies that sums
    to exactly mv: a depth-first search subtracting tallies, with the last
    subabacus's group looked up by the rest.  The search keeps its own
    stack, one lazy choice iterator per subabacus, so it holds any number
    of subabaci, and the first choices build only each table's small
    sizes."""
    if not tables:
        if not any(mv):
            yield ()
        return
    last = len(tables) - 1
    if last == 0:
        group = tables[0][sum(mv)].get(mv)
        if group:
            yield (group,)
        return
    choices, chosen = [_tally_choices(tables[0], mv, len(tables))], []
    while choices:
        step = next(choices[-1], None)
        if step is None:
            choices.pop()
            if chosen:
                chosen.pop()
            continue
        left, group = step
        depth = len(chosen)
        if depth + 1 == last:
            final = tables[last][sum(left)].get(left)
            if final:
                yield (*chosen, group, final)
        else:
            chosen.append(group)
            choices.append(_tally_choices(tables[depth + 1], left, last - depth))


def _tally_choices(table, rest: tuple, count: int):
    """(rest less tally, group) for each tally of ``table`` that fits in
    ``rest``, shared among ``count`` subabaci: the sizes from an even share
    of the rest upward, then the smaller ones."""
    total = sum(rest)
    share = total // count
    for size in chain(range(share, total + 1), range(share - 1, -1, -1)):
        for tally, group in table[size].items():
            left = tuple(map(sub, rest, tally))
            if min(left) >= 0:
                yield left, group


class _RowComponents(dict):
    """The components of one core row under the lifts' bead changes in
    that row, keyed by those changes; each is built once, so equal
    components of different members are one object.  A component applies
    its changes to the row's ascending bead list, every bead from the
    lowest column emptied so far on, and reads its parts off."""

    def __init__(self, floor: int, extras):
        super().__init__()
        self.low, self.beads = floor, sorted(extras)

    def __missing__(self, changes: tuple) -> tuple:
        moved = [m for change in changes if change for m in change]
        low = min([self.low] + [col for col, sign in moved if sign < 0])
        self.beads[:0], self.low = range(low, self.low), low
        beads = self.beads.copy()
        for col, sign in moved:
            if sign < 0:
                beads.remove(col)
            else:
                insort(beads, col)
        # a bead's part is the number of holes below it; zero parts are dropped
        holes = map(sub, reversed(beads), range(low + len(beads) - 1, low - 1, -1))
        comp = self[changes] = tuple(filter(None, holes))
        return comp


class OrbitResult(NamedTuple):
    """Outcome of the orbit test: a reflection word, or None."""

    found: bool
    word: tuple | None
    depth: int


def _dominant(k: dict, content, e) -> tuple:
    """(dominant content, word): while some j has (alpha_j, Lambda - beta)
    < 0, reflect the smallest, adding that pairing to c_j.  It can be
    negative only where c_j > 0, and each step lowers n, so at most n
    steps scan the support.  Every weight of the module lies below
    Lambda, so a negative count raises ValueError."""
    c = dict(content)
    word = []
    while True:
        if any(v < 0 or residue(j, e) != j for j, v in c.items()):
            raise ValueError(f"content {content} is not a weight of the block's module")
        for j in sorted(c):
            m = _pairing(k, c, j, e)
            if m < 0:
                c[j] += m
                word.append(j)
                break
        else:
            return tuple(sorted((j, v) for j, v in c.items() if v)), word


def orbit_reachable(b1: BlockId, b2: BlockId, depth: int) -> OrbitResult:
    """Whether b1 and b2 share an affine Weyl orbit, with a word from b1 to b2.

    A reflection sends beta to beta + (alpha_j, Lambda - beta) alpha_j.
    Each W-orbit of the weights Lambda - beta holds exactly one dominant
    weight (Kac, Infinite Dimensional Lie Algebras, Prop. 3.12), so
    reducing both blocks to it gives an exact answer.  The word, the
    first reduction then the second reversed, less their common suffix,
    is valid but not always shortest.  ``depth`` no longer bounds the
    search; it is echoed.
    """
    if b1.e != b2.e:
        raise ValueError("blocks must share the quantum characteristic")
    k = weight_multiplicities(b1.charge, b1.e)
    if k != weight_multiplicities(b2.charge, b2.e):
        raise ValueError("blocks must induce the same dominant weight")
    top1, word1 = _dominant(k, b1.content, b1.e)
    top2, word2 = _dominant(k, b2.content, b2.e)
    if top1 != top2:
        return OrbitResult(False, None, depth)
    # equal last letters reach the dominant weight from the same weight
    while word1 and word2 and word1[-1] == word2[-1]:
        word1.pop()
        word2.pop()
    return OrbitResult(True, tuple(word1 + word2[::-1]), depth)
