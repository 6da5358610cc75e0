"""Representation type of a block, incomparability witnesses, and the
weight-one derived-equivalence invariant.

A block is finite type exactly when its weight is at most one, or its
moving vector (over a normalized multicharge) vanishes in the last slot
and consists of a single run of consecutive ones whose charge entries,
including one extra slot, all agree; such a block is a truncated
polynomial ring.  Infinite type is certified, where possible, by a pair
of same-block abaci that become dominance-incomparable after a
component permutation.

The verdict comes first: it needs only the block's core and moving
vector, O(parts + r*e) with finite e, and a block of finite type has no
witness, so the search runs only on blocks of infinite type.  It runs
once, over the normalized multicharge: a given member is permuted to it
and a witness found is carried back.  A block of rank one has no
witness, as a witness needs two rows, so no member is built for it.
Such pairs are first built by four pattern constructions on one seed
abacus.  Each construction starts from a bead over a hole: a column
where a row carries a bead and a later row has none (the next row, with
row r + 1 read as row 1 shifted by e, or any later row for
``construct_four_rows_one_column``).  In a complete abacus, such as the
block's core, each row's beads lie in the next row's, so it has no bead
over a hole, and neither has its dual.  The seeds are therefore the
member, then its dual, and only if both yield nothing the block's other
members, as its member stream builds them (each subabacus's lifts one
size at a time, as the members read need them); the pairwise scan of
every member is the last step.  The four constructions share one memo
of each seed's row-pair column lists, read from the rows' (floor,
extras), and hand back the moves of their two abaci: a candidate stays
in the seed's block exactly when every row gains as many beads as it
loses and the targets have the sources' column sum and residues mod e,
as a row of charge s holds #{beads >= x} - #{y : x <= y < s} nodes of
content x.  That is checked in O(moves) before :func:`_moved` builds
it, so :func:`repr_type` computes a block id only if the stream opens.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import NamedTuple

from .abacus import AbacusPair, _keeps_block, _moved, _wrap, dual
from .blocks import (
    DEFAULT_ENUMERATION_BUDGET,
    BlockId,
    BudgetExceeded,
    _block_core,
    _member_stream,
    block_id,
    defect,
    normalize_multicharge,
)
from .moves import _core_counts, core_and_vector
from .partitions import (
    DominanceRel,
    check_integers,
    dominance_compare,
    in_Abar,
    is_finite,
    permute,
)

DEFAULT_PAIR_BUDGET = 10**5


def is_incomparable_witness(a: AbacusPair, b: AbacusPair, k1: int, i1: int, k2: int, i2: int) -> bool:
    """Check the two-coordinate bead/hole swap pattern on a pair of abaci.

    Requires a bead at (k1, i1) in ``a`` but not in ``b`` and the reverse
    at (k2, i2), with row k1 agreeing strictly right of i1 and row k2
    agreeing strictly left of i2.
    """
    _check_same_display(a, b)
    if k1 == k2 or not (1 <= k1 <= a.r and 1 <= k2 <= a.r):
        return False
    if not (a.has_bead(k1, i1) and not b.has_bead(k1, i1)):
        return False
    if not (not a.has_bead(k2, i2) and b.has_bead(k2, i2)):
        return False
    return max(_row_diffs(a, b, k1)) == i1 and min(_row_diffs(a, b, k2)) == i2


def _check_same_display(a: AbacusPair, b: AbacusPair):
    if a.e != b.e or a.r != b.r:
        raise ValueError("abaci must share quantum characteristic and rank")
    if a.charge != b.charge:
        raise ValueError("incomparability is defined for a common multicharge")
    if a.n != b.n:
        raise ValueError("incomparability is defined for equal sizes")


def _row_diffs(a: AbacusPair, b: AbacusPair, row: int) -> frozenset:
    """The columns where the row's beads differ: the extras' symmetric
    difference, flipped on the columns between the two floors."""
    fa, xa = a._beadsets[row - 1]
    fb, xb = b._beadsets[row - 1]
    return xa ^ xb ^ frozenset(range(min(fa, fb), max(fa, fb)))


def incomparable_abaci(a: AbacusPair, b: AbacusPair):
    """First witness (k1, i1, k2, i2) in row order, or None.

    The top difference of row k1 must be a bead of ``a`` and the bottom
    difference of row k2 a bead of ``b``; those are the only candidate
    coordinates.
    """
    _check_same_display(a, b)
    tops = []
    bottoms = []
    for row in range(1, a.r + 1):
        diffs = _row_diffs(a, b, row)
        if not diffs:
            continue
        top, bottom = max(diffs), min(diffs)
        if a.has_bead(row, top):
            tops.append((row, top))
        if b.has_bead(row, bottom):
            bottoms.append((row, bottom))
    for k1, i1 in tops:
        for k2, i2 in bottoms:
            if k1 != k2:
                return (k1, i1, k2, i2)
    return None


def permutation_for_incomparability(a: AbacusPair, b: AbacusPair, witness) -> tuple:
    """A slot permutation making the two multipartitions dominance-incomparable.

    Sends row k1 to the bottom slot and k2 to the top one; the result is
    verified against the dominance oracle before being returned.
    """
    k1, i1, k2, i2 = witness
    if not is_incomparable_witness(a, b, k1, i1, k2, i2):
        raise ValueError("not a valid incomparability witness for these abaci")
    return _incomparability_sigma(a, b, k1, k2)


def _incomparability_sigma(a: AbacusPair, b: AbacusPair, k1: int, k2: int) -> tuple:
    """The slot permutation for a witness already checked on rows k1 and k2."""
    middle = [i for i in range(1, a.r + 1) if i not in (k1, k2)]
    sigma = tuple([k1] + middle + [k2])
    pa = permute(a.mp, sigma)
    pb = permute(b.mp, sigma)
    if dominance_compare(pa, pb) is not DominanceRel.INCOMPARABLE:
        raise RuntimeError("permuted multipartitions failed the dominance check; model bug")
    return sigma


class IncomparabilityWitness(NamedTuple):
    """Same-block abaci that are incomparable, with verified coordinates."""

    mu: tuple
    nu: tuple
    charge: tuple
    coords: tuple  # (k1, i1, k2, i2)
    sigma: tuple


class _RowPairCols(dict):
    """{(low row, high row): (bead-over-hole, hole-under-bead) columns} of
    one seed pair, each sorted and read on first use from the rows'
    (floor, extras), row r + k as row k shifted right by e; callers must
    not mutate the lists."""

    def __init__(self, seed: AbacusPair):
        super().__init__()
        self.seed = seed

    def __missing__(self, key: tuple) -> tuple:
        (f1, x1), (f2, x2) = (_row(self.seed, row) for row in key)
        cols = self[key] = (
            sorted(c for c in chain(x1, range(f2, f1)) if c >= f2 and c not in x2),
            sorted(c for c in chain(x2, range(f1, f2)) if c >= f1 and c not in x1),
        )
        return cols


def _row(seed: AbacusPair, row: int) -> tuple:
    """(floor, extras) of a row, row r + k read as row k shifted right by e."""
    row, col = _wrap(seed, row, 0)
    shift = -col  # row r*m + k reads row k shifted right by m*e
    floor, extras = seed._beadsets[row - 1]
    return floor + shift, {x + shift for x in extras}


def _cols_bead_over_empty(cols: _RowPairCols, low_row: int, high_row: int):
    """Columns with a bead in low_row and a hole at the (wrapped) high_row."""
    return cols[low_row, high_row][0]


def _cols_empty_under_bead(cols: _RowPairCols, low_row: int, high_row: int):
    """Columns with a hole in low_row and a bead at the (wrapped) high_row."""
    return cols[low_row, high_row][1]


def _build_two_runners(cols: _RowPairCols, j: int, h1: int, h2: int):
    seed = cols.seed
    down = [h for h in _cols_empty_under_bead(cols, j, j + 1) if h not in (h1, h2)]
    if len(down) < 2:
        return None
    h3, h4 = down[0], down[1]
    # every construction moves to one intermediate abacus, then mu and nu
    # each move two beads more
    bar = (((j, h1), (j + 1, h1)), ((j, h2), (j + 1, h2)))
    l1, l2, l3, l4 = sorted((h1, h2, h3, h4))
    mu = (*bar, ((j + 1, l1), (j, l1)), ((j + 1, l4), (j, l4)))
    nu = (*bar, ((j + 1, l2), (j, l2)), ((j + 1, l3), (j, l3)))
    return mu, nu, _wrap(seed, j, l4) + _wrap(seed, j + 1, l1)


def construct_two_runners_two_columns(cols: _RowPairCols):
    """Witness from two columns carrying a bead over a hole in one row pair."""
    seed = cols.seed
    for j in range(1, seed.r + is_finite(seed.e)):
        up = _cols_bead_over_empty(cols, j, j + 1)
        if len(up) >= 2:
            built = _build_two_runners(cols, j, up[0], up[1])
            if built:
                return built
    return None


def construct_four_runners(cols: _RowPairCols):
    """Witness from bead-over-hole columns in two separated row pairs."""
    seed = cols.seed
    if seed.r < 4:
        return None
    top = seed.r + is_finite(seed.e)
    for i in range(1, top):
        for j in range(i + 2, top):
            if j == seed.r and i == 1:
                continue
            ups_i = _cols_bead_over_empty(cols, i, i + 1)
            ups_j = _cols_bead_over_empty(cols, j, j + 1)
            downs_i = _cols_empty_under_bead(cols, i, i + 1)
            downs_j = _cols_empty_under_bead(cols, j, j + 1)
            if not (ups_i and ups_j and downs_i and downs_j):
                continue
            l, h = ups_i[0], ups_j[0]
            l_, h_ = downs_i[0], downs_j[0]
            bar = (((i, l), (i + 1, l)), ((j, h), (j + 1, h)))
            l1, l2 = sorted((l, l_))
            h1, h2 = sorted((h, h_))
            mu = (*bar, ((i + 1, l2), (i, l2)), ((j + 1, h1), (j, h1)))
            nu = (*bar, ((i + 1, l1), (i, l1)), ((j + 1, h2), (j, h2)))
            return mu, nu, (i, l2) + _wrap(seed, j + 1, h1)
    return None


def construct_three_runners(cols: _RowPairCols):
    """Witness from the three-adjacent-rows patterns."""
    seed = cols.seed
    if seed.r < 3:
        return None
    top = seed.r + 2 * is_finite(seed.e)
    for i in range(1, min(seed.r, top - 2) + 1):
        ups1 = _cols_bead_over_empty(cols, i, i + 1)[:4]
        downs1 = _cols_empty_under_bead(cols, i, i + 1)[:4]
        ups2 = _cols_bead_over_empty(cols, i + 1, i + 2)[:4]
        downs2 = _cols_empty_under_bead(cols, i + 1, i + 2)[:4]
        for l1 in ups1:
            for l4 in downs2:
                for l2 in downs1:
                    for l3 in ups2:
                        if l1 == l4 and l2 == l3:
                            continue
                        built = _three_runners_cases(cols, i, l1, l2, l3, l4)
                        if built:
                            return built
    return None


def _three_runners_cases(cols: _RowPairCols, i: int, l1: int, l2: int, l3: int, l4: int):
    seed = cols.seed
    if l1 != l4 and l2 != l3:
        bar = (((i, l1), (i + 1, l1)), ((i + 1, l3), (i + 2, l3)))
        h1, h2 = sorted((l1, l2))
        h3, h4 = sorted((l3, l4))
        mu = (*bar, ((i + 1, h2), (i, h2)), ((i + 2, h3), (i + 1, h3)))
        nu = (*bar, ((i + 1, h1), (i, h1)), ((i + 2, h4), (i + 1, h4)))
        return mu, nu, (i, h2) + _wrap(seed, i + 2, h3)
    if l1 == l4 and l2 != l3:
        if not seed.has_bead(*_wrap(seed, i + 2, l2)):
            return _build_two_runners(cols, i + 1, l2, l3)
        bar = (((i, l1), (i + 1, l1)), ((i + 1, l3), (i + 2, l3)))
        h1, h2 = sorted((l1, l2))
        if l3 > h2 or l3 < h1:
            mu = (*bar, ((i + 1, h2), (i, h2)), ((i + 2, h2), (i + 1, h2)))
            nu = (*bar, ((i + 1, h1), (i, h1)), ((i + 2, l3), (i + 1, l3)))
            coords = (i, h2) + (_wrap(seed, i + 2, h2) if l3 > h2 else _wrap(seed, i + 1, l3))
            return mu, nu, coords
        mu = (*bar, ((i + 1, h1), (i, h1)), ((i + 2, h1), (i + 1, h1)))
        nu = (*bar, ((i + 2, l3), (i + 1, l3)), ((i + 1, h2), (i, h2)))
        return mu, nu, _wrap(seed, i + 1, h2) + _wrap(seed, i + 2, h1)
    # remaining shape (l1 != l4, l2 == l3) is handled on the dual abacus
    return None


def construct_four_rows_one_column(cols: _RowPairCols):
    """Witness from one column with beads under holes on four rows."""
    seed = cols.seed
    if seed.r < 4:
        return None
    for h in range(*seed.bounds()):
        beaded = [h < floor or h in extras for floor, extras in seed._beadsets]
        rows_b = [i for i, bead in enumerate(beaded, 1) if bead]
        rows_e = [i for i, bead in enumerate(beaded, 1) if not bead]
        quad = None
        for i1, i2 in combinations(rows_b, 2):
            above = [x for x in rows_e if x > i2]
            if len(above) >= 2:
                quad = (i1, i2, above[0], above[1])
                break
        if not quad:
            continue
        i1, i2, i3, i4 = quad
        h1 = next((x for x in _cols_empty_under_bead(cols, i1, i3) if x != h), None)
        h2 = next((x for x in _cols_empty_under_bead(cols, i2, i4) if x != h), None)
        if h1 is None or h2 is None:
            continue
        bar = (((i1, h), (i3, h)), ((i2, h), (i4, h)))
        l1, l3 = sorted((h, h1))
        l2, l4 = sorted((h, h2))
        mu = (*bar, ((i3, l3), (i1, l3)), ((i4, l2), (i2, l2)))
        nu = (*bar, ((i3, l1), (i1, l1)), ((i4, l4), (i2, l4)))
        return mu, nu, (i1, l3, i4, l2)
    return None


_CONSTRUCTIONS = (
    construct_two_runners_two_columns,
    construct_four_runners,
    construct_three_runners,
    construct_four_rows_one_column,
)


def _dual_coords(r: int, coords):
    k1, i1, k2, i2 = coords
    return (r - k2 + 1, -i2 - 1, r - k1 + 1, -i1 - 1)


def _witness_from(a: AbacusPair, b: AbacusPair, coords, target: BlockId | None):
    """The witness if the checker passes and, unless ``target`` is None, a and b lie in it."""
    k1, i1, k2, i2 = coords
    if target is not None and (block_id(a) != target or block_id(b) != target):
        return None
    if not is_incomparable_witness(a, b, k1, i1, k2, i2):
        return None
    return IncomparabilityWitness(a.mp, b.mp, a.charge, coords, _incomparability_sigma(a, b, k1, k2))


def _inverse_permutation(sigma) -> tuple:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma, start=1):
        inv[s - 1] = i
    return tuple(inv)


def _transport_witness(w, sigma, charge, charge_norm, e, b: BlockId):
    """Carry a witness found over the normalized multicharge back to the
    original one: rows permute and columns shift by multiples of e."""
    inv = _inverse_permutation(sigma)
    mu = permute(w.mu, inv)
    nu = permute(w.nu, inv)
    k1, i1, k2, i2 = w.coords
    big_k1, big_k2 = sigma[k1 - 1], sigma[k2 - 1]
    coords = (
        big_k1,
        i1 + charge[big_k1 - 1] - charge_norm[k1 - 1],
        big_k2,
        i2 + charge[big_k2 - 1] - charge_norm[k2 - 1],
    )
    return _witness_from(AbacusPair._of(mu, charge, e), AbacusPair._of(nu, charge, e), coords, b)


def _constructed_witness(member: AbacusPair):
    """Run the pattern constructions on the member, then on its dual.

    Every construction needs a bead over a hole, which a complete abacus
    (the core, or its dual) never has, so neither is tried.  The dual is
    built only when the member yields nothing, and all four constructions
    share one memo of the seed's row-pair columns.  Their moves are
    checked before any pair is built, and ``dual`` maps blocks to blocks.
    """
    for dualized in (False, True):
        seed = dual(member) if dualized else member
        cols = _RowPairCols(seed)
        for build in _CONSTRUCTIONS:
            try:
                mu, nu, coords = build(cols) or (None, None, None)
                if mu is None or not (_keeps_block(seed, mu) and _keeps_block(seed, nu)):
                    continue
                mu, nu = _moved(seed, *mu), _moved(seed, *nu)
            except ValueError:
                continue
            if dualized:
                mu, nu, coords = dual(mu), dual(nu), _dual_coords(seed.r, coords)
            witness = _witness_from(mu, nu, coords, None)
            if witness:
                return witness
    return None


def _witness_by_scan(members, charge, b: BlockId, pair_budget: int):
    """The first witness among the ordered pairs of ``members`` (over
    ``charge``), comparing at most ``pair_budget`` pairs."""
    compared = 0
    for x, y in combinations(members, 2):
        if compared >= pair_budget:
            break
        compared += 1
        pa = AbacusPair._of(x, charge, b.e)
        pb = AbacusPair._of(y, charge, b.e)
        for first, second in ((pa, pb), (pb, pa)):
            coords = incomparable_abaci(first, second)
            if coords:
                witness = _witness_from(first, second, coords, b)
                if witness:
                    return witness
    return None


def find_incomparable_pair(
    b: BlockId,
    member=None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
):
    """Search the block for an incomparable pair of abaci.

    The verdict comes first, from the block's core and vector: a block of
    finite type, or with no members, has no witness, so None is returned
    without building a member or checking the enumeration budget (a
    given member outside the block raises ValueError before that).
    Otherwise :func:`_witness_search` runs once over the normalized
    multicharge, seeded with the given member permuted to it, and a
    witness found there is carried back to the block's own multicharge.
    Returns None when the search exhausts."""
    seed = None if member is None else AbacusPair(member, b.charge, b.e)
    if seed is not None and block_id(seed) != b:
        raise ValueError("the given member does not lie in the block")
    # weight at most one is finite whatever the vector, and a block with
    # no members has no witness either
    block = _block_core(b) if defect(b) > 1 else None
    if block is None:
        return None
    charge, sigma, *_, mv = block
    if _finite_detail(mv, charge, b.e, len(charge)) is not None:
        return None
    if seed is not None:
        seed = AbacusPair._of(permute(seed.mp, sigma), charge, b.e)
    w = _witness_search(b._replace(charge=charge), seed, pair_budget, enumeration_budget)
    if w is None or charge == b.charge:
        return w
    return _transport_witness(w, sigma, b.charge, charge, b.e, b)


def _witness_search(b, seed, pair_budget: int, enumeration_budget: int):
    """The constructions on a member ``seed`` of ``b`` and its dual, then
    on each other member of the block's stream (opened only now, and
    ``b`` computed from the seed then if None), then the scan over every
    member read, sorted; without a seed, each member of the stream in
    turn.  ``b`` lies over a normalized multicharge, and a block of rank
    one has no witness, as a witness needs two rows: None is returned
    with no stream opened."""
    if (seed.r if b is None else len(b.charge)) < 2:
        return None
    if seed is not None:
        witness = _constructed_witness(seed)
        if witness:
            return witness
        b = b or block_id(seed)
    members = []
    for mp in _member_stream(b, enumeration_budget):
        members.append(mp)
        if seed is None or mp != seed.mp:
            witness = _constructed_witness(AbacusPair._of(mp, b.charge, b.e))
            if witness:
                return witness
    return _witness_by_scan(sorted(members), b.charge, b, pair_budget)


def block_moving_vector(p: AbacusPair):
    """(moving vector, core) of the block containing the pair.

    The multicharge must have weakly increasing entries with spread at
    most e; normalize first otherwise.  Every member of the block shares
    this vector.
    """
    if not in_Abar(p.charge, p.e):
        raise ValueError(
            "block moving vectors need a multicharge with weakly increasing "
            "entries and spread at most e; normalize the multicharge first"
        )
    core_pair, mv = core_and_vector(p)
    return mv, core_pair


class ReprTypeReport(NamedTuple):
    """Verdict of the representation-type classification with its evidence."""

    verdict: str  # "finite" | "infinite"
    weight: int
    moving_vector: tuple
    normalized_charge: tuple
    sigma: tuple
    detail_kind: str | None = None  # "simple" | "brauer_line" | "truncated_polynomial"
    detail_degree: int | None = None  # truncated polynomial ring K[x]/(x^degree)
    detail_edges: int | None = None  # straight-line Brauer tree edge count
    witness: IncomparabilityWitness | None = None


def _brauer_edge_count(mv, charge, e, r) -> int:
    j = next(i for i, m in enumerate(mv) if m == 1)  # 0-based slot
    if r == 1:
        return e - 1
    if j + 1 < r:
        a = charge[j + 1] - charge[j]
    else:
        a = charge[0] + e - charge[r - 1]
    return a + 1


def _finite_detail(mv, charge, e, r):
    """The detail fields of a finite verdict on the block with moving
    vector ``mv`` over the normalized multicharge ``charge``, or None
    when the block is of infinite type.

    Weight at most one is always finite; otherwise the block is finite
    exactly when the moving vector ends in zero and its nonzero entries
    are a single run of ones over equal charge entries (one slot past
    the run included), in which case the block is a truncated
    polynomial ring of degree weight+1.
    """
    w = sum(mv)
    if w == 0:
        return {"detail_kind": "simple"}
    if w == 1:
        return {"detail_kind": "brauer_line", "detail_edges": _brauer_edge_count(mv, charge, e, r)}
    if r > 2:
        ones = [i for i, m in enumerate(mv) if m == 1]
        consecutive_run = (
            len(ones) == w
            and all(m in (0, 1) for m in mv)
            and ones == list(range(ones[0], ones[0] + w))
        )
        if mv[-1] == 0 and consecutive_run:
            j = ones[0]
            if len(set(charge[j : j + w + 1])) == 1:
                return {"detail_kind": "truncated_polynomial", "detail_degree": w + 1}
    return None


def repr_type(p: AbacusPair, witness_budget: int = DEFAULT_PAIR_BUDGET) -> ReprTypeReport:
    """Classify the representation type of the block containing the pair.

    The multicharge is normalized first (reduced mod e and stably
    sorted, permuting components along), and the verdict is
    :func:`_finite_detail`'s on the block's moving vector.
    """
    charge_norm, sigma = normalize_multicharge(p.charge, p.e)
    q = AbacusPair._of(permute(p.mp, sigma), charge_norm, p.e)
    mv, _ = block_moving_vector(q)
    report = dict(
        weight=sum(mv),
        moving_vector=mv,
        normalized_charge=charge_norm,
        sigma=sigma,
    )
    detail = _finite_detail(mv, charge_norm, q.e, q.r)
    if detail is not None:
        return ReprTypeReport(verdict="finite", **detail, **report)
    witness = None
    if witness_budget > 0:
        try:
            witness = _witness_search(None, q, witness_budget, DEFAULT_ENUMERATION_BUDGET)
        except BudgetExceeded:
            pass
    return ReprTypeReport(verdict="infinite", witness=witness, **report)


def schur_repr_type(rep: ReprTypeReport) -> str:
    """Representation type of the matching cyclotomic q-Schur block."""
    if rep.weight > 2:
        return "infinite"
    if rep.weight < 2:
        return "finite"
    return rep.verdict


def subabacus_moving_vector(
    b: BlockId, enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
) -> dict:
    """Per-column-class counts of all members' moves to the block core.

    Sums, over every member, the number of operations whose source
    column lies in each residue class mod e (each column is its own
    class when e is infinite).  Zero entries are omitted.  Moves never
    leave a subabacus, so each member adds the per-subabacus move counts
    of its core, and no move or bead path is listed.
    """
    charge = check_integers(b.charge, "multicharge")
    counts: dict = {}
    for mp in _member_stream(b, enumeration_budget):
        for c, moves in _core_counts(AbacusPair._of(mp, charge, b.e))[1].items():
            counts[c] = counts.get(c, 0) + moves
    return {k: v for k, v in sorted(counts.items()) if v}


def derived_equivalent_weight1(b1: BlockId, b2: BlockId) -> bool:
    """Weight-one blocks are derived equivalent iff their subabacus
    moving vectors have the same number of nonzero components: one more
    than the edges of the block's straight-line Brauer tree, which decide
    derived equivalence (Rickard) and are read from the block's core and
    vector, with no member built and no budget."""
    if defect(b1) != 1 or defect(b2) != 1:
        raise ValueError("the invariant only applies to weight-one blocks")
    return _edge_count(b1) == _edge_count(b2)


def _edge_count(b: BlockId):
    """A weight-one block's Brauer edge count; None if it has no members."""
    block = _block_core(b)
    if block is None:
        return None
    charge, *_, mv = block
    return _brauer_edge_count(mv, charge, b.e, len(charge))
