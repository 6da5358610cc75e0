"""Representation type of a block, incomparability witnesses, and the
weight-one derived-equivalence invariant.

A block is finite type exactly when its weight is at most one, or its
moving vector (over a normalized multicharge) vanishes in the last slot
and consists of a single run of consecutive ones whose charge entries,
including one extra slot, all agree; such a block is a truncated
polynomial ring.  Infinite type is certified, where possible, by a pair
of same-block abaci that become dominance-incomparable after a
component permutation.

Such pairs are first built by four pattern constructions on one seed
abacus.  Each construction starts from a bead over a hole: a column
where a row carries a bead and a later row has none (the next row, with
row r + 1 read as row 1 shifted by e, or any later row for
``construct_four_rows_one_column``).  In a complete abacus, such as the
block's core, each row's beads lie in the next row's, so it has no bead
over a hole, and neither has its dual.  The seeds are therefore the
member and then, only if it yields nothing, its dual.  Each seed is read
once into a scratch model that memoizes its row-pair column lists; the
constructions copy the model before they move beads.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .abacus import AbacusPair, _pair_of_beads, dual
from .blocks import (
    DEFAULT_ENUMERATION_BUDGET,
    BlockId,
    BudgetExceeded,
    block_id,
    defect,
    enumerate_block_members,
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


class _BeadRows:
    """Mutable bead-set scratch model for the witness constructions.

    ``cols`` memoizes the sorted column lists of each row pair; a copy
    starts with an empty memo and a move clears it.
    """

    def __init__(self, pair: AbacusPair):
        self.e, self.r = pair.e, pair.r
        step = pair.e if is_finite(pair.e) else 1
        lo, hi = pair.bounds()
        self.lo = lo - 2 * (step + 1)
        self.hi = hi + step + 1
        self.rows = {
            i: set(range(self.lo, floor)) | extras
            for i, (floor, extras) in enumerate(pair._beadsets, start=1)
        }
        self.cols = {}

    def wrap(self, row: int, col: int):
        while row > self.r:
            if not is_finite(self.e):
                raise ValueError("row wrap needs finite e")
            row -= self.r
            col -= self.e
        return row, col

    def bead(self, row: int, col: int) -> bool:
        row, col = self.wrap(row, col)
        if col < self.lo:
            return True
        return col in self.rows[row]

    def beaded(self, row: int) -> set:
        """The columns from lo on that carry a bead in the (wrapped) row."""
        row, col = self.wrap(row, 0)
        shift = -col  # a row r*m + row reads row ``row`` shifted right by m*e
        cols = {c + shift for c in self.rows[row]}
        cols.update(range(self.lo, self.lo + shift))
        return cols

    def copy(self) -> "_BeadRows":
        new = object.__new__(_BeadRows)
        new.e, new.r, new.lo, new.hi = self.e, self.r, self.lo, self.hi
        new.rows = {i: set(cols) for i, cols in self.rows.items()}
        new.cols = {}
        return new

    def move(self, src, dst):
        (sr, sc), (dr, dc) = self.wrap(*src), self.wrap(*dst)
        if sc < self.lo or dc < self.lo:
            raise ValueError("move leaves the scratch window")
        if sc not in self.rows[sr]:
            raise ValueError(f"no bead at {(sr, sc)}")
        if dc in self.rows[dr]:
            raise ValueError(f"target {(dr, dc)} occupied")
        self.rows[sr].discard(sc)
        self.rows[dr].add(dc)
        self.cols.clear()
        return self

    def pair(self) -> AbacusPair:
        return _pair_of_beads(
            [(self.lo, self.rows[i]) for i in range(1, self.r + 1)], self.e
        )


def _scan_cols(model: _BeadRows):
    return range(model.lo + 1, model.hi)


def _in_scan(model: _BeadRows, cols) -> list:
    return sorted(h for h in cols if model.lo < h < model.hi)


def _row_pair_cols(model: _BeadRows, low_row: int, high_row: int) -> tuple:
    """(bead-over-hole, hole-under-bead) scan columns of a row pair,
    sorted and memoized on the model; callers must not mutate them."""
    key = (low_row, high_row)
    cols = model.cols.get(key)
    if cols is None:
        low, high = model.beaded(low_row), model.beaded(high_row)
        cols = model.cols[key] = (_in_scan(model, low - high), _in_scan(model, high - low))
    return cols


def _cols_bead_over_empty(model: _BeadRows, low_row: int, high_row: int):
    """Columns with a bead in low_row and a hole at the (wrapped) high_row."""
    return _row_pair_cols(model, low_row, high_row)[0]


def _cols_empty_under_bead(model: _BeadRows, low_row: int, high_row: int):
    """Columns with a hole in low_row and a bead at the (wrapped) high_row."""
    return _row_pair_cols(model, low_row, high_row)[1]


def _build_two_runners(model: _BeadRows, j: int, h1: int, h2: int):
    down = _cols_empty_under_bead(model, j, j + 1)
    down = [h for h in down if h not in (h1, h2)]
    if len(down) < 2:
        return None
    h3, h4 = down[0], down[1]
    bar = model.copy().move((j, h1), (j + 1, h1)).move((j, h2), (j + 1, h2))
    l1, l2, l3, l4 = sorted((h1, h2, h3, h4))
    mu = bar.copy().move((j + 1, l1), (j, l1)).move((j + 1, l4), (j, l4))
    nu = bar.copy().move((j + 1, l2), (j, l2)).move((j + 1, l3), (j, l3))
    return mu.pair(), nu.pair(), (j, l4) + bar.wrap(j + 1, l1)


def construct_two_runners_two_columns(model: _BeadRows):
    """Witness from two columns carrying a bead over a hole in one row pair."""
    top = model.r + (1 if is_finite(model.e) else 0)
    for j in range(1, top):
        up = _cols_bead_over_empty(model, j, j + 1)
        if len(up) >= 2:
            built = _build_two_runners(model, j, up[0], up[1])
            if built:
                return built
    return None


def construct_four_runners(model: _BeadRows):
    """Witness from bead-over-hole columns in two separated row pairs."""
    if model.r < 4:
        return None
    top = model.r + (1 if is_finite(model.e) else 0)
    for i in range(1, top):
        for j in range(i + 2, top):
            if j == model.r and i == 1:
                continue
            ups_i = _cols_bead_over_empty(model, i, i + 1)
            ups_j = _cols_bead_over_empty(model, j, j + 1)
            downs_i = _cols_empty_under_bead(model, i, i + 1)
            downs_j = _cols_empty_under_bead(model, j, j + 1)
            if not (ups_i and ups_j and downs_i and downs_j):
                continue
            l, h = ups_i[0], ups_j[0]
            l_, h_ = downs_i[0], downs_j[0]
            bar = model.copy().move((i, l), (i + 1, l)).move((j, h), (j + 1, h))
            l1, l2 = sorted((l, l_))
            h1, h2 = sorted((h, h_))
            mu = bar.copy().move((i + 1, l2), (i, l2)).move((j + 1, h1), (j, h1))
            nu = bar.copy().move((i + 1, l1), (i, l1)).move((j + 1, h2), (j, h2))
            return mu.pair(), nu.pair(), (i, l2) + bar.wrap(j + 1, h1)
    return None


def construct_three_runners(model: _BeadRows):
    """Witness from the three-adjacent-rows patterns."""
    if model.r < 3:
        return None
    top = model.r + (2 if is_finite(model.e) else 0)
    for i in range(1, min(model.r, top - 2) + 1):
        ups1 = _cols_bead_over_empty(model, i, i + 1)[:4]
        downs1 = _cols_empty_under_bead(model, i, i + 1)[:4]
        ups2 = _cols_bead_over_empty(model, i + 1, i + 2)[:4]
        downs2 = _cols_empty_under_bead(model, i + 1, i + 2)[:4]
        for l1 in ups1:
            for l4 in downs2:
                for l2 in downs1:
                    for l3 in ups2:
                        if l1 == l4 and l2 == l3:
                            continue
                        built = _three_runners_cases(model, i, l1, l2, l3, l4)
                        if built:
                            return built
    return None


def _three_runners_cases(model: _BeadRows, i: int, l1: int, l2: int, l3: int, l4: int):
    if l1 != l4 and l2 != l3:
        bar = model.copy().move((i, l1), (i + 1, l1)).move((i + 1, l3), (i + 2, l3))
        h1, h2 = sorted((l1, l2))
        h3, h4 = sorted((l3, l4))
        mu = bar.copy().move((i + 1, h2), (i, h2)).move((i + 2, h3), (i + 1, h3))
        nu = bar.copy().move((i + 1, h1), (i, h1)).move((i + 2, h4), (i + 1, h4))
        return mu.pair(), nu.pair(), (i, h2) + bar.wrap(i + 2, h3)
    if l1 == l4 and l2 != l3:
        if not model.bead(i + 2, l2):
            return _build_two_runners(model, *_wrap_args(model, i + 1, l2, l3))
        bar = model.copy().move((i, l1), (i + 1, l1)).move((i + 1, l3), (i + 2, l3))
        h1, h2 = sorted((l1, l2))
        if l3 > h2 or l3 < h1:
            mu = bar.copy().move((i + 1, h2), (i, h2)).move((i + 2, h2), (i + 1, h2))
            nu = bar.copy().move((i + 1, h1), (i, h1)).move((i + 2, l3), (i + 1, l3))
            coords = (i, h2) + (bar.wrap(i + 2, h2) if l3 > h2 else bar.wrap(i + 1, l3))
            return mu.pair(), nu.pair(), coords
        mu = bar.copy().move((i + 1, h1), (i, h1)).move((i + 2, h1), (i + 1, h1))
        nu = bar.copy().move((i + 2, l3), (i + 1, l3)).move((i + 1, h2), (i, h2))
        return mu.pair(), nu.pair(), bar.wrap(i + 1, h2) + bar.wrap(i + 2, h1)
    # remaining shape (l1 != l4, l2 == l3) is handled on the dual abacus
    return None


def _wrap_args(model: _BeadRows, j: int, h1: int, h2: int):
    if j <= model.r:
        return j, h1, h2
    jj, hh1 = model.wrap(j, h1)
    _, hh2 = model.wrap(j, h2)
    return jj, hh1, hh2


def construct_four_rows_one_column(model: _BeadRows):
    """Witness from one column with beads under holes on four rows."""
    if model.r < 4:
        return None
    for h in _scan_cols(model):
        # scan columns lie above lo, so a row carries a bead there iff its set holds it
        rows_b = [i for i in range(1, model.r + 1) if h in model.rows[i]]
        rows_e = [i for i in range(1, model.r + 1) if h not in model.rows[i]]
        quad = None
        for i1, i2 in combinations(rows_b, 2):
            above = [x for x in rows_e if x > i2]
            if len(above) >= 2:
                quad = (i1, i2, above[0], above[1])
                break
        if not quad:
            continue
        i1, i2, i3, i4 = quad
        h1 = next((x for x in _cols_empty_under_bead(model, i1, i3) if x != h), None)
        h2 = next((x for x in _cols_empty_under_bead(model, i2, i4) if x != h), None)
        if h1 is None or h2 is None:
            continue
        bar = model.copy().move((i1, h), (i3, h)).move((i2, h), (i4, h))
        l1, l3 = sorted((h, h1))
        l2, l4 = sorted((h, h2))
        mu = bar.copy().move((i3, l3), (i1, l3)).move((i4, l2), (i2, l2))
        nu = bar.copy().move((i3, l1), (i1, l1)).move((i4, l4), (i2, l4))
        return mu.pair(), nu.pair(), (i1, l3, i4, l2)
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


def _witness_from(a: AbacusPair, b: AbacusPair, coords, target: BlockId):
    k1, i1, k2, i2 = coords
    if block_id(a) != target or block_id(b) != target:
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


def _witness_by_construction(member: AbacusPair, b: BlockId):
    if not in_Abar(b.charge, b.e):
        charge_norm, sigma = normalize_multicharge(b.charge, b.e)
        member_n = AbacusPair._of(permute(member.mp, sigma), charge_norm, b.e)
        w = _witness_by_construction(member_n, block_id(member_n))
        if w is None:
            return None
        return _transport_witness(w, sigma, b.charge, charge_norm, b.e, b)
    return _constructed_witness(member, b)


def _constructed_witness(member: AbacusPair, b: BlockId):
    """Run the pattern constructions on the member, then on its dual; the
    member lies in ``b`` over a normalized multicharge.

    Every construction needs a bead over a hole, which a complete abacus
    (the core, or its dual) never has, so neither is tried.  The dual is
    built only when the member yields nothing, and each seed is read into
    one scratch model that all four constructions share.
    """
    for dualized in (False, True):
        seed = dual(member) if dualized else member
        model = _BeadRows(seed)
        for build in _CONSTRUCTIONS:
            try:
                built = build(model)
            except ValueError:
                built = None
            if not built:
                continue
            mu, nu, coords = built
            if dualized:
                mu, nu, coords = dual(mu), dual(nu), _dual_coords(seed.r, coords)
            witness = _witness_from(mu, nu, coords, b)
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

    Pattern constructions run first, on a member (a known one may be
    passed in to avoid enumeration) and then on its dual.  They need a
    bead over a hole, which a complete abacus never has, so the block's
    core is not a seed.  An exhaustive pairwise scan of the enumerated
    members (capped at ``pair_budget`` comparisons) is the fallback.
    Returns None when both strategies exhaust; for blocks whose member
    set is totally ordered no witness exists at all.
    """
    members = None
    if member is None:
        members = enumerate_block_members(b, budget=enumeration_budget)
        if not members:
            return None
        member = members[0]
    seed = AbacusPair(member, b.charge, b.e)
    if block_id(seed) != b:
        raise ValueError("the given member does not lie in the block")
    witness = _witness_by_construction(seed, b)
    if witness:
        return witness
    if members is None:
        members = enumerate_block_members(b, budget=enumeration_budget)
    return _witness_by_scan(members, seed.charge, b, pair_budget)


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


def repr_type(p: AbacusPair, witness_budget: int = DEFAULT_PAIR_BUDGET) -> ReprTypeReport:
    """Classify the representation type of the block containing the pair.

    The multicharge is normalized first (reduced mod e and stably
    sorted, permuting components along).  Weight at most one is always
    finite; otherwise the block is finite exactly when the moving vector
    ends in zero and its nonzero entries are a single run of ones over
    equal charge entries (one slot past the run included), in which case
    the block is a truncated polynomial ring of degree weight+1.
    """
    charge_norm, sigma = normalize_multicharge(p.charge, p.e)
    q = AbacusPair._of(permute(p.mp, sigma), charge_norm, p.e)
    mv, _ = block_moving_vector(q)
    w = sum(mv)
    report = dict(
        weight=w,
        moving_vector=mv,
        normalized_charge=charge_norm,
        sigma=sigma,
    )
    r, e = q.r, q.e

    if w == 0:
        return ReprTypeReport(verdict="finite", detail_kind="simple", **report)
    if w == 1:
        return ReprTypeReport(
            verdict="finite",
            detail_kind="brauer_line",
            detail_edges=_brauer_edge_count(mv, charge_norm, e, r),
            **report,
        )
    if r > 2:
        ones = [i for i, m in enumerate(mv) if m == 1]
        consecutive_run = (
            len(ones) == w
            and all(m in (0, 1) for m in mv)
            and ones == list(range(ones[0], ones[0] + w))
        )
        if mv[-1] == 0 and consecutive_run:
            j = ones[0]
            if len(set(charge_norm[j : j + w + 1])) == 1:
                return ReprTypeReport(
                    verdict="finite",
                    detail_kind="truncated_polynomial",
                    detail_degree=w + 1,
                    **report,
                )
    witness = None
    if r >= 2 and witness_budget > 0:
        # find_incomparable_pair's search on q, without re-checking it
        bid = block_id(q)
        try:
            witness = _constructed_witness(q, bid) or _witness_by_scan(
                enumerate_block_members(bid), charge_norm, bid, witness_budget
            )
        except BudgetExceeded:
            witness = None
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
    for mp in enumerate_block_members(b, budget=enumeration_budget):
        for c, moves in _core_counts(AbacusPair._of(mp, charge, b.e))[1].items():
            counts[c] = counts.get(c, 0) + moves
    return {k: v for k, v in sorted(counts.items()) if v}


def derived_equivalent_weight1(b1: BlockId, b2: BlockId) -> bool:
    """Weight-one blocks are derived equivalent iff their subabacus
    moving vectors have the same number of nonzero components."""
    if defect(b1) != 1 or defect(b2) != 1:
        raise ValueError("the invariant only applies to weight-one blocks")
    return len(subabacus_moving_vector(b1)) == len(subabacus_moving_vector(b2))
