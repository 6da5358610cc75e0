import importlib.util
import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akblocks import moves
from akblocks.abacus import AbacusPair, _keeps_block, _moved, _wrap, dual, is_complete
from akblocks.blocks import (
    _Lifts,
    _member_stream,
    alpha_pairing,
    block_id,
    defect,
    enumerate_block_members,
    normalize_multicharge,
    weyl_sigma,
)
from akblocks.classify import (
    _CONSTRUCTIONS,
    DEFAULT_PAIR_BUDGET,
    _RowPairCols,
    _cols_bead_over_empty,
    _cols_empty_under_bead,
    _transport_witness,
    _witness_by_scan,
    block_moving_vector,
    derived_equivalent_weight1,
    find_incomparable_pair,
    incomparable_abaci,
    is_incomparable_witness,
    permutation_for_incomparability,
    repr_type,
    schur_repr_type,
    subabacus_moving_vector,
)
from akblocks.moves import core_and_vector
from akblocks.partitions import (
    INFINITY,
    BudgetExceeded,
    DominanceRel,
    dominance_compare,
    count_standard_tableaux,
    is_finite,
    multipartitions_of,
    permute,
    residue_content,
)
from oracles import (
    blocks_by_filter,
    cols_by_scan,
    constructed_witness_four_seeds,
    derived_equivalent_weight1_by_enumeration,
    incomparable_abaci_by_scan,
    is_incomparable_witness_by_scan,
    row_diffs_by_scan,
    subabacus_moving_vector_by_ops,
    witness_by_member_scan,
)

LAM332 = ((2, 1, 1), (2, 2, 1, 1), (3, 1, 1), (4, 3, 1, 1))
MU332 = ((2, 2, 2), (5, 1, 1, 1), (3,), (4, 2, 1))
S332 = (1, 0, 2, 0)


def weight1_member(a):
    """A member of the weight-one block with charge gap a (e = 5, r = 3)."""
    return AbacusPair(((a + 1,), (), ()), (1, a + 1, a + 2), 5)


def test_witness_checker_accepts_worked_coordinates():
    a = AbacusPair(LAM332, S332, 5)
    b = AbacusPair(MU332, S332, 5)
    assert is_incomparable_witness(a, b, 4, 1, 2, -1)
    assert not is_incomparable_witness(a, b, 2, 1, 2, -1)
    assert incomparable_abaci(a, a) is None
    found = incomparable_abaci(a, b)
    assert found is not None and is_incomparable_witness(a, b, *found)


def test_witness_duality():
    a = AbacusPair(LAM332, S332, 5)
    b = AbacusPair(MU332, S332, 5)
    da, db = dual(a), dual(b)
    assert (incomparable_abaci(a, b) is not None) == (
        incomparable_abaci(da, db) is not None
    )


def test_permutation_for_incomparability():
    a = AbacusPair(LAM332, S332, 5)
    b = AbacusPair(MU332, S332, 5)
    coords = incomparable_abaci(a, b)
    sigma = permutation_for_incomparability(a, b, coords)
    assert (
        dominance_compare(permute(a.mp, sigma), permute(b.mp, sigma))
        is DominanceRel.INCOMPARABLE
    )
    # the worked permutation is one valid answer for the worked coordinates
    assert (
        dominance_compare(permute(a.mp, (4, 1, 3, 2)), permute(b.mp, (4, 1, 3, 2)))
        is DominanceRel.INCOMPARABLE
    )
    with pytest.raises(ValueError):
        permutation_for_incomparability(a, b, (1, 0, 2, 0))


def test_find_incomparable_pair_from_member():
    a = AbacusPair(LAM332, S332, 5)
    w = find_incomparable_pair(block_id(a), member=a.mp)
    assert w is not None
    pa = AbacusPair(w.mu, w.charge, 5)
    pb = AbacusPair(w.nu, w.charge, 5)
    assert block_id(pa) == block_id(a) == block_id(pb)
    assert is_incomparable_witness(pa, pb, *w.coords)


def test_find_incomparable_pair_finite_block_returns_none():
    # a truncated-polynomial block: members form a dominance chain
    p = AbacusPair(((1,), (), (), (), (), ()), (1, 1, 1, 3, 3, 3), 5)
    bid = block_id(p)
    assert find_incomparable_pair(bid, member=p.mp) is None
    members = enumerate_block_members(bid)
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            assert dominance_compare(x, y) is not DominanceRel.INCOMPARABLE


def test_find_incomparable_pair_brute_force_small_block():
    # weight (1,1,1) block at e = 5 with constant multicharge: all members
    # are dominance-comparable and no abacus witness exists at all
    p = AbacusPair(((5,), (), ()), (0, 0, 0), 5)
    bid = block_id(p)
    mv, _ = block_moving_vector(p)
    assert mv == (1, 1, 1)
    assert find_incomparable_pair(bid, member=p.mp) is None
    members = enumerate_block_members(bid)
    assert len(members) == 15
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            assert dominance_compare(x, y) is not DominanceRel.INCOMPARABLE


def test_block_moving_vector_examples():
    e, s = 5, (1, 1, 1, 3, 3, 3)
    lam = ((1,), (), (), (), (), ())
    mu = ((), (), (), (1,), (), ())
    assert block_moving_vector(AbacusPair(lam, s, e))[0] == (1, 1, 0, 0, 0, 0)
    assert block_moving_vector(AbacusPair(mu, s, e))[0] == (0, 0, 0, 1, 1, 0)
    complete = AbacusPair(((), (2,), (1, 1)), (0, 1, 2), 3)
    assert block_moving_vector(complete)[0] == (0, 0, 0)
    with pytest.raises(ValueError):
        block_moving_vector(AbacusPair(LAM332, S332, 5))


def test_block_moving_vector_shared_across_members():
    p = AbacusPair(((2,), (), ()), (0, 1, 1), 3)
    bid = block_id(p)
    expected = block_moving_vector(p)
    for mp in enumerate_block_members(bid):
        assert block_moving_vector(AbacusPair(mp, p.charge, 3)) == expected


def test_repr_type_truncated_polynomial_family():
    e, s = 5, (1, 1, 1, 3, 3, 3)
    for mp, mv in (
        (((1,), (), (), (), (), ()), (1, 1, 0, 0, 0, 0)),
        (((), (), (), (1,), (), ()), (0, 0, 0, 1, 1, 0)),
    ):
        rep = repr_type(AbacusPair(mp, s, e))
        assert rep.verdict == "finite"
        assert rep.detail_kind == "truncated_polynomial"
        assert rep.detail_degree == 3
        assert rep.moving_vector == mv


def test_repr_type_infinite_constant_charge_domino_block():
    rep = repr_type(AbacusPair(((2,), (), ()), (0, 0, 0), 2))
    assert rep.verdict == "infinite"
    assert rep.moving_vector == (1, 1, 1)
    # every member of this block has a single standard tableau
    for mp in enumerate_block_members(block_id(AbacusPair(((2,), (), ()), (0, 0, 0), 2))):
        assert count_standard_tableaux(mp) == 1


def test_repr_type_weight_zero_and_one():
    rep0 = repr_type(AbacusPair(((), (), ()), (0, 1, 2), 3))
    assert rep0.verdict == "finite" and rep0.detail_kind == "simple" and rep0.weight == 0
    rep1 = repr_type(weight1_member(1))
    assert rep1.verdict == "finite"
    assert rep1.detail_kind == "brauer_line"
    assert rep1.weight == 1
    assert rep1.detail_edges == 2  # charge gap 1, so a line with a+1 edges


def test_repr_type_normalizes_multicharge():
    # same block presented over a shuffled, shifted multicharge
    rep = repr_type(AbacusPair(((), (), (), (1,), (), ()), (3, 3, 1 + 5, 3, 1, 1), 5))
    assert rep.verdict == "finite" and rep.detail_kind == "truncated_polynomial"
    assert rep.normalized_charge == (1, 1, 1, 3, 3, 3)


def test_repr_type_infinite_attaches_witness_when_it_exists():
    # two separated runs of ones: an infinite configuration with witnesses
    p = AbacusPair(((1,), (), (1,), ()), (0, 0, 1, 1), 4)
    mv, _ = block_moving_vector(p)
    rep = repr_type(p)
    if rep.verdict == "infinite" and rep.witness is not None:
        pa = AbacusPair(rep.witness.mu, rep.witness.charge, 4)
        pb = AbacusPair(rep.witness.nu, rep.witness.charge, 4)
        assert is_incomparable_witness(pa, pb, *rep.witness.coords)


def test_repr_type_witness_search_reuses_its_core(monkeypatch):
    """repr_type finds the witness find_incomparable_pair finds over the
    normalized pair, by construction on the pair (LAM332) or on the first
    member of the block's stream (the second pair, which with its dual
    yields nothing), and computes the pair's core once, from bead counts:
    no bead path is listed.  The spy counts the pairs passed, so the
    empty multipartition whose tops the member scan reads is no core."""
    for p in (AbacusPair(LAM332, S332, 5), AbacusPair(((), (), (2,)), (0, 0, 1), 2)):
        rep = repr_type(p)
        q = AbacusPair(permute(p.mp, rep.sigma), rep.normalized_charge, p.e)
        assert rep.witness is not None
        assert rep.witness == find_incomparable_pair(block_id(q), member=q.mp)
        cores, paths = [], []
        core_counts, core_paths = moves._core_counts, moves._core_paths
        monkeypatch.setattr(moves, "_core_counts", lambda a, *cols: cores.append(a) or core_counts(a, *cols))
        monkeypatch.setattr(moves, "_core_paths", lambda a: paths.append(a) or core_paths(a))
        assert repr_type(p) == rep
        monkeypatch.undo()
        assert cores.count(q) == 1
        assert paths == []


def test_repr_type_small_rank_weight_rule():
    # rank one or two: finite exactly when the weight is at most one
    assert repr_type(AbacusPair(((1,),), (0,), 3)).verdict == "finite"
    assert repr_type(AbacusPair(((3,),), (0,), 3)).weight == 1
    assert repr_type(AbacusPair(((3, 3),), (0,), 3)).verdict == "infinite"
    assert repr_type(AbacusPair(((1,), (1,)), (0, 1), 2)).verdict == "infinite"
    w1 = repr_type(AbacusPair(((2,), ()), (0, 1), 2))
    assert (w1.verdict == "finite") == (w1.weight <= 1)


def test_schur_repr_type():
    finite3 = repr_type(AbacusPair(((1,), (), (), (), (), ()), (1, 1, 1, 3, 3, 3), 5))
    assert finite3.weight == 2 and schur_repr_type(finite3) == "finite"
    # weight three with Hecke-finite structure is Schur-infinite
    p3 = AbacusPair(((1,), (), (), (), ()), (1, 1, 1, 1, 3), 5)
    rep3 = repr_type(p3)
    if rep3.verdict == "finite":
        assert rep3.weight == 3 and schur_repr_type(rep3) == "infinite"
    rep0 = repr_type(AbacusPair(((), ()), (0, 1), 2))
    assert schur_repr_type(rep0) == "finite"
    rep1 = repr_type(weight1_member(0))
    assert schur_repr_type(rep1) == "finite"


def test_subabacus_moving_vector_weight_one():
    for a in (0, 1, 2):
        bid = block_id(weight1_member(a))
        assert defect(bid) == 1
        members = enumerate_block_members(bid)
        assert len(members) == a + 2
        w = subabacus_moving_vector(bid)
        assert len(w) == a + 2
        assert sum(w.values()) == len(members) * 1


def test_subabacus_moving_vector_weight_zero():
    bid = block_id(AbacusPair(((), (), ()), (0, 1, 2), 3))
    assert subabacus_moving_vector(bid) == {}


def test_subabacus_moving_vector_total():
    # components sum to block size times weight
    for pair in (
        AbacusPair(((1,), (), (), (), (), ()), (1, 1, 1, 3, 3, 3), 5),
        AbacusPair(((2,), (), ()), (0, 0, 0), 2),
    ):
        bid = block_id(pair)
        w = subabacus_moving_vector(bid)
        members = enumerate_block_members(bid)
        assert sum(w.values()) == len(members) * defect(bid)


def test_subabacus_moving_vector_matches_listed_moves_on_sweep(desk_sweep):
    checked = {1: 0, 2: 0}
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        for bid, entries in grouped.items():
            w = defect(bid)
            if w in checked:
                members = [mp for mp, *_ in entries]
                assert subabacus_moving_vector(bid) == subabacus_moving_vector_by_ops(bid, members)
                checked[w] += 1
    assert min(checked.values()) > 100


def test_subabacus_moving_vector_matches_listed_moves_on_raw_charges():
    for e, charge in ((2, (3, -1, 0)), (3, (5, 5, -2)), (4, (-3, 6)), (INFINITY, (2, -1, 0))):
        bids = {
            block_id(AbacusPair(mp, charge, e))
            for n in range(6)
            for mp in multipartitions_of(n, len(charge))
        }
        for bid in bids:
            members = enumerate_block_members(bid)
            assert subabacus_moving_vector(bid) == subabacus_moving_vector_by_ops(bid, members)


def test_derived_equivalence_examples():
    # one-column-box blocks at e = r = 3 share the invariant pairwise
    e, s = 3, (0, 1, 2)
    bids = [
        block_id(AbacusPair(tuple((2,) if k == i else () for k in range(3)), s, e))
        for i in range(3)
    ]
    for bid in bids:
        assert defect(bid) == 1
        assert derived_equivalent_weight1(bids[0], bid)
    counts = {len(subabacus_moving_vector(b)) for b in bids}
    assert counts == {3}
    # gap 0 versus gap 1 blocks differ (2 versus 3 nonzero components)
    assert not derived_equivalent_weight1(
        block_id(weight1_member(0)), block_id(weight1_member(1))
    )
    assert derived_equivalent_weight1(block_id(weight1_member(1)), block_id(weight1_member(1)))
    with pytest.raises(ValueError):
        derived_equivalent_weight1(
            block_id(weight1_member(0)),
            block_id(AbacusPair(((), (), ()), (0, 1, 2), 3)),
        )


def test_derived_equivalence_matches_enumeration_on_sweep(desk_sweep):
    """derived_equivalent_weight1 compares Brauer edge counts read from the
    block's core and vector; its enumeration form counts the nonzero
    components of both subabacus moving vectors from listed moves.  They
    agree on every pair of weight-one blocks of the desk sweep that share
    e and the multicharge, and each block's component count is
    repr_type's edge count plus one, so they agree across settings too."""
    by_setting, pairs = {}, 0
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        for bid, entries in grouped.items():
            if defect(bid) == 1:
                rep = repr_type(AbacusPair(entries[0][0], bid.charge, bid.e))
                assert len(subabacus_moving_vector_by_ops(bid, [mp for mp, *_ in entries])) == rep.detail_edges + 1
                by_setting.setdefault(key, []).append(bid)
    for bids in by_setting.values():
        for i, b1 in enumerate(bids):
            for b2 in bids[i:]:
                assert derived_equivalent_weight1(b1, b2) == derived_equivalent_weight1_by_enumeration(b1, b2)
                pairs += 1
    assert sum(map(len, by_setting.values())) == 505 and pairs == 11722


def test_repr_type_invariant_under_rotation_and_permutation():
    from itertools import permutations

    from akblocks.moves import rotate_rows
    from akblocks.partitions import permute_charge

    rng = random.Random(6)
    base = AbacusPair(((2, 1), (1,), ()), (0, 1, 1), 3)
    rep = repr_type(base)
    for i in range(3):
        assert repr_type(rotate_rows(base, i)).verdict == rep.verdict
    for sigma in permutations((1, 2, 3)):
        shuffled = AbacusPair(
            permute(base.mp, sigma), permute_charge(base.charge, sigma), 3
        )
        assert repr_type(shuffled).verdict == rep.verdict


def test_incomparability_matches_column_scan_on_weight_two_sweep(desk_sweep):
    checked = witnesses = 0
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        e, r, charge = key
        for bid, entries in grouped.items():
            if defect(bid) != 2:
                continue
            pairs = [AbacusPair(mp, charge, e) for mp, *_ in entries]
            for a, b in permutations(pairs, 2):
                coords = incomparable_abaci(a, b)
                assert coords == incomparable_abaci_by_scan(a, b)
                witnesses += coords is not None
                # the end columns of the differences in two distinct rows
                diffs = {k: row_diffs_by_scan(a, b, k) for k in range(1, r + 1)}
                ends = {k: {d[0], d[-1]} for k, d in diffs.items() if d}
                for k1, k2 in permutations(ends, 2):
                    for i1 in ends[k1]:
                        for i2 in ends[k2]:
                            assert is_incomparable_witness(a, b, k1, i1, k2, i2) == (
                                is_incomparable_witness_by_scan(a, b, k1, i1, k2, i2)
                            )
                checked += 1
    assert checked == 10134 and witnesses > 1000


def test_construction_columns_match_column_scan():
    rng = random.Random(11)
    for e in (2, 3, 5, INFINITY):
        for _ in range(30):
            r = rng.randrange(3, 6)
            lengths = [rng.randrange(0, 4) for _ in range(r)]
            mp = tuple(tuple(sorted(rng.choices(range(1, 5), k=k), reverse=True)) for k in lengths)
            charge = tuple(rng.randrange(-3, 5) for _ in range(r))
            pair = AbacusPair(mp, charge, e)
            cols = _RowPairCols(pair)
            # rows above r wrap down by e, as the constructions read them
            top = r + 2 if e != INFINITY else r
            for low in range(1, top + 1):
                for high in range(low + 1, top + 1):
                    assert _cols_bead_over_empty(cols, low, high) == cols_by_scan(
                        pair, low, high, True, False
                    )
                    assert _cols_empty_under_bead(cols, low, high) == cols_by_scan(
                        pair, low, high, False, True
                    )


def _fitted_move(rng, b, src_row, dst_row, cols):
    """A (src, dst) move that ``_moved`` accepts on ``b``, rows above r
    wrapping down by e: in one column of ``cols`` when they are given
    (None if none fits), else from random columns with src slid down to
    a bead and dst up to a hole."""
    bead = lambda row, col: b.has_bead(*_wrap(b, row, col))
    if cols is None:
        src, dst = rng.randrange(-8, 13), rng.randrange(-8, 13)
        while not bead(src_row, src):
            src -= 1
        while bead(dst_row, dst):
            dst += 1
        return (src_row, src), (dst_row, dst)
    fits = [c for c in cols if bead(src_row, c) and not bead(dst_row, c)]
    if not fits:
        return None
    c = rng.choice(fits)
    return (src_row, c), (dst_row, c)


def _drawn_moves(rng, a, kind):
    """Two or four moves on ``a`` that ``_moved`` accepts, each between two
    distinct rows of 1..r (1..2r with finite e).  A "keep" list is made of
    same-column row swaps that restore every row's bead count: a bead
    goes from row i to row j in one column and one from j back to i in
    another, so the block is kept.  A "skew" list sends the second bead
    of each swap to a row drawn at random instead of i, and a "free" list
    draws its columns too.  A list is cut to whole swaps, and may come
    out empty, where no column fits."""
    top = 2 * a.r if is_finite(a.e) else a.r
    step = a.e if is_finite(a.e) else 1
    lo, hi = a.bounds()
    cols = None if kind == "free" else range(lo - 2 * step, hi + 2 * step)
    moves = []
    for _ in range(rng.randrange(1, 3)):
        i, j = rng.sample(range(1, top + 1), 2)
        back = i if kind == "keep" else rng.choice([row for row in range(1, top + 1) if row != j])
        for src_row, dst_row in ((i, j), (j, back)):
            move = _fitted_move(rng, _moved(a, *moves), src_row, dst_row, cols)
            if move is None:
                return moves[: len(moves) // 2 * 2]
            moves.append(move)
    return moves


def test_move_check_matches_block_id_on_drawn_moves():
    """The move check on lists that ``_moved`` accepts equals comparing the
    block ids before and after, on pairs drawn as the bead-move rebuild
    test draws them (e in {2, 3, 5, infinite}, unsorted charges, rows above
    r wrapping).  Half the lists are built to keep the block; of the rest,
    the skewed same-column ones can keep the column multiset but not the
    rows' bead counts."""
    rng = random.Random(22)
    answers = {True: 0, False: 0}
    for e in (2, 3, 5, INFINITY):
        for k in range(160):
            r = rng.randrange(1 if is_finite(e) else 2, 6)  # two rows to move between
            mp = tuple(tuple(sorted(rng.choices(range(1, 9), k=rng.randrange(0, 7)), reverse=True)) for _ in range(r))
            a = AbacusPair(mp, tuple(rng.randrange(-20, 21) for _ in range(r)), e)
            kind = ("keep", "skew", "keep", "free")[k % 4]
            moves = _drawn_moves(rng, a, kind)
            if not moves:
                continue
            kept = _keeps_block(a, moves)
            assert kept == (block_id(_moved(a, *moves)) == block_id(a))
            assert kept or kind != "keep"
            answers[kept] += 1
    assert answers == {True: 288, False: 199}


def test_move_check_matches_block_id_on_sweep_constructions(desk_sweep):
    """Every candidate the constructions build on each sweep block's
    first-seen member and on its dual (1,348 pairs, two move lists each,
    all of which ``_moved`` accepts): the move check agrees with the block
    ids, and here every candidate keeps the block."""
    checked = kept = 0
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        e, r, charge = key
        for entries in grouped.values():
            member = AbacusPair(entries[0][0], charge, e)
            for seed in (member, dual(member)):
                cols, target = _RowPairCols(seed), block_id(seed)
                for build in _CONSTRUCTIONS:
                    for moves in (build(cols) or ())[:2]:
                        keeps = _keeps_block(seed, moves)
                        assert keeps == (block_id(_moved(seed, *moves)) == target)
                        checked += 1
                        kept += keeps
    assert (checked, kept) == (2696, 2696)


def _assert_valid_witness(w, bid):
    """Both abaci lie in ``bid``, the coordinates pass the checker and the
    permuted pair is dominance-incomparable."""
    pa = AbacusPair(w.mu, w.charge, bid.e)
    pb = AbacusPair(w.nu, w.charge, bid.e)
    assert block_id(pa) == bid == block_id(pb)
    assert is_incomparable_witness(pa, pb, *w.coords)
    assert dominance_compare(permute(w.mu, w.sigma), permute(w.nu, w.sigma)) is DominanceRel.INCOMPARABLE


def test_witness_search_matches_four_seed_oracle_on_sweep(desk_sweep, monkeypatch):
    """Every sweep block, seeded with its first member in sorted order.
    Where the four-seed constructions on that member settle the block,
    repr_type and find_incomparable_pair with the member return their
    witness, and find_incomparable_pair without a member returns the one
    they build on the stream's first member, if they build one there.
    Everywhere, each call's witness is valid, and one is found exactly
    when the pairwise scan over all members finds one.  Inside repr_type
    the scan runs for criterion 12's seven blocks alone: infinite type,
    no witness, all-ones moving vector over a constant multicharge."""
    reached = []
    monkeypatch.setattr(
        "akblocks.classify._witness_by_scan",
        lambda members, charge, b, budget: reached.append(b) or _witness_by_scan(members, charge, b, budget),
    )
    blocks = witnessed = settled = 0
    scanned_by_repr_type, witness_free = set(), set()
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        e, r, charge = key
        for bid, entries in grouped.items():
            members = sorted(mp for mp, *_ in entries)
            seed = AbacusPair(members[0], charge, e)
            core_pair = entries[0][1]
            found = _witness_by_scan(members, charge, bid, DEFAULT_PAIR_BUDGET) is not None
            reached.clear()
            rep = repr_type(seed)
            if reached:
                scanned_by_repr_type.add(bid)
            assert rep.sigma == tuple(range(1, r + 1))
            by_member = find_incomparable_pair(bid, member=seed.mp)
            by_stream = find_incomparable_pair(bid)
            calls = [by_member, by_stream]
            if rep.verdict == "infinite":
                calls.append(rep.witness)
                if not found:
                    witness_free.add(bid)
                    assert rep.moving_vector == (1,) * r and len(set(charge)) == 1
            else:
                assert rep.witness is None
            for w in calls:
                assert (w is not None) == found
                if w is not None:
                    _assert_valid_witness(w, bid)
            expected = constructed_witness_four_seeds(seed, core_pair, bid)
            if expected is not None:
                settled += 1
                assert by_member == expected
                assert rep.witness == (expected if rep.verdict == "infinite" else None)
            first = AbacusPair(next(_member_stream(bid)), charge, e)
            from_first = constructed_witness_four_seeds(first, core_pair, bid)
            if from_first is not None:
                assert by_stream == from_first
            blocks += 1
            witnessed += found
    assert blocks == 2577 and witnessed == 1259
    assert len(witness_free) == 7 and scanned_by_repr_type == witness_free
    assert settled == 655


def large_inputs(seed):
    """The job list of one pass of the benchmark's ``large`` workload."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.Large().inputs(seed)


def test_witness_search_matches_four_seed_oracle_on_large_inputs():
    """The large workload's seed-1 pairs (n from 100 to 1000, some raw
    multicharges): repr_type and find_incomparable_pair with the member
    return the four-seed constructions' witness, carried back to the raw
    multicharge where there is one."""
    inputs = large_inputs(1)
    infinite = 0
    for e, charge, mp, _ in inputs:
        p = AbacusPair(mp, charge, e)
        rep = repr_type(p)
        if rep.verdict != "infinite":
            assert rep.witness is None
            continue
        infinite += 1
        q = AbacusPair(permute(mp, rep.sigma), rep.normalized_charge, e)
        bid = block_id(q)
        expected = constructed_witness_four_seeds(q, core_and_vector(q)[0], bid)
        assert expected is not None
        assert rep.witness == expected
        assert find_incomparable_pair(bid, member=q.mp) == expected
        if q != p:
            raw = block_id(p)
            carried = _transport_witness(expected, rep.sigma, charge, rep.normalized_charge, e, raw)
            assert find_incomparable_pair(raw, member=mp) == carried is not None
    assert len(inputs) == 256 and infinite > 200


RAW_CHARGES = (
    (2, (3, -1, 0)),
    (3, (5, 5, -2)),
    (4, (-3, 6)),
    (INFINITY, (2, -1, 0)),
    (3, (4, -1)),
    (2, (1, 0)),
    (5, (7, 0)),
    (INFINITY, (3, 0)),
    (3, (2, -4, 1, 0)),
)


def test_find_incomparable_pair_on_raw_multicharges_matches_member_scan():
    """Over a raw multicharge (unsorted, shifted, negative) the search runs
    over the normalized block and carries its witness back.  On every block
    of n <= 8 (r = 2), 6 (r = 3) and 5 (r = 4) of nine raw settings,
    find_incomparable_pair without a member returns a witness valid for the
    raw block exactly when the column-scan oracle finds one among the
    ordered pairs of its members; at r = 2 the pairwise scan is often the
    only finder."""
    blocks = witnessed = witnessed_r2 = 0
    for e, charge in RAW_CHARGES:
        for n in range({2: 9, 3: 7, 4: 6}[len(charge)]):
            for bid, members in blocks_by_filter(e, charge, n).items():
                w = find_incomparable_pair(bid)
                found = witness_by_member_scan(bid, members) is not None
                assert (w is not None) == found, bid
                if w is not None:
                    _assert_valid_witness(w, bid)
                    assert w.charge == charge
                blocks += 1
                witnessed += found
                witnessed_r2 += found and len(charge) == 2
    assert (blocks, witnessed, witnessed_r2) == (761, 117, 60)


def test_rank_one_blocks_have_no_witness_and_open_no_stream(monkeypatch):
    """A witness needs two distinct rows, so on a block of rank one both
    find_incomparable_pair and repr_type answer without a search: no member
    stream is opened and the enumeration budget is never checked, although
    p_1(90) passes the default budget."""
    streams = []
    monkeypatch.setattr("akblocks.classify._member_stream", lambda b, budget: streams.append(b) or _member_stream(b, budget))
    for p in (AbacusPair(((30, 30, 30),), (0,), 3), AbacusPair(((4, 4),), (-5,), 2)):
        bid = block_id(p)
        assert find_incomparable_pair(bid, enumeration_budget=0) is None
        assert find_incomparable_pair(bid, member=p.mp, enumeration_budget=0) is None
        rep = repr_type(p)
        assert rep.verdict == "infinite" and rep.witness is None
    assert streams == []


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5, INFINITY)),
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 4), max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True))),
            st.integers(-6, 9),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_constructions_never_fire_on_a_core_or_its_dual(e, rows):
    """A core is complete, so no row carries a bead over a hole of the next
    row; neither does its dual, and no construction builds anything."""
    mp, charge = tuple(p for p, _ in rows), tuple(s for _, s in rows)
    core_pair, _ = core_and_vector(AbacusPair(mp, charge, e))
    for seed in (core_pair, dual(core_pair)):
        assert is_complete(seed)
        cols = _RowPairCols(seed)
        for build in _CONSTRUCTIONS:
            assert build(cols) is None


def test_construction_memo_matches_fresh_model_and_column_scan():
    """All four constructions share one column memo and leave its seed as
    it was, and every memoized column list is the column scan's."""
    rng = random.Random(12)
    memoized = 0
    for e in (2, 3, 5, INFINITY):
        for _ in range(40):
            r = rng.randrange(2, 7)
            mp = tuple(
                tuple(sorted(rng.choices(range(1, 6), k=rng.randrange(0, 5)), reverse=True))
                for _ in range(r)
            )
            pair = AbacusPair(mp, tuple(rng.randrange(-3, 6) for _ in range(r)), e)
            cols = _RowPairCols(pair)
            for build in _CONSTRUCTIONS:
                try:
                    build(cols)
                except ValueError:
                    pass
            assert cols.seed is pair and pair._beadsets == AbacusPair(mp, pair.charge, e)._beadsets
            assert cols
            for (low, high), (up, down) in cols.items():
                assert up == cols_by_scan(pair, low, high, True, False)
                assert down == cols_by_scan(pair, low, high, False, True)
                memoized += 1
    assert memoized > 500


def test_find_incomparable_pair_from_member_computes_no_core(monkeypatch):
    """The constructions seed on the member and its dual, so a search that
    a construction settles never computes the core of a member.  The one
    bead count it takes is the verdict's, on the empty multipartition
    over the normalized multicharge, and no bead path is listed."""
    core_counts, core_paths = moves._core_counts, moves._core_paths
    calls = []
    monkeypatch.setattr(moves, "_core_counts", lambda a, *cols: calls.append(a) or core_counts(a, *cols))
    monkeypatch.setattr(moves, "_core_paths", lambda a: calls.append(a) or core_paths(a))
    pairs = (AbacusPair(LAM332, S332, 5), AbacusPair(((), (), (3,)), (0, 1, 1), 2))
    for p in pairs:
        assert find_incomparable_pair(block_id(p), member=p.mp) is not None
    empties = [AbacusPair(((),) * p.r, normalize_multicharge(p.charge, p.e)[0], p.e) for p in pairs]
    assert calls == empties


def test_repr_type_builds_no_lift_table_on_large_inputs(monkeypatch):
    """Every infinite large seed-1 block is certified by its member or
    its dual, so repr_type never opens the member stream: no lift table
    is built for these n = 100 to 1000 blocks."""
    lifts, streams = [], []
    monkeypatch.setattr("akblocks.blocks._Lifts", lambda *args: lifts.append(args) or _Lifts(*args))
    monkeypatch.setattr("akblocks.classify._member_stream", lambda b, budget: streams.append(b) or _member_stream(b, budget))
    witnessed = 0
    for e, charge, mp, _ in large_inputs(1):
        witnessed += repr_type(AbacusPair(mp, charge, e)).witness is not None
    assert lifts == streams == [] and witnessed > 200


def test_repr_type_computes_no_residue_content_on_large_inputs(monkeypatch):
    """The witnesses of the large seed-1 pairs are built on the member or
    its dual and checked from their moves, and the member stream never
    opens, so repr_type computes no block id: residue_content, which
    block_id computes through, is never called."""
    contents = []
    monkeypatch.setattr(
        "akblocks.blocks.residue_content", lambda *args: contents.append(args) or residue_content(*args)
    )
    reports = [repr_type(AbacusPair(mp, charge, e)) for e, charge, mp, _ in large_inputs(1)]
    assert contents == []
    assert sum(rep.witness is not None for rep in reports) == 240
    block_id(AbacusPair(((1,),), (0,), 2))  # the spy sees block_id's one call
    assert len(contents) == 1


def test_find_incomparable_pair_reads_one_member_of_the_quickstart_block(monkeypatch):
    """Without a member, the search seeds on the stream's first member;
    on the README quickstart block that member settles it, so one of its
    3,428 members is read and the rest are never built."""
    bid = block_id(AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3))
    read = []

    def counted(b, budget):
        for mp in _member_stream(b, budget):
            read.append(mp)
            yield mp

    monkeypatch.setattr("akblocks.classify._member_stream", counted)
    w = find_incomparable_pair(bid)
    assert w is not None and len(read) == 1
    _assert_valid_witness(w, bid)
    assert len(enumerate_block_members(bid)) == 3428


def test_find_incomparable_pair_on_finite_blocks_opens_no_stream(monkeypatch):
    """A block of finite type has no witness, so the verdict answers None
    from the block's core and vector alone: no member stream is opened,
    no lift table is built, and the enumeration budget is never checked,
    with or without a member.  The blocks are a weight-one block and a
    truncated-polynomial one (weight 2, vector (1, 1, 0, 0, 0, 0))."""
    lifts, streams = [], []
    monkeypatch.setattr("akblocks.blocks._Lifts", lambda *args: lifts.append(args) or _Lifts(*args))
    monkeypatch.setattr("akblocks.classify._member_stream", lambda b, budget: streams.append(b) or _member_stream(b, budget))
    finite = (weight1_member(2), AbacusPair(((1,), (), (), (), (), ()), (1, 1, 1, 3, 3, 3), 5))
    for p in finite:
        bid = block_id(p)
        assert repr_type(p).verdict == "finite"
        assert find_incomparable_pair(bid) is None
        assert find_incomparable_pair(bid, member=p.mp, enumeration_budget=0) is None
    assert [defect(block_id(p)) for p in finite] == [1, 2]
    assert lifts == streams == []
    # an infinite block still opens the stream once its member and dual fail
    p = AbacusPair(((2,), (), ()), (0, 0, 0), 2)
    assert find_incomparable_pair(block_id(p), member=p.mp) is None
    assert len(streams) == 1 and lifts


def test_block_queries_on_1500_subabaci():
    """The witness search and the subabacus moving vector stream the
    members of an e = 1500 block, one lift table per residue, past
    Python's default recursion limit."""
    p = AbacusPair(((1, 1), (), (1,)), (0, 0, 0), 1500)
    bid = block_id(p)
    w = find_incomparable_pair(bid)
    assert w is not None and repr_type(p).verdict == "infinite"
    _assert_valid_witness(w, bid)
    members = enumerate_block_members(bid)
    assert subabacus_moving_vector(bid) == subabacus_moving_vector_by_ops(bid, members) == {0: 6, 1498: 6, 1499: 6}


def test_first_member_of_the_quickstart_block_builds_few_lifts(monkeypatch):
    """Each subabacus's lift table builds a size only when the tally search
    asks for it, and the search tries the sizes from an even share of the
    rest upward first.  On the README quickstart block (e = 3, weight 12,
    vector (4, 4, 4)), the first member builds the lifts of the partitions
    of at most 4 on each of the three subabaci, 12 of each table's 243;
    the whole enumeration builds all 243."""
    tables = []
    monkeypatch.setattr("akblocks.blocks._Lifts", lambda *args: tables.append(_Lifts(*args)) or tables[-1])

    def built():
        # a tally's lifts are filed by row, so row 0's entry has one set per lift
        return [sum(len(by_row[0]) for groups in table.values() for by_row in groups.values()) for table in tables]

    bid = block_id(AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3))
    stream = _member_stream(bid)
    next(stream)
    assert built() == [12, 12, 12]
    assert len(list(stream)) == 3427
    assert built() == [243, 243, 243]


def test_find_incomparable_pair_gates_before_any_lift_table(monkeypatch):
    """An over-budget block raises BudgetExceeded from the stream's first
    next(), before a lift table is built."""
    lifts = []
    monkeypatch.setattr("akblocks.blocks._Lifts", lambda *args: lifts.append(args) or _Lifts(*args))
    bid = block_id(AbacusPair(((2,), (), ()), (0, 0, 0), 2))
    with pytest.raises(BudgetExceeded) as err:
        find_incomparable_pair(bid, enumeration_budget=3)
    assert err.value.estimate == 9 and lifts == []
    assert find_incomparable_pair(bid) is None and lifts


def test_repr_type_reads_982_stream_members_on_sweep(desk_sweep, monkeypatch):
    """The witness search reads the member stream in its order, so the
    order sets its cost: run on each desk-sweep block's first-seen pair,
    repr_type reads 982 stream members in all."""
    read = []

    def counted(b, budget):
        for mp in _member_stream(b, budget):
            read.append(mp)
            yield mp

    monkeypatch.setattr("akblocks.classify._member_stream", counted)
    blocks = 0
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        e, r, charge = key
        for entries in grouped.values():
            repr_type(AbacusPair(entries[0][0], charge, e))
            blocks += 1
    assert blocks == 2577 and len(read) == 982


def _verdict_fields(p):
    rep = repr_type(p, witness_budget=0)
    return rep.verdict, rep.weight, rep.detail_kind, rep.detail_edges, rep.detail_degree


def test_repr_type_is_constant_on_weyl_orbits():
    """Blocks of one affine Weyl orbit are derived equivalent
    (Chuang-Rouquier), hence stably equivalent (Rickard), so they share
    their representation type (Krause), and at weight one their Brauer
    trees have the same number of edges.  From every block of n <= 4 over
    fifteen seeded (e, multicharge) settings, one member is reflected by
    weyl_sigma along every index that raises n, to depth 3 and n <= 40;
    each reflected block keeps the verdict, weight and detail fields."""
    rng = random.Random(6)
    kinds = {}  # detail_kind (None for infinite type) -> reflected blocks checked
    for e in (2, 3, 4, 5, INFINITY):
        for r in (2, 3, 4):
            charge = tuple(rng.randrange(e if e != INFINITY else 4) for _ in range(r))
            first = {}
            for n in range(5):
                for mp in multipartitions_of(n, r):
                    first.setdefault(block_id(AbacusPair(mp, charge, e)), AbacusPair(mp, charge, e))
            for source in first.values():
                expected = _verdict_fields(source)
                seen, frontier = {block_id(source)}, [source]
                for _ in range(3):
                    reflected = []
                    for p in frontier:
                        b = block_id(p)
                        if e == INFINITY:
                            support = set(charge) | {f for f, _ in b.content}
                            indices = range(min(support) - 1, max(support) + 2)
                        else:
                            indices = range(e)
                        for j in indices:
                            if 0 < alpha_pairing(b, j) <= 40 - p.n:
                                q = weyl_sigma(p, j)
                                if block_id(q) not in seen:
                                    seen.add(block_id(q))
                                    reflected.append(q)
                    for q in reflected:
                        assert _verdict_fields(q) == expected, (source, q)
                        kinds[expected[2]] = kinds.get(expected[2], 0) + 1
                    frontier = reflected
    assert kinds == {"simple": 2844, "brauer_line": 1249, "truncated_polynomial": 81, None: 1885}
