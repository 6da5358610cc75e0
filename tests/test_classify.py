import random
from itertools import permutations

import pytest

from akblocks.abacus import AbacusPair, dual
from akblocks.blocks import block_id, defect, enumerate_block_members
from akblocks.classify import (
    _BeadRows,
    _cols_bead_over_empty,
    _cols_empty_under_bead,
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
from akblocks.partitions import (
    INFINITY,
    DominanceRel,
    dominance_compare,
    count_standard_tableaux,
    multipartitions_of,
    permute,
)
from oracles import (
    cols_by_scan,
    incomparable_abaci_by_scan,
    is_incomparable_witness_by_scan,
    row_diffs_by_scan,
    subabacus_moving_vector_by_ops,
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
            model = _BeadRows(AbacusPair(mp, charge, e))
            # rows above r wrap down by e, as the constructions read them
            top = r + 2 if e != INFINITY else r
            for low in range(1, top + 1):
                for high in range(low + 1, top + 1):
                    assert _cols_bead_over_empty(model, low, high) == cols_by_scan(
                        model, low, high, True, False
                    )
                    assert _cols_empty_under_bead(model, low, high) == cols_by_scan(
                        model, low, high, False, True
                    )
