import random

import pytest

from akblocks.abacus import AbacusPair, subabacus_diff
from akblocks.blocks import (
    BlockId,
    BudgetExceeded,
    CartanData,
    alpha_pairing,
    block_id,
    defect,
    enumerate_block_members,
    normalize_multicharge,
    orbit_reachable,
    weyl_sigma,
)
from akblocks.classify import block_moving_vector
from akblocks.moves import core
from akblocks.partitions import INFINITY, in_A, permute, permute_charge
from oracles import alpha_pairing_pairwise, defect_pairwise, tally_residues


def random_pair(rng, e, r):
    mp = tuple(
        tuple(sorted((rng.randrange(1, 5) for _ in range(rng.randrange(0, 3))), reverse=True))
        for _ in range(r)
    )
    charge = tuple(rng.randrange(-2, 4) for _ in range(r))
    return AbacusPair(mp, charge, e)


def test_cartan_matrix():
    c2 = CartanData(2)
    assert c2.alpha_alpha(0, 0) == 2 and c2.alpha_alpha(0, 1) == -2
    c5 = CartanData(5)
    assert c5.alpha_alpha(0, 1) == -1
    assert c5.alpha_alpha(0, 4) == -1  # cyclic neighbours
    assert c5.alpha_alpha(0, 2) == 0
    cinf = CartanData(INFINITY)
    assert cinf.alpha_alpha(3, 4) == -1 and cinf.alpha_alpha(3, 5) == 0


def test_block_id_examples():
    empty = AbacusPair(((), (), ()), (0, 1, 0), 3)
    bid = block_id(empty)
    assert bid.content == () and bid.n == 0
    src = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    tgt = AbacusPair(((), (4, 3, 1), (3, 2)), (0, 1, 2), 3)
    assert block_id(src).n == 16 and block_id(tgt).n == 13
    assert block_id(src) != block_id(tgt)
    assert block_id(src).content_dict() == tally_residues(src.mp, src.charge, 3)


def test_defect_examples():
    empty = AbacusPair(((), (), ()), (0, 1, 2), 3)
    assert defect(block_id(empty)) == 0
    src = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    tgt = AbacusPair(((), (4, 3, 1), (3, 2)), (0, 1, 2), 3)
    # four moves separate the two pairs, so their move counts to the
    # common core differ by four
    _, ops_src, _ = core(src)
    _, ops_tgt, _ = core(tgt)
    assert len(ops_src) - len(ops_tgt) == 4
    # the defect equals the move count only over a weakly increasing
    # multicharge: it does for the target but not for the source
    assert defect(block_id(tgt)) == len(ops_tgt) == 9
    assert defect(block_id(src)) == 12 and len(ops_src) == 13


def test_weight_equals_moving_vector_sum_random():
    rng = random.Random(91)
    for e in (2, 3, INFINITY):
        for _ in range(40):
            r = rng.randrange(1, 5)
            charge = tuple(sorted(rng.randrange(0, (2 if e == INFINITY else e) + 1) for _ in range(r)))
            a = random_pair(rng, e, r)
            a = AbacusPair(a.mp, charge, e)
            _, _, mv = core(a)
            assert sum(mv) == defect(block_id(a))


def test_weyl_sigma_properties():
    rng = random.Random(17)
    for e in (2, 3, 5, INFINITY):
        for _ in range(30):
            r = rng.randrange(1, 4)
            a = random_pair(rng, e, r)
            residues = range(e) if e != INFINITY else range(-4, 8)
            for j in residues:
                b = weyl_sigma(a, j)
                assert b.charge == a.charge
                assert weyl_sigma(b, j) == a
                shift = subabacus_diff(a, j)
                ca, cb = block_id(a).content_dict(), block_id(b).content_dict()
                diff = {f: cb.get(f, 0) - ca.get(f, 0) for f in set(ca) | set(cb)}
                jr = j if e == INFINITY else j % e
                assert all(v == 0 for f, v in diff.items() if f != jr)
                assert diff.get(jr, 0) == shift
                assert shift == alpha_pairing(block_id(a), j)


def test_weyl_reflection_formula():
    # (alpha_j, Lambda - beta') = -(alpha_j, Lambda - beta) after reflecting at j
    rng = random.Random(29)
    for e in (2, 3):
        for _ in range(20):
            a = random_pair(rng, e, 3)
            for j in range(e):
                b = weyl_sigma(a, j)
                assert alpha_pairing(block_id(b), j) == -alpha_pairing(block_id(a), j)


def test_normalize_multicharge():
    norm, sigma = normalize_multicharge((1, 0, 2, 0), 5)
    assert norm == (0, 0, 1, 2)
    assert sigma == (2, 4, 1, 3)
    assert permute_charge((1, 0, 2, 0), sigma) == (0, 0, 1, 2)
    norm2, sigma2 = normalize_multicharge((0, 1, 3), 5)
    assert norm2 == (0, 1, 3) and sigma2 == (1, 2, 3)
    for charge, e in (((7, -1, 3), 4), ((0, 0, 0), 2), ((5, 2, 2), INFINITY)):
        norm3, _ = normalize_multicharge(charge, e)
        assert in_A(norm3, e)


def test_enumerate_block_members_examples():
    # constant multicharge at e=2: the one-domino block has 2r members
    p = AbacusPair(((2,), (), ()), (0, 0, 0), 2)
    members = enumerate_block_members(block_id(p))
    assert len(members) == 6
    for mp in members:
        nonempty = [c for c in mp if c]
        assert len(nonempty) == 1 and nonempty[0] in ((2,), (1, 1))
    empty = AbacusPair(((), ()), (0, 1), 3)
    assert enumerate_block_members(block_id(empty)) == [((), ())]


def test_enumerate_block_budget():
    p = AbacusPair(((2,), (), ()), (0, 0, 0), 2)
    with pytest.raises(BudgetExceeded) as err:
        enumerate_block_members(block_id(p), budget=3)
    assert err.value.estimate == 9


def test_members_share_core_and_vector():
    p = AbacusPair(((2,), (), ()), (0, 0, 0), 2)
    expected_mv, expected_core = block_moving_vector(p)
    for mp in enumerate_block_members(block_id(p)):
        mv, core_pair = block_moving_vector(AbacusPair(mp, (0, 0, 0), 2))
        assert mv == expected_mv and core_pair == expected_core


def test_orbit_reachable():
    a = AbacusPair(((1,), (), ()), (0, 0, 0), 2)
    bid = block_id(a)
    assert orbit_reachable(bid, bid, 5).found
    assert orbit_reachable(bid, bid, 5).word == ()
    # a single reflection away
    b = weyl_sigma(a, 1)
    res = orbit_reachable(bid, block_id(b), 5)
    assert res.found and len(res.word) == 1
    # blocks over different dominant weights are rejected
    other = AbacusPair(((1,), (), ()), (0, 1, 0), 2)
    with pytest.raises(ValueError):
        orbit_reachable(bid, block_id(other), 5)


def test_orbit_separation_same_weight_blocks():
    # one-column-box blocks at e = r = 3 are pairwise unreachable within 20
    e, s = 3, (0, 1, 2)
    bids = []
    for i in range(3):
        mp = tuple((2,) if k == i else () for k in range(3))
        bids.append(block_id(AbacusPair(mp, s, e)))
    for i in range(3):
        for j in range(i + 1, 3):
            res = orbit_reachable(bids[i], bids[j], 20)
            assert not res.found and res.depth == 20


def test_defect_invariant_under_reflection_words():
    rng = random.Random(12)
    for e in (2, 3, INFINITY):
        for _ in range(20):
            r = rng.randrange(1, 4)
            a = random_pair(rng, e, r)
            w = defect(block_id(a))
            current = a
            for _ in range(rng.randrange(1, 11)):
                j = rng.randrange(e) if e != INFINITY else rng.randrange(-3, 6)
                current = weyl_sigma(current, j)
                assert defect(block_id(current)) == w


def test_block_id_invariant_under_permutation():
    rng = random.Random(3)
    from itertools import permutations

    for _ in range(10):
        a = random_pair(rng, 3, 3)
        bid = block_id(a)
        for sigma in permutations((1, 2, 3)):
            b = AbacusPair(permute(a.mp, sigma), permute_charge(a.charge, sigma), 3)
            assert block_id(b).content == bid.content


def test_empty_core_iff_nonnegative_pairings():
    rng = random.Random(83)
    for e in (2, 3):
        for _ in range(40):
            r = rng.randrange(1, 4)
            charge = tuple(sorted(rng.randrange(0, e + 1) for _ in range(r)))
            a = random_pair(rng, e, r)
            a = AbacusPair(a.mp, charge, e)
            core_pair, _, _ = core(a)
            bid = block_id(a)
            nonneg = all(alpha_pairing(bid, j) >= 0 for j in range(e))
            assert (core_pair.mp == ((),) * r) == nonneg


def pairing_indices(bid):
    if bid.e != INFINITY:
        return range(bid.e)
    support = [i for i, _ in bid.content] + list(bid.charge)
    return range(min(support) - 2, max(support) + 3)


def test_closed_form_pairings_match_pairwise_sums_on_sweep(desk_sweep):
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        for bid in grouped:
            assert defect(bid) == defect_pairwise(bid)
            for j in pairing_indices(bid):
                assert alpha_pairing(bid, j) == alpha_pairing_pairwise(bid, j)


def test_closed_form_pairings_match_pairwise_sums_on_wide_contents():
    rng = random.Random(61)
    for e in (2, 3, 5, INFINITY, INFINITY):
        for _ in range(30):
            charge = tuple(rng.randrange(-30, 30) for _ in range(rng.randrange(1, 6)))
            if e == INFINITY:
                lo = rng.randrange(-40, 10)
                keys = range(lo, lo + rng.randrange(1, 60))
            else:
                keys = range(e)
            content = {i: rng.randrange(1, 9) for i in keys if rng.random() < 0.7}
            bid = BlockId(e, charge, tuple(sorted(content.items())), sum(content.values()))
            assert defect(bid) == defect_pairwise(bid)
            for j in pairing_indices(bid):
                assert alpha_pairing(bid, j) == alpha_pairing_pairwise(bid, j)
