import random
import time
from itertools import combinations

import pytest

from akblocks.abacus import AbacusPair, subabacus_diff
from akblocks.blocks import (
    BlockId,
    BudgetExceeded,
    CartanData,
    _block_core,
    _check_budget,
    _member_stream,
    _pairing,
    alpha_pairing,
    block_id,
    defect,
    enumerate_block_members,
    normalize_multicharge,
    orbit_reachable,
    weight_multiplicities,
    weyl_sigma,
)
from akblocks.classify import block_moving_vector, derived_equivalent_weight1, repr_type
from akblocks.moves import _core_charges, _core_pair, _core_rows, core
from akblocks.partitions import INFINITY, count_multipartitions, in_A, permute, permute_charge
from oracles import (
    alpha_pairing_pairwise,
    block_members_by_filter,
    blocks_by_filter,
    defect_pairwise,
    member_stream_by_level_dicts,
    orbit_reachable_by_bfs,
    tally_residues,
    witness_by_member_scan,
)


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


@pytest.mark.parametrize("j", [1.5, True, "2"])
def test_weyl_sigma_rejects_non_integers(j):
    with pytest.raises(ValueError, match="integers"):
        weyl_sigma(AbacusPair(((2, 1), (1,)), (0, 1), 3), j)


def test_weyl_reflection_formula():
    # (alpha_j, Lambda - beta') = -(alpha_j, Lambda - beta) after reflecting at j
    rng = random.Random(29)
    for e in (2, 3):
        for _ in range(20):
            a = random_pair(rng, e, 3)
            for j in range(e):
                b = weyl_sigma(a, j)
                assert alpha_pairing(block_id(b), j) == -alpha_pairing(block_id(a), j)


@pytest.mark.parametrize("charge", [(True, 0), (0.5, 1), ("1",)])
def test_normalize_multicharge_rejects_non_integers(charge):
    """A bool, a float or a string entry is refused, as AbacusPair refuses
    it, rather than reduced as a number or failing inside the sort."""
    with pytest.raises(ValueError, match="multicharge entries must be integers"):
        normalize_multicharge(charge, 2)


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


def test_enumerate_block_members_match_filter_on_sweep(desk_sweep):
    blocks = 0
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        for bid in grouped:
            assert enumerate_block_members(bid) == block_members_by_filter(bid), bid
            blocks += 1
    assert blocks == 2577


GRID_CHARGES = {
    1: [(0,), (-3,), (7,)],
    2: [(0, 0), (3, -1), (-2, 5)],
    5: [(0, 3, -1, 4, 0), (2, 2, -5, 1, 0)],
}


def _shifted(charge, e):
    """The charge with its slots moved by different multiples of e."""
    return tuple(s + (i - 1) * e for i, s in enumerate(charge))


def test_enumerate_block_members_match_filter_on_grid():
    # raw, unsorted and negative charges; r, e and n beyond the desk sweep
    # (n <= 8, and n <= 6 at r = 5, where the filter's search space grows fastest)
    for e in (2, 4, 5, INFINITY):
        for r, charges in GRID_CHARGES.items():
            for charge in charges:
                for n in range(9 if r < 5 else 7):
                    for bid, members in blocks_by_filter(e, charge, n).items():
                        assert enumerate_block_members(bid) == members, bid
                        if e != INFINITY:
                            moved = BlockId(e, _shifted(charge, e), bid.content, n)
                            assert enumerate_block_members(moved) == members


def _assert_stream_matches_filter(bid):
    """The member stream yields each member once, and sorted it is the
    filter's member list."""
    streamed = list(_member_stream(bid))
    assert len(set(streamed)) == len(streamed), bid
    assert sorted(streamed) == block_members_by_filter(bid), bid


def test_member_stream_matches_filter_on_sweep(desk_sweep):
    blocks = 0
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        for bid in grouped:
            _assert_stream_matches_filter(bid)
            blocks += 1
    assert blocks == 2577


def test_member_stream_matches_filter_on_grid():
    for e in (2, 4, 5, INFINITY):
        for r, charges in GRID_CHARGES.items():
            for charge in charges:
                for n in range(9 if r < 5 else 7):
                    for bid in blocks_by_filter(e, charge, n):
                        _assert_stream_matches_filter(bid)


def test_member_stream_outgrows_the_recursion_limit():
    """The tally search keeps its own stack, one frame per lift table, so
    a block with more tables than Python's default recursion limit of 1000
    still streams its members: e = 1500 gives one table per residue, and
    with infinite e a charge spread of 1500 gives one per column between
    the charges."""
    for mp, charge, e in (
        (((1,), ()), (0, 0), 1500),
        (((1, 1), (), (1,)), (0, 0, 0), 1500),
        (((2,), (1,), ()), (0, 1500, 0), INFINITY),
    ):
        _assert_stream_matches_filter(block_id(AbacusPair(mp, charge, e)))


def _sweep_and_grid_blocks(desk_sweep):
    blocks = [bid for key, grouped in desk_sweep.items() if key != "elapsed" for bid in grouped]
    for e in (2, 4, 5, INFINITY):
        for r, charges in GRID_CHARGES.items():
            for charge in charges:
                for n in range(9 if r < 5 else 7):
                    blocks.extend(blocks_by_filter(e, charge, n))
    return blocks


def test_member_stream_keeps_the_order_of_its_earlier_builders(desk_sweep):
    """The stream grows each lift from its parent's per-row change sets and
    each member row from the core row's bead list.  It yields the members
    of its earlier builders (a level dict copied for every lift, every row
    rebuilt as a set and decoded by row_from_beads) in the same order, on
    the desk sweep and on the grid of raw, unsorted and negative charges;
    the witness search reads the members in this order."""
    blocks = _sweep_and_grid_blocks(desk_sweep)
    for bid in blocks:
        assert list(_member_stream(bid)) == list(member_stream_by_level_dicts(bid)), bid
    assert len(blocks) == 2577 + 3307


def test_core_charges_in_closed_form(desk_sweep):
    """The block core's charges, read off the tops, are those of the core
    pair built row by row: sum_c (top_c + x - 1) // r in row x with finite
    e, and lo plus the number of tops above r - x with infinite e.  The
    (first hole, beads) rows the member stream starts from are the core
    pair's bead rows.  On the desk sweep's blocks and on random pairs with
    raw multicharges."""
    rng = random.Random(2024)
    blocks = [bid for key, grouped in desk_sweep.items() if key != "elapsed" for bid in grouped]
    for _ in range(2000):
        r = rng.randint(1, 5)
        e = rng.choice((2, 3, 4, 5, 7, INFINITY))
        mp = tuple(
            tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True))
            for _ in range(r)
        )
        blocks.append(block_id(AbacusPair(mp, tuple(rng.randint(-20, 20) for _ in range(r)), e)))
    for bid in blocks:
        block = _block_core(bid)
        assert block is not None, bid
        _, _, tops, lo, _ = block
        r = len(bid.charge)
        core_pair = _core_pair(tops, lo, bid.e, r)
        assert _core_charges(tops, lo, bid.e, r) == core_pair.charge, bid
        rows = _core_rows(tops, lo, bid.e, r)
        assert [(f, set(x)) for f, x in rows] == [(f, set(x)) for f, x in core_pair._beadsets], bid


def test_finite_blocks_have_no_witness_on_sweep_and_grid(desk_sweep):
    """find_incomparable_pair answers None on a block of finite type
    without a search, as the classification makes such a block
    representation-finite.  The column-scan oracle finds no witness among
    the ordered pairs of members of any finite block of the desk sweep or
    of the member-stream grid (raw, unsorted and negative charges)."""
    finite = 0
    for key, grouped in desk_sweep.items():
        if key == "elapsed":
            continue
        e, r, charge = key
        for bid, entries in grouped.items():
            members = [mp for mp, *_ in entries]
            if repr_type(AbacusPair(members[0], charge, e), witness_budget=0).verdict == "finite":
                assert witness_by_member_scan(bid, members) is None, bid
                finite += 1
    assert finite == 1311
    for e in (2, 4, 5, INFINITY):
        for r, charges in GRID_CHARGES.items():
            for charge in charges:
                for n in range(9 if r < 5 else 7):
                    for bid, members in blocks_by_filter(e, charge, n).items():
                        if repr_type(AbacusPair(members[0], charge, e), witness_budget=0).verdict == "finite":
                            assert witness_by_member_scan(bid, members) is None, bid
                            finite += 1
    assert finite > 1311


def test_enumerate_block_members_unreachable_content():
    cases = [
        BlockId(3, (0, 0, 0), ((0, 5),), 5),  # too many nodes of one residue
        BlockId(2, (0, 1), ((0, 4),), 4),
        BlockId(3, (0, 1), ((0, 1), (4, 1)), 2),  # residue outside 0..e-1
        BlockId(3, (0, 1), ((0, 1), (1, 0)), 1),  # a stored zero count
        BlockId(3, (0, 1), ((0, 1),), 2),  # n disagrees with the content
        BlockId(INFINITY, (0, 0), ((0, 1), (2, 1)), 2),  # a gap at residue 1
        BlockId(INFINITY, (0, 2), ((-1, 1),), 1),
    ]
    for bid in cases:
        assert block_members_by_filter(bid) == []
        assert enumerate_block_members(bid) == []


def test_enumerate_block_budget():
    p = AbacusPair(((2,), (), ()), (0, 0, 0), 2)
    with pytest.raises(BudgetExceeded) as err:
        enumerate_block_members(block_id(p), budget=3)
    assert err.value.estimate == 9


def test_budget_gate_matches_full_count():
    """The gate stops at the first p_r(m) over the budget, m <= n; since
    p_r never decreases, it refuses exactly when p_r(n) exceeds the budget."""
    for r in (1, 2, 3, 5):
        for n in range(-1, 25):
            full = count_multipartitions(n, r)
            for budget in (0, 1, 4, 100, 10**4, full, max(full - 1, 0)):
                try:
                    _check_budget(n, r, budget)
                    estimate = None
                except BudgetExceeded as exc:
                    estimate = exc.estimate
                assert (estimate is not None) == (full > budget)
                if estimate is not None:
                    assert budget < estimate <= full


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


def test_orbit_reachable_rejects_blocks_of_different_e():
    """Orbits are taken in one affine Weyl group, so e must agree."""
    bid2 = block_id(AbacusPair(((1,), ()), (0, 0), 2))
    bid3 = block_id(AbacusPair(((1,), ()), (0, 0), 3))
    with pytest.raises(ValueError, match="quantum characteristic"):
        orbit_reachable(bid2, bid3, 5)



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


def apply_word(b, word):
    """The content reached from b's by reflecting the residues of word in
    turn, each through the pairing (alpha_j, Lambda - beta)."""
    k, c = weight_multiplicities(b.charge, b.e), b.content_dict()
    for j in word:
        c[j] = c.get(j, 0) + _pairing(k, c, j, b.e)
    return tuple(sorted((j, v) for j, v in c.items() if v))


def test_orbit_reachable_agrees_with_bfs():
    """Dominant reduction against the bounded BFS at depth 8 on a seeded
    sample of same-weight block pairs with n <= 5: a BFS word implies
    `found`, a negative answer implies no BFS word, and every word of the
    reduction maps b1's content to b2's."""
    rng = random.Random(14)
    pairs = []
    for e, s in [(2, (0, 0, 1)), (3, (0, 1, 1)), (INFINITY, (0, 1, 2)), (3, (0, 0, 2, 2))]:
        bids = [b for n in range(6) for b in blocks_by_filter(e, s, n)]
        every = list(combinations(bids, 2))
        pairs += rng.sample(every, min(len(every), 120))
    found = 0
    for b1, b2 in pairs:
        exact = orbit_reachable(b1, b2, 8)
        bfs = orbit_reachable_by_bfs(b1, b2, 8)
        assert exact.depth == 8
        assert exact.found or not bfs.found, (b1, b2)  # a BFS word implies found
        if exact.found:
            found += 1
            assert apply_word(b1, exact.word) == b2.content, (b1, b2, exact.word)
        else:
            assert exact.word is None
    assert found > 50


def test_orbit_reachable_rejects_a_content_that_is_not_a_weight():
    # c_1 = 5 over Lambda = 3 Lambda_0 at e = 2: the first reflection sends c_1 to -5
    bad = BlockId(2, (0, 0, 0), ((1, 5),), 5)
    good = block_id(AbacusPair(((1,), (), ()), (0, 0, 0), 2))
    for b1, b2 in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(ValueError, match="not a weight"):
            orbit_reachable(b1, b2, 5)
    with pytest.raises(ValueError, match="not a weight"):
        orbit_reachable(BlockId(2, (0, 0, 0), ((0, -1),), -1), good, 5)


def test_orbit_reachable_is_free_of_the_charge_spread():
    s = (0, 10**5)
    b1 = block_id(AbacusPair(((2, 1), ()), s, INFINITY))
    b2 = block_id(AbacusPair(((), (1,)), s, INFINITY))
    start = time.perf_counter()
    res = orbit_reachable(b1, b2, 4)
    assert time.perf_counter() - start < 0.01
    assert res.found and res.depth == 4
    assert apply_word(b1, res.word) == b2.content


def test_paper_applications_at_one_multicharge():
    """Both contrasts of the paper among the blocks of n <= 4 at e = 4,
    charge (0, 1, 2): weight-one blocks of one weight that are not derived
    equivalent, and derived-equivalent weight-one blocks (Brauer lines of
    one edge count, Rickard) in different affine Weyl orbits.  A shared
    orbit implies derived equivalence (Chuang-Rouquier), checked too."""
    e, s = 4, (0, 1, 2)
    weight1 = [b for n in range(5) for b in blocks_by_filter(e, s, n) if defect(b) == 1]
    not_derived, other_orbit = [], []
    for b1, b2 in combinations(weight1, 2):
        derived = derived_equivalent_weight1(b1, b2)
        orbit = orbit_reachable(b1, b2, 0)
        assert derived or not orbit.found, (b1, b2)
        if not derived:
            not_derived.append((b1.content, b2.content))
        elif not orbit.found:
            other_orbit.append((b1.content, b2.content))
    print("same weight, not derived equivalent:", not_derived[0])
    print("derived equivalent, different orbits:", other_orbit[0])
    assert not_derived and other_orbit


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
