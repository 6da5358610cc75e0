import pickle
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akblocks.abacus import AbacusPair, is_complete, uglov
from akblocks.moves import (
    ElementaryOp,
    OperationSet,
    _core_paths,
    _paths_between,
    apply_op,
    construct_from_vector,
    core,
    core_and_vector,
    moving_vector_between,
    op_kind,
    operation_set_between,
    remove_rim_hook,
    rotate_rows,
)
from akblocks.partitions import INFINITY, in_Abar, size
from oracles import applicable_ops, greedy_core, greedy_ops_to, listing_by_levels, row_tally_of_paths, t_key

SOURCE = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
TARGET = AbacusPair(((), (4, 3, 1), (3, 2)), (0, 1, 2), 3)
WORKED_OPS = {(2, -2, 4), (1, 1, 3), (2, 1, 3), (3, 1, 3)}


def as_triples(ops):
    return Counter((o.row, o.col, o.index) for o in ops)


def random_pair(rng, e, r, max_parts=3, max_part=5, charge_lo=-2, charge_hi=4):
    mp = tuple(
        tuple(sorted((rng.randrange(1, max_part) for _ in range(rng.randrange(0, max_parts))), reverse=True))
        for _ in range(r)
    )
    charge = tuple(rng.randrange(charge_lo, charge_hi) for _ in range(r))
    return AbacusPair(mp, charge, e)


def test_worked_operation_set():
    ops, mv = operation_set_between(SOURCE, TARGET)
    assert as_triples(ops) == Counter(WORKED_OPS)
    assert mv == (1, 2, 1)
    assert op_kind(ElementaryOp(3, 1, 3), 3) == "second"
    assert op_kind(ElementaryOp(1, 1, 3), 3) == "first"


def test_moving_vector_trivial_and_single_move():
    from akblocks.abacus import pair_from_beads

    assert moving_vector_between(SOURCE, SOURCE) == (0, 0, 0)
    # dropping one bead from row 1 to row 3 in its own column tallies a
    # run of ones over the rows passed through
    a2 = pair_from_beads(
        [(-4, [0]), (-4, []), (-4, []), (-4, [0])],
        5,
    )
    b2 = pair_from_beads(
        [(-4, []), (-4, []), (-4, [0]), (-4, [0])],
        5,
    )
    assert moving_vector_between(a2, b2) == (1, 1, 0, 0)


def test_unreachable_targets_rejected():
    with pytest.raises(ValueError):
        moving_vector_between(TARGET, SOURCE)
    # the core is packed lower than the pair in every subabacus
    with pytest.raises(ValueError, match="backwards"):
        moving_vector_between(core(SOURCE)[0], SOURCE)
    with pytest.raises(ValueError):
        moving_vector_between(
            AbacusPair(((1,),), (0,), 2), AbacusPair(((),), (0,), 2)
        )


def test_apply_op_worked_sequence():
    current = SOURCE
    for op in (
        ElementaryOp(1, 1, 3),
        ElementaryOp(2, 1, 3),
        ElementaryOp(3, 1, 3),
        ElementaryOp(2, -2, 4),
    ):
        current = apply_op(current, op)
    assert current == TARGET


def test_apply_op_errors():
    a = AbacusPair(((), ()), (0, 2), 2)
    # every bead of row 1 sits under a bead of row 2
    with pytest.raises(ValueError):
        apply_op(a, ElementaryOp(1, -1, 1))
    with pytest.raises(ValueError):
        apply_op(a, ElementaryOp(1, 5, 1))


def test_apply_then_inverse_restores():
    a = AbacusPair(((2,), ()), (0, 0), 2)
    b = apply_op(a, ElementaryOp(1, 1, 1))
    # undo by hand: move the bead back down
    from akblocks.abacus import pair_from_beads

    lo = -4
    rows = []
    for i in (1, 2):
        beads = [c for c in range(lo, 6) if b.has_bead(i, c)]
        if i == 2:
            beads.remove(1)
        if i == 1:
            beads.append(1)
        rows.append((lo, beads))
    assert pair_from_beads(rows, 2) == a


def test_core_trivial_and_worked():
    complete = AbacusPair(((), (2,), (1, 1)), (0, 1, 2), 3)
    cp, ops, mv = core(complete)
    assert cp == complete and ops == () and mv == (0, 0, 0)
    cp, ops, mv = core(SOURCE)
    assert cp == complete
    assert is_complete(cp)
    assert mv == (4, 5, 4)
    assert len(ops) == 13


def test_core_matches_greedy_simulation():
    rng = random.Random(23)
    for e in (2, 3, INFINITY):
        for _ in range(25):
            r = rng.randrange(1, 5)
            a = random_pair(rng, e, r)
            cp, ops, mv = core(a)
            sim_pair, sim_ops = greedy_core(a, rng)
            assert sim_pair == cp
            assert sim_ops == as_triples(ops)
            assert is_complete(cp)


def test_operation_set_order_independence():
    rng = random.Random(5)
    a = SOURCE
    baseline = as_triples(operation_set_between(a, TARGET)[0])
    for seed in range(6):
        assert greedy_ops_to(a, TARGET, random.Random(seed)) == baseline


def test_operation_set_matches_forward_simulation():
    # walk a random pair forward by recorded single moves, then ask for the
    # operation set between the endpoints
    from oracles import applicable_ops, bead_index

    rng = random.Random(101)
    for _ in range(40):
        e = rng.choice((2, 3, INFINITY))
        r = rng.randrange(1, 5)
        a = random_pair(rng, e, r)
        current = a
        recorded = Counter()
        for _ in range(rng.randrange(0, 7)):
            avail = applicable_ops(current)
            if not avail:
                break
            row, col = avail[rng.randrange(len(avail))]
            recorded[(row, col, bead_index(current, row, col))] += 1
            current = apply_op(current, ElementaryOp(row, col, 0))
        ops, _ = operation_set_between(a, current)
        assert as_triples(ops) == recorded


def test_each_move_strips_one_rim_hook_downstairs():
    # a single move shrinks the one-runner image by exactly e
    rng = random.Random(67)
    from oracles import applicable_ops

    checked = 0
    for _ in range(30):
        e = rng.choice((2, 3))
        a = random_pair(rng, e, rng.randrange(1, 4))
        avail = applicable_ops(a)
        if not avail:
            continue
        row, col = avail[rng.randrange(len(avail))]
        b = apply_op(a, ElementaryOp(row, col, 0))
        assert uglov(a).charge == uglov(b).charge
        assert sum(uglov(a).partition) - sum(uglov(b).partition) == e
        checked += 1
    assert checked >= 15


def test_second_kind_needs_finite_e():
    a = AbacusPair(((1,), ()), (0, 5), INFINITY)
    with pytest.raises(ValueError):
        apply_op(a, ElementaryOp(2, 4, 1))


def test_core_op_count_matches_uglov_weight():
    from oracles import ecore_one_runner

    rng = random.Random(31)
    for e in (2, 3):
        for _ in range(25):
            a = random_pair(rng, e, rng.randrange(1, 4))
            _, ops, _ = core(a)
            img = uglov(a)
            _, _, weight = ecore_one_runner(img.partition, img.charge, e)
            assert len(ops) == weight


def test_move_vector_charge_relation():
    # m_i - m_{i-1} = s_i - u_i for the worked pair
    mv = moving_vector_between(SOURCE, TARGET)
    s, u = SOURCE.charge, TARGET.charge
    for i in range(3):
        assert mv[i] - mv[i - 1] == s[i] - u[i]


def test_remove_rim_hook():
    a = AbacusPair(((2,),), (0,), 2)
    b = remove_rim_hook(a, 1, -1)
    assert b.mp == ((),) and b.charge == (0,)
    big = AbacusPair(((4, 1), (2,)), (0, 1), 3)
    hooked = remove_rim_hook(big, 1, 0)
    assert hooked.charge == big.charge
    assert size(hooked.mp) == size(big.mp) - 3
    assert moving_vector_between(big, hooked) == (1, 1)
    with pytest.raises(ValueError):
        remove_rim_hook(a, 1, 5)


def test_rotate_rows():
    a = SOURCE
    assert rotate_rows(a, 0) == a
    rotated = rotate_rows(a, 1)
    assert rotated.mp == ((3, 2), (4, 3, 1), (2, 1))
    assert rotated.charge == (2, 1, 3)
    # r-fold rotation adds e to every charge and keeps the multipartition
    full = a
    for _ in range(3):
        full = rotate_rows(full, 1)
    assert full.mp == a.mp
    assert full.charge == tuple(s + 3 for s in a.charge)
    with pytest.raises(ValueError):
        rotate_rows(AbacusPair(((1,),), (0,), INFINITY), 0) and None
    with pytest.raises(ValueError):
        rotate_rows(a, 3)


@pytest.mark.parametrize("i", [1.5, True, "2"])
def test_rotate_rows_rejects_non_integers(i):
    with pytest.raises(ValueError, match="integers"):
        rotate_rows(SOURCE, i)


def test_rotation_shifts_core_moving_vector():
    rng = random.Random(41)
    for _ in range(25):
        e = rng.choice((2, 3))
        r = rng.randrange(2, 5)
        charge = tuple(sorted(rng.randrange(0, e + 1) for _ in range(r)))
        if not in_Abar(charge, e):
            continue
        a = random_pair(rng, e, r, charge_lo=0, charge_hi=e)
        a = AbacusPair(a.mp, charge, e)
        _, _, mv = core(a)
        for i in range(r):
            _, _, mv_rot = core(rotate_rows(a, i))
            assert mv_rot == mv[i:] + mv[:i]


def test_moves_toward_before_positions_lie_in_the_core_set():
    # moving a bead to any empty position before it uses a subset of the
    # moves that take the abacus all the way to its core
    rng = random.Random(13)
    found = 0
    for _ in range(120):
        e = rng.choice((2, 3))
        r = rng.randrange(2, 5)
        a = random_pair(rng, e, r)
        _, core_ops, _ = core(a)
        core_counter = as_triples(core_ops)
        lo, hi = a.bounds()
        beads = [
            (row, col)
            for row in range(1, r + 1)
            for col in range(lo, hi)
            if a.has_bead(row, col)
        ]
        rng.shuffle(beads)
        for row, col in beads:
            moved = _move_before(a, row, col)
            if moved is None:
                continue
            step_ops, _ = operation_set_between(a, moved)
            if not step_ops:
                continue
            found += 1
            stepped = as_triples(step_ops)
            assert all(stepped[k] <= core_counter[k] for k in stepped)
            break
    assert found >= 40


def _move_before(a, row, col):
    """Move the bead at (row, col) to the first empty position before it
    in its subabacus, if any; None otherwise."""
    from akblocks.abacus import pair_from_beads
    from oracles import t_key

    c0, t0 = t_key(a, row, col)
    lo, hi = a.bounds()
    spots = []
    for row2 in range(1, a.r + 1):
        for col2 in range(lo, hi):
            if a.has_bead(row2, col2):
                continue
            c2, t2 = t_key(a, row2, col2)
            if c2 == c0 and t2 < t0:
                spots.append((t2, row2, col2))
    if not spots:
        return None
    _, row2, col2 = max(spots)
    rows = []
    for i in range(1, a.r + 1):
        floor = a.row_floor(i)
        extras = set(a.row_betas(i)) | set(range(lo, floor))
        if i == row:
            extras.discard(col)
        if i == row2:
            extras.add(col2)
        rows.append((lo, extras))
    return pair_from_beads(rows, a.e)


def test_equal_vectors_to_common_target_mean_same_block():
    from akblocks.blocks import block_id
    from akblocks.partitions import multipartitions_of

    e = 3
    target = AbacusPair(((), (), ()), (0, 1, 2), e)
    m = (1, 2, 1)
    s = tuple(target.charge[i] + m[i] - m[i - 1] for i in range(3))
    found = []
    for n in range(7):
        for mp in multipartitions_of(n, 3):
            try:
                if moving_vector_between(AbacusPair(mp, s, e), target) == m:
                    found.append(mp)
            except ValueError:
                continue
    assert len(found) >= 2
    assert len({block_id(AbacusPair(mp, s, e)) for mp in found}) == 1


def test_dual_mirrors_operation_sets():
    # as an abacus walks to its core, its dual walks to the dual core:
    # a move at (i, h) mirrors to one at (r-i, -h-1), row r staying put
    # with the reflected column shifted by e; counting rows then gives
    # mv_dual[j] = mv[r-j] cyclically (slot r fixed)
    from akblocks.abacus import dual

    rng = random.Random(77)
    for e in (2, 3, INFINITY):
        for _ in range(20):
            r = rng.randrange(1, 5)
            a = random_pair(rng, e, r)
            d = dual(a)
            _, ops_a, mv_a = core(a)
            _, ops_d, mv_d = core(d)

            def mirror(o):
                if o.row == r:
                    return (r, -o.col - 1 + e)
                return (r - o.row, -o.col - 1)

            assert Counter(mirror(o) for o in ops_a) == Counter(
                (o.row, o.col) for o in ops_d
            )
            assert mv_d == tuple(mv_a[r - j - 1] for j in range(1, r)) + (mv_a[r - 1],)


def test_construct_from_vector_basics():
    assert construct_from_vector((0, 1), (0, 1), (0, 0), 3) == ((), ())
    lam = construct_from_vector((0, 2), (-1, 3), (1, 0), 5)
    assert lam == ((3,), ())
    a = AbacusPair(lam, (0, 2), 5)
    b = AbacusPair(((), ()), (-1, 3), 5)
    assert moving_vector_between(a, b) == (1, 0)


def test_construct_from_vector_at_rank_one():
    """One row moves by lifting its top bead m_1 * e columns, so with
    finite e every vector round-trips through moving_vector_between; with
    infinite e the one entry is the last one, which must vanish."""
    for e in (2, 3, 5):
        for s in (-2, 0, 3):
            for m in range(4):
                lam = construct_from_vector((s,), (s,), (m,), e)
                a = AbacusPair(lam, (s,), e)
                assert moving_vector_between(a, AbacusPair(((),), (s,), e)) == (m,)
                assert size(lam) == m * e
    assert construct_from_vector((1,), (1,), (0,), INFINITY) == ((),)
    with pytest.raises(ValueError, match="last vector entry must vanish"):
        construct_from_vector((1,), (1,), (2,), INFINITY)



def test_construct_from_vector_rejects_bad_charges():
    with pytest.raises(ValueError):
        construct_from_vector((0, 1), (5, 5), (1, 0), 3)
    with pytest.raises(ValueError):
        construct_from_vector((1, 0), (1, 0), (0, 0), 3)


def test_construct_from_vector_rejects_non_integers():
    for s, s_star, m in (
        ((0, 1.9), (0, 1), (0.2, 0)),
        ((0, 1), (0, 1.0), (0, 0)),
        ((0, True), (0, 1), (0, 0)),
        ((0, 1), (0, 1), (False, 0)),
        (("0", 1), (0, 1), (0, 0)),
    ):
        with pytest.raises(ValueError, match="integers"):
            construct_from_vector(s, s_star, m, 3)


def random_vector_instance(rng, e):
    for _ in range(200):
        r = rng.randrange(2, 6)
        m = tuple(rng.randrange(0, 4) for _ in range(r))
        if sum(m) > 6:
            continue
        if e == INFINITY and m[-1] != 0:
            continue
        cap = 2 if e == INFINITY else e
        rest = sorted(rng.randrange(0, cap + 1) for _ in range(r - 1))
        s = (0,) + tuple(rest)
        if not in_Abar(s, e):
            continue
        s_star = tuple(s[i] - m[i] + m[i - 1] for i in range(r))
        if in_Abar(s_star, e):
            return s, s_star, m
    return None


def test_construct_from_vector_round_trips():
    rng = random.Random(57)
    checked = 0
    for _ in range(150):
        e = rng.choice((2, 3, 5, INFINITY))
        inst = random_vector_instance(rng, e)
        if inst is None:
            continue
        s, s_star, m = inst
        lam = construct_from_vector(s, s_star, m, e)
        got = moving_vector_between(AbacusPair(lam, s, e), AbacusPair(((),) * len(s), s_star, e))
        assert got == m
        checked += 1
    assert checked >= 60


def raw_pair(rng, e, r, spread):
    """A random pair whose multicharge is unsorted, with entries spread over
    about ``spread`` columns."""
    mp = tuple(
        tuple(sorted((rng.randrange(1, 8) for _ in range(rng.randrange(0, 5))), reverse=True))
        for _ in range(r)
    )
    charge = tuple(rng.randint(-spread // 2, spread - spread // 2) for _ in range(r))
    return AbacusPair(mp, charge, e)


def row_tally(ops, r):
    mv = [0] * r
    for op in ops:
        mv[op.row - 1] += 1
    return tuple(mv)


def test_core_and_vector_matches_listed_core():
    """Bead counts against the listed paths: the core, the op count, and
    the vector tallied from the moves (from the paths row by row at spread
    10^4, where the core is millions of moves away)."""
    rng = random.Random(89)
    for e in (2, 3, 5, INFINITY):
        for spread in (0, 6, 20, 40, 10**4):
            for _ in range(12 if spread < 10**4 else 3):
                r = rng.randrange(1 if spread < 10**4 else 2, 6)
                a = raw_pair(rng, e, r, spread)
                cp, ops, mv = core(a)
                assert core_and_vector(a) == (cp, mv)
                assert sum(mv) == len(ops)
                if spread < 10**4:
                    assert mv == row_tally(ops, r)
                else:
                    assert mv == row_tally_of_paths(_core_paths(a)[1], r)
                assert moving_vector_between(a, cp) == mv


@pytest.mark.parametrize("e", [2, 3])
def test_core_and_vector_cost_is_free_of_the_charge_spread(e):
    """At charge (0, 10^6) the levels are never listed: a small, fixed
    peak."""
    a = AbacusPair(((3, 1), (2,)), (0, 10**6), e)
    tracemalloc.start()
    try:
        cp, mv = core_and_vector(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert is_complete(cp) and sum(mv) > 10**10


def test_core_and_vector_matches_greedy_simulation():
    rng = random.Random(97)
    for e in (2, 3, 5, INFINITY):
        for spread in (4, 12, 40):
            for _ in range(3):
                a = raw_pair(rng, e, rng.randrange(1, 5), spread)
                cp, mv = core_and_vector(a)
                sim_pair, sim_ops = greedy_core(a, rng)
                assert cp == sim_pair
                sim_mv = [0] * a.r
                for (row, _, _), count in sim_ops.items():
                    sim_mv[row - 1] += count
                assert mv == tuple(sim_mv)


def test_core_lists_moves_by_subabacus_index_and_descending_level():
    rng = random.Random(43)
    for e in (2, 3, 5, INFINITY):
        for _ in range(15):
            a = raw_pair(rng, e, rng.randrange(1, 6), 30)
            _, ops, _ = core(a)
            keys = []
            for op in ops:
                c, t = t_key(a, op.row, op.col)
                keys.append((c, op.index, -t))
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 9), max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True))),
            st.integers(-25, 25),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from((2, 3, 5, INFINITY)),
)
def test_has_bead_matches_beta_numbers(rows, e):
    a = AbacusPair(tuple(p for p, _ in rows), tuple(s for _, s in rows), e)
    for row, (comp, s) in enumerate(rows, start=1):
        betas = {comp[j - 1] - j + s for j in range(1, len(comp) + 1)}
        for col in range(s - len(comp) - 3, s + (comp[0] if comp else 0) + 3):
            assert a.has_bead(row, col) == (col < s - len(comp) or col in betas)


def moved_beads(a, b):
    """(positions beaded in a only, positions beaded in b only), compared
    column by column past both pairs' bounds."""
    lo = min(a.bounds()[0], b.bounds()[0]) - 1
    hi = max(a.bounds()[1], b.bounds()[1]) + 1
    cells = [(row, col) for row in range(1, a.r + 1) for col in range(lo, hi)]
    return (
        {x for x in cells if a.has_bead(*x) and not b.has_bead(*x)},
        {x for x in cells if b.has_bead(*x) and not a.has_bead(*x)},
    )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 6), max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True))),
            st.integers(-20, 20),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from((2, 3, 5, INFINITY)),
)
def test_single_moves_move_exactly_one_bead(rows, e):
    a = AbacusPair(tuple(p for p, _ in rows), tuple(s for _, s in rows), e)
    for row, col in applicable_ops(a):
        dst = (row + 1, col) if row < a.r else (1, col - e)
        assert moved_beads(a, apply_op(a, ElementaryOp(row, col, 0))) == ({(row, col)}, {dst})
    if e == INFINITY:
        return
    lo, hi = a.bounds()
    for row in range(1, a.r + 1):
        for col in range(lo - e, hi):
            if a.has_bead(row, col + e) and not a.has_bead(row, col):
                b = remove_rim_hook(a, row, col)
                assert moved_beads(a, b) == ({(row, col + e)}, {(row, col)})


def test_construct_from_vector_lifts_one_bead():
    """Lowering every vector entry by min(m) keeps the charge condition
    and gives the construction before its top bead is lifted: the two
    results differ by one bead raised min(m) * e columns in one row."""
    rng = random.Random(61)
    lifted = 0
    for _ in range(150):
        e = rng.choice((2, 3, 5))
        inst = random_vector_instance(rng, e)
        if inst is None:
            continue
        s, s_star, m = inst
        low = min(m)
        a = AbacusPair(construct_from_vector(s, s_star, m, e), s, e)
        base = tuple(x - low for x in m)
        b = AbacusPair(construct_from_vector(s, s_star, base, e), s, e)
        if low == 0:
            assert a == b
            continue
        (src,), (dst,) = moved_beads(b, a)
        assert src[0] == dst[0] and dst[1] == src[1] + low * e
        lifted += 1
    assert lifted >= 10


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 9), max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True))),
            st.integers(-20, 20),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from((2, 3, 5, INFINITY)),
)
def test_listing_matches_level_oracle(rows, e):
    """Raw, unsorted charges of spread <= 40: the operation sets of
    ``core`` and ``operation_set_between`` are OperationSets of
    ElementaryOps equal, element by element, to the per-level listing of
    their paths."""
    a = AbacusPair(tuple(p for p, _ in rows), tuple(s for _, s in rows), e)
    core_pair, ops, _ = core(a)
    between, _ = operation_set_between(a, core_pair)
    for listed, paths in ((ops, _core_paths(a)[1]), (between, list(_paths_between(a, core_pair)))):
        assert type(listed) is OperationSet
        assert all(type(op) is ElementaryOp for op in listed)
        expected = listing_by_levels(paths, e, a.r)
        assert [(op.row, op.col, op.index) for op in listed] == [(o.row, o.col, o.index) for o in expected]


def test_elementary_op_contract():
    """Field names, repr, tuple ordering, hashing and immutability; an op
    compares equal to its plain (row, col, index) tuple."""
    op = ElementaryOp(1, 2, 3)
    assert ElementaryOp._fields == ("row", "col", "index")
    assert (op.row, op.col, op.index) == (1, 2, 3)
    assert repr(op) == "ElementaryOp(row=1, col=2, index=3)"
    assert op == (1, 2, 3) and hash(op) == hash((1, 2, 3))
    ops = [ElementaryOp(2, 0, 1), ElementaryOp(1, 5, 2), ElementaryOp(1, 5, 1), ElementaryOp(1, -3, 4)]
    assert sorted(ops) == [ElementaryOp(1, -3, 4), ElementaryOp(1, 5, 1), ElementaryOp(1, 5, 2), ElementaryOp(2, 0, 1)]
    assert {op, ElementaryOp(1, 2, 3), ElementaryOp(1, 2, 4)} == {(1, 2, 3), (1, 2, 4)}
    assert op in {ElementaryOp(1, 2, 3)} and (1, 2, 3) in {op}
    with pytest.raises(AttributeError):
        op.row = 5
    assert [op_kind(o, 3) for o in core(SOURCE)[1]].count("second") == 4
    # replaying core's listed ops reaches the core: beads bottom first, each from the top down
    core_pair, listed, _ = core(SOURCE)
    current = SOURCE
    for o in sorted(listed, key=lambda o: -o.index):
        current = apply_op(current, o)
    assert current == core_pair


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 9), max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True))),
            st.integers(-20, 20),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from((2, 3, 5, INFINITY)),
)
def test_operation_set_contract(rows, e):
    """An OperationSet reads as the tuple of its ops: length, iteration,
    indexing (negative too), slices, equality and hashing, read-only."""
    a = AbacusPair(tuple(p for p, _ in rows), tuple(s for _, s in rows), e)
    paths = _core_paths(a)[1]
    ops = OperationSet(paths, e, a.r)
    listed = tuple(ops)
    expected = listing_by_levels(paths, e, a.r)
    assert len(ops) == len(listed) == sum(t_from - t_to for _, _, t_from, t_to in paths)
    assert [tuple(op) for op in listed] == [(o.row, o.col, o.index) for o in expected]
    n = len(ops)
    for i in range(-n, n):
        assert ops[i] == listed[i] and type(ops[i]) is ElementaryOp
    assert all(type(op) is ElementaryOp for op in listed)
    for sl in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2), slice(2, 7, 3), slice(5, 2)):
        assert type(ops[sl]) is tuple and ops[sl] == listed[sl]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            ops[i]
    assert ops == listed and listed == ops and hash(ops) == hash(listed)
    assert ops == OperationSet(list(paths), e, a.r) and ops == core(a)[1]
    assert ops != list(listed) and list(listed) != ops
    assert ops != listed + ((0, 0, 0),) and (n == 0 or ops != listed[:-1])
    assert "ElementaryOp" not in repr(ops) and len(repr(ops)) < 80
    assert pickle.loads(pickle.dumps(ops)) == ops
    with pytest.raises(AttributeError):
        ops._paths = ()
    with pytest.raises(AttributeError):
        ops.extra = 1
    with pytest.raises(AttributeError):
        del ops._r


def test_operation_set_memory_grows_with_paths_not_moves():
    """At charge spread 10^4 the core is 16,661,667 moves away; the
    operation set keeps its 9,997 bead paths, not the moves."""
    a = AbacusPair(((3, 1), (2,)), (0, 10**4), 3)
    tracemalloc.start()
    try:
        core_pair, ops, mv = core(a)
        assert len(ops) == sum(mv) == 16_661_667
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    last = listing_by_levels(_core_paths(a)[1][-1:], 3, 2)[-1]
    assert ops[0] == next(iter(ops)) and ops[-1] == (last.row, last.col, last.index)
