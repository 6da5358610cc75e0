import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akblocks.abacus import (
    AbacusPair,
    _moved,
    dual,
    is_complete,
    n_right,
    pair_from_beads,
    render,
    row_from_beads,
    subabacus_diff,
    uglov,
)
from akblocks.blocks import alpha_pairing, block_id, enumerate_block_members, weyl_sigma
from akblocks.classify import repr_type
from akblocks.moves import (
    ElementaryOp,
    apply_op,
    core,
    core_and_vector,
    remove_rim_hook,
    rotate_rows,
)
from akblocks.partitions import (
    INFINITY,
    in_A,
    in_Abar,
    is_finite,
    multipartitions_of,
    residue_content,
    size,
)
from oracles import applicable_ops, is_complete_by_scan, moved_by_scan, subabacus_diff_by_scan, unwrap

partitions_st = st.lists(st.integers(1, 8), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def beadset(pair, row, lo, hi):
    return frozenset(c for c in range(lo, hi) if pair.has_bead(row, c))


def test_has_bead_single_row_example():
    a = AbacusPair(((7, 5, 4, 1, 1),), (0,), 3)
    expected = {6, 3, 1, -3, -4} | set(range(-20, -5))
    assert beadset(a, 1, -20, 10) == frozenset(expected)


def test_pair_rejects_non_integers():
    for mp, charge in (
        (((1.5,), ()), (0, 1)),
        (((True,), ()), (0, 1)),
        ((("2",), ()), (0, 1)),
        (((1,),), (0.7,)),
        (((1,),), (False,)),
    ):
        with pytest.raises(ValueError, match="integers"):
            AbacusPair(mp, charge, 3)


def test_has_bead_empty_row():
    a = AbacusPair(((), ()), (2, -1), 4)
    assert all(a.has_bead(1, c) for c in range(-8, 2))
    assert not any(a.has_bead(1, c) for c in range(2, 8))
    assert a.has_bead(2, -2) and not a.has_bead(2, -1)
    with pytest.raises(ValueError):
        a.has_bead(3, 0)


@given(partitions_st, st.integers(-3, 3))
def test_row_round_trip(p, s):
    a = AbacusPair((p,), (s,), 2)
    floor = a.row_floor(1)
    extras = [c for c in range(floor, floor + 25) if a.has_bead(1, c)]
    assert row_from_beads(floor, extras) == (p, s)


def test_row_from_beads_rejects_an_extra_below_the_floor():
    """Extras are the beads at or above the floor; one below it is refused."""
    assert row_from_beads(0, [2]) == ((2,), 1)
    with pytest.raises(ValueError, match="at or above the floor"):
        row_from_beads(0, [2, -1])



def test_pair_from_beads_examples():
    a = pair_from_beads([(0, []), (0, []), (0, [])], 3)
    assert a.mp == ((), (), ()) and a.charge == (0, 0, 0)
    b = pair_from_beads([(-1, [1])], 2)
    assert b.mp == ((2,),) and b.charge == (0,)
    source = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    lo, hi = source.bounds()
    rows = [(lo, [c for c in range(lo, hi) if source.has_bead(i, c)]) for i in (1, 2, 3)]
    assert pair_from_beads(rows, 3) == source


def test_pair_from_beads_rejects_non_integers():
    for rows in (
        [(0, [1.5])],
        [(0, [True])],
        [(0, ["2"])],
        [(0.5, [])],
        [(False, [1])],
    ):
        with pytest.raises(ValueError, match="integers"):
            pair_from_beads(rows, 3)


def test_n_right():
    a = AbacusPair(((), ()), (2, 0), 3)
    assert n_right(a, 2, -1) == 0
    b = AbacusPair(((7, 5, 4, 1, 1),), (0,), 3)
    assert n_right(b, 1, 0) == 3


def test_n_right_charge_difference():
    # two fully-beaded-below rows: the count difference equals the charge gap
    rng = random.Random(7)
    for _ in range(50):
        mp = tuple(
            tuple(sorted((rng.randrange(1, 6) for _ in range(rng.randrange(0, 4))), reverse=True))
            for _ in range(2)
        )
        charge = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        a = AbacusPair(mp, charge, 3)
        h = min(a.row_floor(1), a.row_floor(2)) - 1
        assert n_right(a, 2, h) - n_right(a, 1, h) == charge[1] - charge[0]


def test_bead_gap_counts_parts():
    # empty run between consecutive beads equals the difference of parts
    rng = random.Random(11)
    for _ in range(50):
        p = tuple(sorted((rng.randrange(1, 9) for _ in range(rng.randrange(1, 6))), reverse=True))
        s = rng.randrange(-2, 3)
        a = AbacusPair((p,), (s,), 2)
        betas = a.row_betas(1)
        for x in range(len(betas) - 1):
            gap = betas[x] - betas[x + 1] - 1
            assert gap == p[x] - p[x + 1]


def test_subabacus_diff_examples():
    empty = AbacusPair(((), (), ()), (0, 0, 0), 2)
    assert subabacus_diff(empty, 0) == 3
    assert subabacus_diff(empty, 1) == 0
    a = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    assert [subabacus_diff(a, j) for j in range(3)] == [5, -1, -1]
    # identical adjacent subabacus columns cancel
    b = AbacusPair(((), (), ()), (0, 1, 2), INFINITY)
    assert subabacus_diff(b, -5) == 0


def test_subabacus_diff_equals_weight_pairing():
    rng = random.Random(3)
    for e in (2, 3, 5):
        for _ in range(30):
            r = rng.randrange(1, 5)
            mp = tuple(
                tuple(sorted((rng.randrange(1, 5) for _ in range(rng.randrange(0, 3))), reverse=True))
                for _ in range(r)
            )
            charge = tuple(rng.randrange(-2, 5) for _ in range(r))
            a = AbacusPair(mp, charge, e)
            bid = block_id(a)
            for j in range(e):
                assert subabacus_diff(a, j) == alpha_pairing(bid, j)


def test_charge_gap_forces_columns():
    # if s_i + k <= s_j there are at least k columns with row i empty and
    # row j beaded (multicharge weakly increasing with spread at most e)
    rng = random.Random(47)
    for e in (2, 3):
        for _ in range(40):
            r = rng.randrange(2, 5)
            charge = tuple(sorted(rng.randrange(0, e + 1) for _ in range(r)))
            if not in_Abar(charge, e):
                continue
            mp = tuple(
                tuple(sorted((rng.randrange(1, 5) for _ in range(rng.randrange(0, 3))), reverse=True))
                for _ in range(r)
            )
            a = AbacusPair(mp, charge, e)
            lo, hi = a.bounds()
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    k = a.charge[j - 1] - a.charge[i - 1]
                    if k <= 0:
                        continue
                    cols = sum(
                        1
                        for c in range(lo - 1, hi + 1)
                        if not a.has_bead(i, c) and a.has_bead(j, c)
                    )
                    assert cols >= k


def test_is_complete():
    for s in ((0, 0, 0), (0, 1, 2), (0, 2, 2)):
        if in_Abar(s, 2):
            assert is_complete(AbacusPair(((), (), ()), s, 2))
    source = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    assert not is_complete(source)
    # the worked target is not nested either: row 1 has a bead at -2 missing in row 2
    target = AbacusPair(((), (4, 3, 1), (3, 2)), (0, 1, 2), 3)
    assert not is_complete(target)
    assert is_complete(AbacusPair(((), (2,), (1, 1)), (0, 1, 2), 3))


def test_complete_implies_charge_window():
    from akblocks.moves import core

    rng = random.Random(19)
    for e in (2, 3):
        for _ in range(30):
            r = rng.randrange(1, 5)
            mp = tuple(
                tuple(sorted((rng.randrange(1, 5) for _ in range(rng.randrange(0, 3))), reverse=True))
                for _ in range(r)
            )
            charge = tuple(rng.randrange(0, e + 1) for _ in range(r))
            core_pair, _, _ = core(AbacusPair(mp, charge, e))
            assert is_complete(core_pair)
            assert in_Abar(core_pair.charge, e)


def test_dual():
    a = AbacusPair(((2,), ()), (0, 0), 2)
    d = dual(a)
    assert d.mp == ((), (1, 1)) and d.charge == (0, 0)
    assert dual(d) == a
    # bead complement rule on a window
    lo, hi = -6, 6
    for i in (1, 2):
        for h in range(lo, hi):
            assert d.has_bead(i, h) != a.has_bead(a.r - i + 1, -h - 1)


def test_dual_preserves_charge_windows_and_completeness():
    a = AbacusPair(((), (1,), (2, 1)), (0, 1, 2), 3)
    assert in_Abar(a.charge, 3) and in_A(a.charge, 3)
    d = dual(a)
    assert in_Abar(d.charge, 3) and in_A(d.charge, 3)
    c = AbacusPair(((), (2,), (1, 1)), (0, 1, 2), 3)
    assert is_complete(c)
    assert is_complete(dual(c))


def test_uglov_worked_example():
    a = AbacusPair(((2,), (3, 1), (1, 1)), (0, 0, 2), 3)
    img = uglov(a)
    assert img.partition == (6, 5, 3, 3, 1, 1, 1)
    assert img.charge == 2


def test_uglov_empty_and_charge_sum():
    assert uglov(AbacusPair(((), (), ()), (0, 0, 0), 2)) .partition == ()
    a = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    assert uglov(a).charge == sum(a.charge)


def test_uglov_rejects_infinite_e():
    with pytest.raises(ValueError):
        uglov(AbacusPair(((1,),), (0,), INFINITY))


def test_uglov_injective_small():
    for e in (2, 3):
        seen = {}
        for r in (1, 2, 3):
            for charge in ((0,) * r, tuple(range(r))):
                for n in range(6):
                    for mp in multipartitions_of(n, r):
                        img = uglov(AbacusPair(mp, charge, e))
                        key = (e, r, img.partition, img.charge)
                        assert seen.setdefault(key, (mp, charge)) == (mp, charge)


def test_render():
    assert render(AbacusPair(((),), (0,), 2), (-2, 1)) == "● ● ¦ ○ ○"
    a = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    text = render(a, (-4, 5))
    lines = text.split("\n")
    assert len(lines) == 3
    # bottom row printed last: row 1 has beads at 1 and -1 in the window
    bottom = lines[-1].split(" ")
    cols = []
    col = -4
    for tok in bottom:
        if tok == "¦":
            continue
        cols.append((col, tok))
        col += 1
    beads = {c for c, tok in cols if tok == "●"}
    assert beads == {-4, -3, 1, -1}


def test_render_parse_round_trip():
    a = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    lo, hi = a.bounds()
    text = render(a, (lo - 1, hi))
    rows = []
    for line in reversed(text.split("\n")):
        beads = []
        col = lo - 1
        for tok in line.split(" "):
            if tok == "¦":
                continue
            if tok == "●":
                beads.append(col)
            col += 1
        rows.append((lo - 1, beads))
    assert pair_from_beads(rows, 3) == a


def assert_canonical(p):
    """A pair the library built equals its re-validated copy, and its
    bounds are the least floor and one past the highest bead (at least
    the least floor)."""
    assert AbacusPair(p.mp, p.charge, p.e) == p
    floors = [p.row_floor(i) for i in range(1, p.r + 1)]
    tops = [max(p.row_betas(i), default=floors[i - 1] - 1) + 1 for i in range(1, p.r + 1)]
    assert p.bounds() == (min(floors), max(floors + tops))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 3), max_size=3).map(lambda xs: tuple(sorted(xs, reverse=True))),
            st.integers(-6, 6),
        ),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: sum(sum(p) for p, _ in rows) <= 7),
    st.sampled_from((2, 3, 5, INFINITY)),
)
def test_library_built_pairs_revalidate_unchanged(rows, e):
    p = AbacusPair(tuple(comp for comp, _ in rows), tuple(s for _, s in rows), e)
    built = [core(p)[0], core_and_vector(p)[0], dual(p)]
    if is_finite(e):
        built += [weyl_sigma(p, j) for j in range(e)]
        built += [rotate_rows(p, i) for i in range(p.r)]
        lo, hi = p.bounds()
        built += [
            remove_rim_hook(p, row, col)
            for row in range(1, p.r + 1)
            for col in range(lo - e, hi)
            if p.has_bead(row, col + e) and not p.has_bead(row, col)
        ]
    else:
        built += [weyl_sigma(p, j) for j in range(min(p.charge) - 1, max(p.charge) + 2)]
    built += [apply_op(p, ElementaryOp(row, col, 0)) for row, col in applicable_ops(p)]
    for q in built:
        assert_canonical(q)
    members = enumerate_block_members(block_id(p))
    assert p.mp in members
    for mp in members:
        assert_canonical(AbacusPair._of(mp, p.charge, e))
        assert size(mp) == p.n
    # the witness lies over the normalized multicharge
    report = repr_type(p)
    if report.witness is not None:
        assert report.witness.charge == report.normalized_charge
        for mp in (report.witness.mu, report.witness.nu):
            assert_canonical(AbacusPair._of(mp, report.normalized_charge, e))
            assert size(mp) == p.n


raw_rows_st = st.lists(
    st.tuples(partitions_st, st.integers(-20, 20)),  # unsorted charges, spread <= 40
    min_size=1,
    max_size=5,
)


def reader_indices(pair):
    """Every residue for finite e (and a few outside 0..e-1); for infinite
    e every column of the pair's bounds and two past each end."""
    lo, hi = pair.bounds()
    return range(-pair.e, 2 * pair.e) if is_finite(pair.e) else range(lo - 2, hi + 2)


def assert_readers_match_scans(pair):
    assert is_complete(pair) == is_complete_by_scan(pair)
    for j in reader_indices(pair):
        assert subabacus_diff(pair, j) == subabacus_diff_by_scan(pair, j)


@settings(max_examples=150, deadline=None)
@given(raw_rows_st, st.sampled_from((2, 3, 5, INFINITY)))
def test_readers_match_column_scans_on_raw_charges(rows, e):
    p = AbacusPair(tuple(comp for comp, _ in rows), tuple(s for _, s in rows), e)
    assert_readers_match_scans(p)
    cp = core_and_vector(p)[0]
    assert is_complete(cp)
    assert_readers_match_scans(cp)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-10, 10),
    st.lists(st.lists(st.integers(-12, 12), max_size=4), min_size=1, max_size=5),
    st.sampled_from((2, 3, 5)),
)
def test_readers_match_column_scans_on_nested_rows(floor, adds, e):
    """Rows nested bottom to top by construction, so only the wrap
    condition can fail; the top row then gains a bead more than e
    columns above row 1's top bead, which breaks the wrap alone."""
    rows, beads = [], set(range(floor - 1, floor))
    for extra in adds:
        beads |= {c for c in extra if c >= floor - 1}
        rows.append((floor - 1, sorted(beads)))
    p = pair_from_beads(rows, e)
    assert_readers_match_scans(p)
    top = max(rows[0][1])
    rows[-1] = (floor - 1, rows[-1][1] + [max(top + e, *rows[-1][1]) + 1])
    broken = pair_from_beads(rows, e)
    # still nested: with infinite e the scan checks no wrap
    assert is_complete_by_scan(AbacusPair(broken.mp, broken.charge, INFINITY))
    assert not is_complete(broken)
    assert_readers_match_scans(broken)


def test_readers_ignore_charge_spread():
    """Every call below reads each row's floor and beta-numbers; one
    that scanned the columns between the two charges would not finish."""
    s = 10**12
    a = AbacusPair(((3, 1), (2,)), (0, s), 3)
    assert not is_complete(a)
    bid = block_id(a)
    assert [subabacus_diff(a, j) for j in range(3)] == [alpha_pairing(bid, j) for j in range(3)]
    assert residue_content(a.mp, a.charge, 3) == residue_content(a.mp, (0, s % 3), 3)
    # a second-kind move from the top row
    b = apply_op(a, ElementaryOp(2, s + 1, 0))
    assert b == AbacusPair(((s - 2, 3, 1), ()), (1, s - 1), 3)


positions_st = st.tuples(st.integers(1, 8), st.integers(-8, 12))


@settings(max_examples=300, deadline=None)
@given(
    raw_rows_st,
    st.sampled_from((2, 3, 5, INFINITY)),
    st.lists(st.tuples(positions_st, positions_st, st.sampled_from((True, True, False))), max_size=4),
)
def test_moved_matches_has_bead_rebuild(rows, e, draws):
    """Each (src, dst) move in turn, rows above r wrapping down by e, gives
    the pair that a column-by-column rebuild of the rows gives, and an
    empty source or an occupied target raises.  A move drawn to fit has
    its source slid down to a bead and its target up to a hole of the
    pair the moves before it leave."""
    a = AbacusPair(tuple(p for p, _ in rows), tuple(s for _, s in rows), e)
    top = 2 * a.r if is_finite(e) else a.r
    moves = []
    for (r1, c1), (r2, c2), fit in draws:
        src, dst = (r1 % top + 1, c1), (r2 % top + 1, c2)
        b = moved_by_scan(a, *moves)
        if fit and b is not None:
            while not b.has_bead(*unwrap(b, *src)):
                src = (src[0], src[1] - 1)
            while b.has_bead(*unwrap(b, *dst)):
                dst = (dst[0], dst[1] + 1)
        moves.append((src, dst))
    expected = moved_by_scan(a, *moves)
    if expected is None:
        with pytest.raises(ValueError):
            _moved(a, *moves)
    else:
        assert _moved(a, *moves) == expected


def test_moved_in_turn():
    """A later move may refill a column that an earlier one vacated, or
    move a bead an earlier one placed; each move checks its own source
    and target."""
    a = AbacusPair(((2, 1), (1,)), (0, 1), 3)  # rows: {<-2, 1, -1}, {<0, 1}
    refill = ((1, 1), (2, 2)), ((1, -1), (1, 1))
    assert _moved(a, *refill) == moved_by_scan(a, *refill) == AbacusPair(((3,), (1, 1)), (-1, 2), 3)
    chain = ((1, 1), (2, 2)), ((2, 2), (2, 3)), ((2, 3), (3, 3))  # row 3 is row 1 shifted by 3
    assert _moved(a, *chain) == moved_by_scan(a, *chain)
    assert _moved(a, *chain).has_bead(1, 0)
    for bad in ((((1, 0), (2, 2)),), (((1, 1), (2, 1)),), (((1, 1), (2, 2)), ((1, 1), (2, 3)))):
        assert moved_by_scan(a, *bad) is None
        with pytest.raises(ValueError, match="no bead at|occupied"):
            _moved(a, *bad)
    with pytest.raises(ValueError, match="row wrap needs finite e"):
        _moved(AbacusPair(a.mp, a.charge, INFINITY), ((2, 1), (3, 1)))
