import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from akblocks.abacus import (
    AbacusPair,
    dual,
    is_complete,
    n_right,
    pair_from_beads,
    render,
    row_from_beads,
    subabacus_diff,
    uglov,
)
from akblocks.blocks import alpha_pairing, block_id
from akblocks.partitions import INFINITY, in_A, in_Abar, multipartitions_of

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


def test_pair_from_beads_examples():
    a = pair_from_beads([(0, []), (0, []), (0, [])], 3)
    assert a.mp == ((), (), ()) and a.charge == (0, 0, 0)
    b = pair_from_beads([(-1, [1])], 2)
    assert b.mp == ((2,),) and b.charge == (0,)
    source = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
    lo, hi = source.bounds()
    rows = [(lo, [c for c in range(lo, hi) if source.has_bead(i, c)]) for i in (1, 2, 3)]
    assert pair_from_beads(rows, 3) == source


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
