from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from akblocks.partitions import (
    INFINITY,
    DominanceRel,
    conjugate,
    conjugate_multi,
    count_multipartitions,
    count_standard_tableaux,
    dominance_compare,
    in_A,
    in_Abar,
    multipartitions_of,
    partitions_of,
    permute,
    permute_charge,
    residue_content,
)
from oracles import dominance_from_scratch

partitions_st = st.lists(st.integers(1, 9), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_conjugate_examples():
    assert conjugate((7, 5, 4, 1, 1)) == (5, 3, 3, 3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions_st)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p


def test_conjugate_involution_exhaustive_small():
    for n in range(13):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_conjugate_multi():
    assert conjugate_multi(((2,), (1, 1))) == ((2,), (1, 1))
    assert conjugate_multi(((3, 1), ())) == ((), (2, 1, 1))
    m = ((3, 1), (2, 2), ())
    assert conjugate_multi(conjugate_multi(m)) == m


def test_permute_matches_worked_example():
    lam = ((2, 1, 1), (2, 2, 1, 1), (3, 1, 1), (4, 3, 1, 1))
    s = (1, 0, 2, 0)
    sigma = (4, 1, 3, 2)
    assert permute(lam, sigma) == ((4, 3, 1, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1, 1))
    assert permute_charge(s, sigma) == (0, 1, 2, 0)


def test_permute_identity_and_inverse():
    m = ((2, 1), (), (3,))
    assert permute(m, (1, 2, 3)) == m
    sigma = (3, 1, 2)
    inverse = (2, 3, 1)
    assert permute(permute(m, sigma), inverse) == m
    with pytest.raises(ValueError):
        permute(m, (1, 1, 2))


def test_dominance_worked_example():
    lam = ((2, 1, 1), (2, 2, 1, 1), (3, 1, 1), (4, 3, 1, 1))
    mu = ((2, 2, 2), (5, 1, 1, 1), (3,), (4, 2, 1))
    assert dominance_compare(mu, lam) is DominanceRel.GREATER
    assert dominance_compare(lam, mu) is DominanceRel.LESS
    sigma = (4, 1, 3, 2)
    assert (
        dominance_compare(permute(lam, sigma), permute(mu, sigma))
        is DominanceRel.INCOMPARABLE
    )
    assert dominance_compare(lam, lam) is DominanceRel.EQUAL


def test_dominance_errors():
    with pytest.raises(ValueError):
        dominance_compare(((1,),), ((1,), ()))
    with pytest.raises(ValueError):
        dominance_compare(((1,), ()), ((1,), (1,)))


def test_dominance_partial_order_small():
    import numpy as np

    for r, n in ((3, 4), (4, 3)):
        mps = list(multipartitions_of(n, r))
        k = len(mps)
        ge = np.zeros((k, k), dtype=bool)
        for i in range(k):
            for j in range(k):
                rel = dominance_compare(mps[i], mps[j])
                ge[i, j] = rel in (DominanceRel.GREATER, DominanceRel.EQUAL)
        # antisymmetry
        both = ge & ge.T
        assert (both == np.eye(k, dtype=bool)).all()
        # transitivity: ge @ ge implies ge
        closure = (ge.astype(np.uint8) @ ge.astype(np.uint8)) > 0
        assert (closure <= ge).all()


def test_dominance_conjugation_duality():
    for r, n in ((2, 4), (3, 3)):
        mps = list(multipartitions_of(n, r))
        for a in mps:
            for b in mps:
                forward = dominance_compare(a, b)
                backward = dominance_compare(conjugate_multi(b), conjugate_multi(a))
                assert (forward is DominanceRel.GREATER) == (backward is DominanceRel.GREATER)


def test_dominance_matches_from_scratch_sums():
    for r, n in ((3, 3), (2, 4), (4, 2)):
        mps = list(multipartitions_of(n, r))
        for a in mps:
            for b in mps:
                assert dominance_compare(a, b) is dominance_from_scratch(a, b)


@given(st.lists(st.tuples(partitions_st, partitions_st), min_size=1, max_size=4))
def test_dominance_matches_from_scratch_sums_random(comps):
    a = tuple(x for x, _ in comps)
    b = tuple(y for _, y in comps)
    # move the size difference into an extra last component so sizes agree
    da = sum(map(sum, a))
    db = sum(map(sum, b))
    a += ((db - da,) if db > da else (),)
    b += ((da - db,) if da > db else (),)
    assert dominance_compare(a, b) is dominance_from_scratch(a, b)


def test_residue_content_examples():
    assert residue_content(((), ()), (0, 5), 3) == {}
    assert residue_content(((2,), (), ()), (0, 0, 0), 2) == {0: 1, 1: 1}
    # the incomparable-abaci pair: equal sizes but different contents,
    # values frozen from the node-by-node tally oracle
    lam = ((2, 1, 1), (2, 2, 1, 1), (3, 1, 1), (4, 3, 1, 1))
    mu = ((2, 2, 2), (5, 1, 1, 1), (3,), (4, 2, 1))
    s = (1, 0, 2, 0)
    assert residue_content(lam, s, 5) == {0: 6, 1: 5, 2: 5, 3: 4, 4: 4}
    assert residue_content(mu, s, 5) == {0: 5, 1: 4, 2: 5, 3: 5, 4: 5}


def test_residue_content_total_and_permutation_invariance():
    m = ((3, 1), (2,), (1, 1))
    s = (0, 2, 1)
    for e in (2, 3, INFINITY):
        content = residue_content(m, s, e)
        assert sum(content.values()) == 8
        for sigma in permutations((1, 2, 3)):
            assert residue_content(permute(m, sigma), permute_charge(s, sigma), e) == content


def test_count_standard_tableaux():
    assert count_standard_tableaux(((1,), ())) == 1
    assert count_standard_tableaux(((2,), (), (), (1, 1))) == 6
    assert count_standard_tableaux(((2, 1),)) == 2
    assert count_standard_tableaux(((2,),)) == 1
    assert count_standard_tableaux(((1, 1),)) == 1


def test_charge_windows():
    assert in_A((0, 0, 1), 2)
    assert not in_A((0, 0, 2), 2)
    assert in_Abar((0, 0, 2), 2)
    assert not in_Abar((1, 0), 2)
    assert in_A((0, 5, 100), INFINITY)


def test_count_multipartitions_matches_enumeration():
    for r in (1, 2, 3, 4, 5):
        for n in range(9):
            assert count_multipartitions(n, r) == len(list(multipartitions_of(n, r)))
        for n in (-1, -5):
            assert count_multipartitions(n, r) == 0 == len(list(multipartitions_of(n, r)))
