"""Blocks: identity, weight, representation type, and derived equivalence.

Two pairs over one multicharge share a block exactly when their residue
contents agree.  The block's weight spreads over the rows as the block
moving vector, and that vector decides the representation type.  Run:

    python demos/03_block_classification.py
"""

from akblocks import (
    AbacusPair,
    block_id,
    block_moving_vector,
    defect,
    derived_equivalent_weight1,
    enumerate_block_members,
    find_incomparable_pair,
    orbit_reachable,
    repr_type,
    schur_repr_type,
    subabacus_moving_vector,
)

print("== a finite family: two truncated polynomial rings ==")
e, s = 5, (1, 1, 1, 3, 3, 3)
for mp in (((1,), (), (), (), (), ()), ((), (), (), (1,), (), ())):
    pair = AbacusPair(mp, s, e)
    mv, _ = block_moving_vector(pair)
    rep = repr_type(pair)
    print(f"member {mp}: moving vector {mv} -> {rep.verdict}", end="")
    print(f", K[x]/(x^{rep.detail_degree})" if rep.detail_kind == "truncated_polynomial" else "")
lam = AbacusPair(((1,), (), (), (), (), ()), s, e)
mu = AbacusPair(((), (), (), (1,), (), ()), s, e)
orbit = orbit_reachable(block_id(lam), block_id(mu), 0)
print(f"one affine Weyl orbit: {orbit.found}")
print("(same structure, yet the two blocks lie in different orbits: their weights")
print(" reduce to different dominant weights, so no reflection word connects them)")
print()

print("== an infinite block with an incomparability witness ==")
pair = AbacusPair(((1,), (), (1,), ()), (0, 0, 1, 1), 4)
rep = repr_type(pair)
print(f"moving vector {rep.moving_vector}: verdict {rep.verdict}")
if rep.witness:
    w = rep.witness
    print(f"witness pair in the block: {w.mu} and {w.nu}")
    print(f"bead/hole swap at rows {w.coords[0]} and {w.coords[2]}; permutation {w.sigma}")
print()

print("== the constant-multicharge domino block at e = 2 ==")
pair = AbacusPair(((2,), (), ()), (0, 0, 0), 2)
bid = block_id(pair)
members = enumerate_block_members(bid)
print(f"weight {defect(bid)}, {len(members)} members:")
for mp in members:
    print("  ", mp)
rep = repr_type(pair)
print(f"verdict: {rep.verdict} (members are totally ordered, yet the block is not finite type)")
print(f"witness search over the block: {find_incomparable_pair(bid, member=pair.mp)}")
print()

print("== weight-one blocks and the derived-equivalence invariant ==")
blocks = []
for i in range(3):
    mp = tuple((2,) if k == i else () for k in range(3))
    blocks.append(block_id(AbacusPair(mp, (0, 1, 2), 3)))
for bid in blocks:
    w = subabacus_moving_vector(bid)
    print(f"block with content {dict(bid.content)}: column-class move counts {w}")
print(
    "pairwise derived equivalent?",
    all(derived_equivalent_weight1(blocks[0], b) for b in blocks[1:]),
)
print()

print("== the matching cyclotomic q-Schur verdicts ==")
for mp, charge, e in (
    (((1,), (), (), (), (), ()), (1, 1, 1, 3, 3, 3), 5),  # weight 2, Hecke finite
    (((), ()), (0, 1), 2),  # weight 0
):
    rep = repr_type(AbacusPair(mp, charge, e))
    print(f"weight {rep.weight}: Hecke {rep.verdict}, q-Schur {schur_repr_type(rep)}")
