"""Elementary moves, operation sets, moving vectors, and cores.

A move drops a bead one row up (same column), or from the top row to
the bottom one e columns left.  The multiset of moves between two abaci
does not depend on the order they are played in; its per-row tally is
the moving vector.  Run:

    python demos/02_moves_and_cores.py
"""

from akblocks import (
    AbacusPair,
    apply_op,
    construct_from_vector,
    core,
    is_complete,
    moving_vector_between,
    operation_set_between,
    render,
)

source = AbacusPair(((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)
target = AbacusPair(((), (4, 3, 1), (3, 2)), (0, 1, 2), 3)

ops, mv = operation_set_between(source, target)
print("moves from the source to the target:")
for op in ops:
    print(f"  bead {op.index} at (row {op.row}, column {op.col})")
print("moving vector:", mv)
print()

print("replaying the moves one by one:")
current = source
for op in ops:
    current = apply_op(current, op)
print("  reached the target?", current == target)
print()

core_pair, core_ops, core_mv = core(source)
print("the core (the unique complete abacus reachable by moves):")
print(render(core_pair, (-4, 4)))
print("core pair:", core_pair.mp, core_pair.charge)
print("complete?", is_complete(core_pair))
print(f"{len(core_ops)} moves with moving vector {core_mv}")
print()

# charges change by the discrete derivative of the moving vector
s, u = source.charge, core_pair.charge
print("charge bookkeeping m_i - m_(i-1) = s_i - u_i:")
for i in range(3):
    print(f"  slot {i + 1}: {core_mv[i]} - {core_mv[i - 1]} = {s[i]} - {u[i]}")
print()

# and backwards: prescribe a moving vector, build a pair realizing it
s, s_star, m = (0, 1, 1), (-1, 1, 2), (1, 1, 0)
lam = construct_from_vector(s, s_star, m, 3)
print(f"a pair with moving vector {m} down to the empty-core abacus at {s_star}:")
print("  multipartition", lam)
check = moving_vector_between(AbacusPair(lam, s, 3), AbacusPair(((), (), ()), s_star, 3))
print("  verified by the move tally:", check)
