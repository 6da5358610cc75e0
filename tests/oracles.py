"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code paths with the analytic implementations: the
core is recomputed by greedily simulating single bead moves, the
one-runner e-core by the classic runner pushdown on beta-numbers, the
Cartan pairings by the pairwise double sum, dominance from every
cumulative sum recomputed from scratch, block members by filtering
all r-multipartitions of n on residue content, and the row differences
behind incomparability and the witness constructions' bead-over-hole
columns by scanning columns one at a time.  The subabacus moving
vector is counted from the moves that ``core`` lists one by one; it
shares the bead paths with the library and checks the per-subabacus sum.
"""

from collections import Counter
from functools import lru_cache

from akblocks.abacus import AbacusPair
from akblocks.moves import ElementaryOp, apply_op, core
from akblocks.blocks import BlockId, CartanData, weight_multiplicities
from akblocks.partitions import (
    INFINITY,
    DominanceRel,
    is_finite,
    multipartitions_of,
    residue,
    residue_content,
    size,
)


def t_key(pair, row, col):
    if is_finite(pair.e):
        c = col % pair.e
        return c, ((col - c) // pair.e) * pair.r + (pair.r - row)
    return col, pair.r - row


def bead_index(pair, row, col):
    """1 plus the number of beads after (larger linearization key) in the
    same subabacus; scans the window directly."""
    c0, t0 = t_key(pair, row, col)
    lo, hi = pair.bounds()
    count = 0
    for row2 in range(1, pair.r + 1):
        for col2 in range(lo, hi):
            if not pair.has_bead(row2, col2):
                continue
            c2, t2 = t_key(pair, row2, col2)
            if c2 == c0 and t2 > t0:
                count += 1
    return count + 1


def applicable_ops(pair):
    """All single moves available right now, as (row, col) sources."""
    lo, hi = pair.bounds()
    found = []
    for row in range(1, pair.r + 1):
        for col in range(lo, hi):
            if not pair.has_bead(row, col):
                continue
            if row < pair.r:
                if not pair.has_bead(row + 1, col):
                    found.append((row, col))
            elif is_finite(pair.e) and not pair.has_bead(1, col - pair.e):
                found.append((row, col))
    return found

def greedy_core(pair, rng):
    """Apply random available moves until none remain.

    Returns the final abacus and the multiset of recorded moves."""
    ops = Counter()
    current = pair
    while True:
        avail = applicable_ops(current)
        if not avail:
            return current, ops
        row, col = avail[rng.randrange(len(avail))]
        ops[(row, col, bead_index(current, row, col))] += 1
        current = apply_op(current, ElementaryOp(row, col, 0))


def greedy_ops_to(pair, target, rng):
    """Random valid move sequence from one abacus to a reachable target."""

    def level_map(p):
        lo, hi = min(p.bounds()[0], target.bounds()[0]), max(p.bounds()[1], target.bounds()[1])
        levels = {}
        for row in range(1, p.r + 1):
            for col in range(lo, hi):
                if p.has_bead(row, col):
                    c, t = t_key(p, row, col)
                    levels.setdefault(c, []).append(t)
        return {c: sorted(ts, reverse=True) for c, ts in levels.items()}

    goal = level_map(target)
    ops = Counter()
    current = pair
    while True:
        now = level_map(current)
        if now == goal:
            return ops
        avail = []
        for row, col in applicable_ops(current):
            c, t = t_key(current, row, col)
            idx = now[c].index(t)
            if c in goal and idx < len(goal[c]) and goal[c][idx] < t:
                avail.append((row, col))
        if not avail:
            raise AssertionError("greedy simulation wedged before reaching the target")
        row, col = avail[rng.randrange(len(avail))]
        ops[(row, col, bead_index(current, row, col))] += 1
        current = apply_op(current, ElementaryOp(row, col, 0))


def ecore_one_runner(partition, charge, e):
    """Classic e-core of a single abacus by runner pushdown.

    Returns (core partition, core charge, weight)."""
    floor = charge - len(partition)
    betas = [partition[j] - (j + 1) + charge for j in range(len(partition))]
    base = {c: (floor - 1 - c) // e + 1 for c in range(e)}
    runners = {c: [] for c in range(e)}
    for p in betas:
        runners[p % e].append(p // e)
    weight = 0
    core_positions = []
    b_min = min(base.values())
    for c in range(e):
        levels = sorted(runners[c])
        for i, level in enumerate(levels):
            weight += level - (base[c] + i)
        filled = base[c] + len(levels)
        core_positions.extend(k * e + c for k in range(b_min, filled))
    from akblocks.abacus import row_from_beads

    core_part, core_charge = row_from_beads(e * b_min, core_positions)
    return core_part, core_charge, weight


def tally_residues(mp, charge, e):
    """Node-by-node residue tally, written independently of the library."""
    counts = {}
    for k in range(len(mp)):
        for i in range(len(mp[k])):
            for j in range(mp[k][i]):
                f = (j + 1) - (i + 1) + charge[k]
                if e != INFINITY:
                    f %= e
                counts[f] = counts.get(f, 0) + 1
    return counts


def defect_pairwise(b):
    """(Lambda, beta) - (beta, beta)/2 with (beta, beta) as the double sum
    over the Cartan matrix."""
    cartan = CartanData(b.e)
    k = weight_multiplicities(b.charge, b.e)
    c = b.content_dict()
    lam_beta = sum(k.get(i, 0) * ci for i, ci in c.items())
    beta_beta = sum(
        cartan.alpha_alpha(i, j) * ci * cj for i, ci in c.items() for j, cj in c.items()
    )
    assert beta_beta % 2 == 0
    return lam_beta - beta_beta // 2


def alpha_pairing_pairwise(b, j):
    """(alpha_j, Lambda - beta) summed over the whole support."""
    cartan = CartanData(b.e)
    k = weight_multiplicities(b.charge, b.e)
    c = b.content_dict()
    return k.get(residue(j, b.e), 0) - sum(cartan.alpha_alpha(j, i) * ci for i, ci in c.items())


def cumulative(m, s, j):
    """Nodes in components 1..s-1 plus the first j rows of component s."""
    head = sum(sum(c) for c in m[: s - 1])
    return head + sum(m[s - 1][:j])


def dominance_from_scratch(a, b):
    """Dominance from every cumulative sum, each recomputed from scratch."""
    assert len(a) == len(b) and size(a) == size(b)
    if a == b:
        return DominanceRel.EQUAL
    pairs = [
        (cumulative(a, s, j), cumulative(b, s, j))
        for s in range(1, len(a) + 1)
        for j in range(1, max(len(a[s - 1]), len(b[s - 1]), 1) + 1)
    ]
    ge = all(x >= y for x, y in pairs)
    le = all(x <= y for x, y in pairs)
    if ge:
        return DominanceRel.GREATER
    if le:
        return DominanceRel.LESS
    return DominanceRel.INCOMPARABLE


@lru_cache(maxsize=16)
def blocks_by_filter(e, charge, n):
    """{block: members} for every block of size n, by filtering all
    r-multipartitions of n on residue content; members sorted."""
    grouped = {}
    for mp in multipartitions_of(n, len(charge)):
        content = tuple(sorted(residue_content(mp, charge, e).items()))
        grouped.setdefault(BlockId(e, charge, content, n), []).append(mp)
    return {b: sorted(members) for b, members in grouped.items()}


def block_members_by_filter(b):
    """Every r-multipartition of n whose residue content is the block's, sorted."""
    return list(blocks_by_filter(b.e, b.charge, b.n).get(b, []))


def subabacus_moving_vector_by_ops(b, members):
    """Every listed move of every member to its core, counted by the
    source column's class mod e (the column itself for infinite e)."""
    counts = Counter()
    for mp in members:
        _, ops, _ = core(AbacusPair(mp, b.charge, b.e))
        for op in ops:
            counts[op.col % b.e if is_finite(b.e) else op.col] += 1
    return dict(sorted(counts.items()))


def cols_by_scan(model, low_row, high_row, low_bead, high_bead):
    """Scan columns of a witness-construction model whose (wrapped) low
    and high rows carry the given bead states, one column at a time."""
    return [
        h
        for h in range(model.lo + 1, model.hi)
        if model.bead(low_row, h) == low_bead and model.bead(high_row, h) == high_bead
    ]


def row_diffs_by_scan(a, b, row):
    """Columns where one row of two abaci differs, ascending: every column
    from the lower floor to the highest beta-number is compared."""
    (fa, xa), (fb, xb) = [(p.row_floor(row), set(p.row_betas(row))) for p in (a, b)]
    hi = max(fa, fb, *xa, *xb) + 1
    return [c for c in range(min(fa, fb), hi) if (c < fa or c in xa) != (c < fb or c in xb)]


def incomparable_abaci_by_scan(a, b):
    """First (k1, i1, k2, i2) in row order: the top difference of row k1
    is a bead of a, the bottom difference of row k2 a bead of b."""
    tops, bottoms = [], []
    for row in range(1, a.r + 1):
        diffs = row_diffs_by_scan(a, b, row)
        if not diffs:
            continue
        if diffs[-1] in a.row_betas(row) or diffs[-1] < a.row_floor(row):
            tops.append((row, diffs[-1]))
        if diffs[0] in b.row_betas(row) or diffs[0] < b.row_floor(row):
            bottoms.append((row, diffs[0]))
    for k1, i1 in tops:
        for k2, i2 in bottoms:
            if k1 != k2:
                return (k1, i1, k2, i2)
    return None


def is_incomparable_witness_by_scan(a, b, k1, i1, k2, i2):
    """The two-coordinate swap pattern: (k1, i1) is a difference with the
    bead in a and row k1 agrees right of it, (k2, i2) one with the bead in
    b and row k2 agrees left of it."""
    if k1 == k2 or not (1 <= k1 <= a.r and 1 <= k2 <= a.r):
        return False
    d1, d2 = row_diffs_by_scan(a, b, k1), row_diffs_by_scan(a, b, k2)
    bead_a = i1 in a.row_betas(k1) or i1 < a.row_floor(k1)
    bead_b = i2 in b.row_betas(k2) or i2 < b.row_floor(k2)
    return bool(d1 and d2) and d1[-1] == i1 and bead_a and d2[0] == i2 and bead_b
