"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code paths with the analytic implementations: the
core is recomputed by greedily simulating single bead moves, the
one-runner e-core by the classic runner pushdown on beta-numbers, the
Cartan pairings by the pairwise double sum, dominance from every
cumulative sum recomputed from scratch, block members by filtering
all r-multipartitions of n on residue content, and the row differences
behind incomparability and the witness constructions' bead-over-hole
columns by scanning columns one at a time, as are the nesting test of
complete abaci and the subabacus bead-count differences.  The residue
content is tallied node by node, and the conjugate partition counts the
parts of each length from its definition.  The subabacus moving
vector is counted from the moves that ``core`` lists one by one; it
shares the bead paths with the library and checks the per-subabacus sum.
The operation set is listed from the same bead paths one level at a
time with ``divmod``, as records of a frozen dataclass, and the moving
vector is tallied from those paths row by row rather than from the
charges.  The witness
search is checked against its earlier form, which ran the pattern
constructions on four seeds: the core, the member and both their duals,
each read into its own fresh column memo for every construction.  The
bead move that the constructions and ``apply_op`` share is checked
against a rebuild of every row's bead set, read column by column.
Affine Weyl orbits are checked against the breadth-first search over
content vectors that preceded the dominant reduction, which shares only
the pairing (alpha_j, Lambda - beta) with it.  The witness search's
verdict-first shortcut, which answers None on a block of finite type, is
checked by scanning every ordered pair of such a block's members with
the column scans above.  The weight-one derived-equivalence test keeps
its enumeration form here: it compares the numbers of nonzero components
of the two blocks' subabacus moving vectors, counted from listed moves
over the filter's members.  The member stream's order is checked against
its earlier lift and row builders: each lift a {level: +1 / -1} dict
copied from its parent and regrouped by row, each member row a set of
the whole row decoded by ``row_from_beads``.
"""

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from operator import getitem

from akblocks.abacus import AbacusPair, _moved, dual, pair_from_beads, row_from_beads
from akblocks.classify import _CONSTRUCTIONS, _dual_coords, _RowPairCols, _witness_from
from akblocks.moves import ElementaryOp, _core_pair, apply_op, core
from akblocks.blocks import (
    BlockId,
    CartanData,
    OrbitResult,
    _block_core,
    _pairing,
    _tally_combinations,
    weight_multiplicities,
)
from akblocks.partitions import (
    INFINITY,
    DominanceRel,
    is_finite,
    multipartitions_of,
    residue,
    residue_content,
    size,
)


@dataclass(frozen=True, order=True)
class LevelOp:
    """One listed move as a frozen dataclass: source row and column, bead index."""

    row: int
    col: int
    index: int


def listing_by_levels(paths, e, r):
    """The moves along bead paths (c, idx, t_from, t_to), each bead's from
    its top level down: the move at level t = k*r + u of subabacus c
    leaves row r - u, column k*e + c (column c when e is infinite)."""
    step = e if is_finite(e) else 0
    ops = []
    for c, idx, t_from, t_to in paths:
        for t in range(t_from, t_to, -1):
            k, u = divmod(t, r)
            ops.append(LevelOp(r - u, k * step + c, idx))
    return ops


def row_tally_of_paths(paths, r):
    """Per-row tally of the moves along bead paths, without listing them:
    a path makes (t_from - t_to) // r full cycles over the rows plus a run
    of fewer than r levels, the move at level t lying in row r - (t mod r)."""
    mv = [0] * r
    for _, _, t_from, t_to in paths:
        q, rest = divmod(t_from - t_to, r)
        mv = [m + q for m in mv]
        for t in range(t_to + 1, t_to + 1 + rest):
            mv[r - 1 - t % r] += 1
    return tuple(mv)


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


def column_count(a, col):
    """Number of beads in one column (between 0 and r)."""
    return sum(1 for i in range(1, a.r + 1) if a.has_bead(i, col))


def subabacus_diff_by_scan(a, j):
    """Bead-count difference between the (j-1)-th and j-th subabacus, as
    the sum over k of the column-count differences at columns j-1+ke and
    j+ke over a k-window past which both columns are full or empty; with
    infinite e the single term at columns j-1 and j."""
    lo, hi = a.bounds()
    if not is_finite(a.e):
        return column_count(a, j - 1) - column_count(a, j)
    e = a.e
    k_lo = (lo - (j - 1)) // e - 1
    k_hi = (hi - (j - 1)) // e + 1
    return sum(
        column_count(a, j - 1 + k * e) - column_count(a, j + k * e) for k in range(k_lo, k_hi + 1)
    )


def is_complete_by_scan(a):
    """Row bead sets nested, and row r shifted down by e inside row 1 for
    finite e, checked column by column over the pair's bounds."""
    lo, hi = a.bounds()
    for i in range(1, a.r):
        for col in range(lo, hi):
            if a.has_bead(i, col) and not a.has_bead(i + 1, col):
                return False
    if is_finite(a.e):
        for col in range(lo, hi):
            if a.has_bead(a.r, col) and not a.has_bead(1, col - a.e):
                return False
    return True


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


def conjugate_by_definition(p):
    """Column j + 1 of the diagram has one node per part of length > j."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


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


def unwrap(pair, row, col):
    """The position (row, col), row r + k read as row k shifted right by e."""
    while row > pair.r:
        row, col = row - pair.r, col - pair.e
    return row, col


def cols_by_scan(pair, low_row, high_row, low_bead, high_bead):
    """The columns of a pair, over the witness constructions' former scan
    window, where the (wrapped) low and high rows carry the given bead
    states, read one column at a time."""
    step = pair.e if is_finite(pair.e) else 1
    lo, hi = pair.bounds()
    return [
        h
        for h in range(lo - 2 * step - 1, hi + step + 1)
        if pair.has_bead(*unwrap(pair, low_row, h)) == low_bead
        and pair.has_bead(*unwrap(pair, high_row, h)) == high_bead
    ]


def moved_by_scan(pair, *moves):
    """The pair after each (src, dst) bead move in turn, row r + k read as
    row k shifted right by e, or None if a source is empty or a target
    occupied.  Every row's bead set is read column by column through
    ``has_bead`` over a window that holds every move, and rebuilt from it."""
    unwrapped = [unwrap(pair, *at) for move in moves for at in move]
    lo = min([pair.bounds()[0]] + [col for _, col in unwrapped])
    hi = max([pair.bounds()[1]] + [col for _, col in unwrapped]) + 1
    rows = {row: {c for c in range(lo, hi) if pair.has_bead(row, c)} for row in range(1, pair.r + 1)}
    for (sr, sc), (dr, dc) in zip(unwrapped[::2], unwrapped[1::2]):
        if sc not in rows[sr] or dc in rows[dr]:
            return None
        rows[sr].remove(sc)
        rows[dr].add(dc)
    return pair_from_beads([(lo, rows[row]) for row in range(1, pair.r + 1)], pair.e)


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


def constructed_witness_four_seeds(member, core_pair, b):
    """The first witness the constructions build on the core, the member,
    the core's dual and the member's dual, in that order, with a fresh
    column memo per construction; the member lies in ``b`` over a
    normalized multicharge and ``core_pair`` is its core.  Every pair is
    built from its moves and checked by its block id, not by the moves."""
    for idx, seed in enumerate([core_pair, member, dual(core_pair), dual(member)]):
        for build in _CONSTRUCTIONS:
            try:
                built = build(_RowPairCols(seed))
                if built:
                    mu, nu, coords = _moved(seed, *built[0]), _moved(seed, *built[1]), built[2]
            except ValueError:
                built = None
            if not built:
                continue
            if idx >= 2:
                mu, nu, coords = dual(mu), dual(nu), _dual_coords(seed.r, coords)
            witness = _witness_from(mu, nu, coords, b)
            if witness:
                return witness
    return None


def witness_by_member_scan(b, members):
    """The first (mu, nu, coords) over the ordered pairs of ``members`` of
    block ``b`` whose column-scan witness candidate passes the column-scan
    checker, or None."""
    pairs = [AbacusPair(mp, b.charge, b.e) for mp in members]
    for a, c in permutations(pairs, 2):
        coords = incomparable_abaci_by_scan(a, c)
        if coords and is_incomparable_witness_by_scan(a, c, *coords):
            return a.mp, c.mp, coords
    return None


@lru_cache(maxsize=None)
def _nonzero_components_by_ops(b):
    return len(subabacus_moving_vector_by_ops(b, block_members_by_filter(b)))


def derived_equivalent_weight1_by_enumeration(b1, b2):
    """Whether two weight-one blocks' subabacus moving vectors have the
    same number of nonzero components, each vector counted from every
    listed move of every member found by filtering."""
    return _nonzero_components_by_ops(b1) == _nonzero_components_by_ops(b2)


def _reflection_indices(k: dict, c: dict, e):
    if is_finite(e):
        return range(e)
    support = set(k) | set(c)
    if not support:
        return []
    return range(min(support) - 1, max(support) + 2)


def orbit_reachable_by_bfs(b1: BlockId, b2: BlockId, depth: int) -> OrbitResult:
    """Bounded breadth-first search for a reflection word from b1 to b2.

    States are content vectors; each reflection sends beta to
    beta + (alpha_j, Lambda - beta) alpha_j.  A negative answer only
    means no word of length at most ``depth`` exists.  For infinite e
    the reflection indices are restricted, per state, to the support of
    the dominant weight and the content widened by one slot on each
    side; reflections outside that window act trivially.
    """
    if b1.e != b2.e:
        raise ValueError("blocks must share the quantum characteristic")
    k1 = weight_multiplicities(b1.charge, b1.e)
    k2 = weight_multiplicities(b2.charge, b2.e)
    if k1 != k2:
        raise ValueError("blocks must induce the same dominant weight")
    e = b1.e
    start = b1.content
    target = b2.content
    if start == target:
        return OrbitResult(True, (), depth)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        state, word = queue.popleft()
        if len(word) >= depth:
            continue
        c = dict(state)
        for j in _reflection_indices(k1, c, e):
            mj = _pairing(k1, c, j, e)
            if mj == 0:
                continue
            nxt = dict(c)
            nxt[residue(j, e)] = nxt.get(residue(j, e), 0) + mj
            if nxt[residue(j, e)] == 0:
                del nxt[residue(j, e)]
            key = tuple(sorted(nxt.items()))
            if key in seen:
                continue
            seen.add(key)
            nw = word + (residue(j, e),)
            if key == target:
                return OrbitResult(True, nw, depth)
            queue.append((key, nw))
    return OrbitResult(False, None, depth)


class _LiftsByLevelDicts(dict):
    """{size s: {per-row tally: lifts}} of one subabacus, as the member
    stream first built them: each waiting lift carries a {level: +1
    filled / -1 emptied} dict, each child copies its parent's dict, and
    every lift is regrouped row by row through the level positions."""

    def __init__(self, c, top, mv, e, place):
        super().__init__()
        r = len(place)
        if is_finite(e):
            max_len = max_part = sum(mv)
        else:
            max_len, max_part = top, r - top
        step = e if is_finite(e) else 0
        span = range(top - max_len, top + max_part)
        self.where = {t: (place[r - 1 - t % r], t // r * step + c) for t in span}
        self.top, self.mv, self.max_len = top, mv, max_len
        self.changes = {}
        self.waiting = {0: [(0, max_part, (0,) * r, {})]}

    def __missing__(self, size):
        top, mv, where, changes = self.top, self.mv, self.where, self.changes
        r = len(mv)
        for s in range(len(self), size + 1):
            groups = self[s] = {}
            for length, last, tally, net in self.waiting.pop(s, ()):
                per_row = {}
                for t, sign in net.items():
                    x, col = where[t]
                    per_row.setdefault(x, []).append((col, sign))
                lift = [frozenset()] * r
                for x, moved in per_row.items():
                    key = frozenset(moved)
                    lift[x] = changes.setdefault(key, key)
                groups.setdefault(tally, []).append(tuple(lift))
                i = length + 1
                if i > self.max_len:
                    continue
                grown = list(tally)
                for part in range(1, last + 1):
                    x = r - 1 - (top - i + part) % r
                    grown[x] += 1
                    if grown[x] > mv[x]:
                        break
                    child = dict(net)
                    child[top - i] = -1
                    if child.get(top - i + part) == -1:
                        del child[top - i + part]
                    else:
                        child[top - i + part] = 1
                    self.waiting.setdefault(s + part, []).append((i, part, tuple(grown), child))
        return self[size]


class _RowsByBeadSets(dict):
    """One core row's components keyed by the lifts' changes in that row,
    each rebuilt from a set of the whole row and decoded by row_from_beads."""

    def __init__(self, floor, extras):
        super().__init__()
        self.floor, self.extras = floor, extras

    def __missing__(self, changes):
        moved = [m for change in changes for m in change]
        low = min([self.floor] + [col for col, sign in moved if sign < 0])
        beads = set(chain(range(low, self.floor), self.extras))
        beads.difference_update(col for col, sign in moved if sign < 0)
        beads.update(col for col, sign in moved if sign > 0)
        comp = self[changes] = row_from_beads(low, beads)[0]
        return comp


def member_stream_by_level_dicts(b):
    """The block's members in the member stream's order, from the lift and
    row builders above, the library's block core and tally search aside."""
    block = _block_core(b)
    if block is None:
        return
    _, sigma, tops, lo, mv = block
    r = len(b.charge)
    place = [x - 1 for x in sigma]
    tables = [
        _LiftsByLevelDicts(c, top, mv, b.e, place)
        for c, top in tops.items()
        if is_finite(b.e) or 0 < top < r
    ]
    rows_by_slot = [None] * r
    for x, (floor, extras) in zip(place, _core_pair(tops, lo, b.e, r)._beadsets):
        rows_by_slot[x] = _RowsByBeadSets(floor, extras)
    for groups in _tally_combinations(tables, mv):
        for pick in product(*groups):
            changes = zip(*pick) if pick else [()] * r
            yield tuple(map(getitem, rows_by_slot, changes))
