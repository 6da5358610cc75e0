"""Elementary bead moves, operation sets, moving vectors, and cores.

A move of the first kind sends a bead at (x, y) to (x+1, y); a move of
the second kind (finite e only) sends a bead at (r, y) to (1, y-e).
Moves never leave a subabacus (the columns of one residue class mod e),
and within one subabacus the positions are totally ordered by the key

    t(x, y) = k*r + (r - x)   where  y = k*e + c,

with a single move dropping t by exactly one.  Beads are indexed inside
their subabacus by 1 plus the number of beads after them (larger t);
moves preserve the index, so the multiset of moves between two abaci is
independent of the order they are performed in.  Everything below works
on this linearization.

Each subabacus's levels are read off each row's floor and beta-numbers
once.  With finite e they start at the highest level below which every
row is beaded, so no column window is scanned, and a row's run of floor
beads is added as one range.  The core fills, per subabacus, the levels below its top
(that base plus the bead count), so bead ``idx`` goes to top - idx; only
the beads above the first one already in place move.  The core's rows
are built from the tops directly: row ``row`` holds column k*e + c iff
k < (top + row - 1) // r.  A bead's path is a run of levels, and the
move at level t lies in row r - (t mod r), so the moving vector follows
from the levels alone.  :func:`core` costs O(number of moves) on top,
because the move list is its output; :func:`core_and_vector` does not
pay that.  Pairs built here from validated pairs skip re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .abacus import AbacusPair, _pair_of_beads, pair_from_beads, row_from_beads
from .partitions import (
    Multicharge,
    Multipartition,
    check_integers,
    check_quantum_char,
    in_Abar,
    is_finite,
)


@dataclass(frozen=True, order=True)
class ElementaryOp:
    """One bead move, recorded by its source position and bead index."""

    row: int
    col: int
    index: int


def op_kind(op: ElementaryOp, r: int) -> str:
    return "second" if op.row == r else "first"


def _sub_levels(a: AbacusPair, cols=None) -> dict:
    """Per-subabacus bead levels, read off each row's floor and beta-numbers.

    Returns {c: (t_base, levels)} in ascending c: every level below
    t_base is beaded and ``levels`` lists the bead levels from t_base on,
    descending.  With finite e, t_base is the highest level below which
    every row is beaded: row ``row`` holds the levels k*r + (r - row) of
    its floor run for k < ceil((floor - c) / e), added as one range.  With
    infinite e each column is its own subabacus of the r levels from 0,
    and t_base is 0; ``cols`` (the pair's bounds by default) lists the
    columns wanted, those left of the pair's bounds being full.
    """
    e, r = a.e, a.r
    rows = a._beadsets
    out = {}
    if is_finite(e):
        floors = [(floor, r - row) for row, (floor, _) in enumerate(rows, 1)]
        for c in range(e):
            ends = [-((c - floor) // e) * r + u for floor, u in floors]
            t_base = min(ends)
            levels = []
            for end in ends:
                levels.extend(range(end - r, t_base - 1, -r))
            out[c] = (t_base, levels)
        for row, (_, extras) in enumerate(rows, 1):
            for col in extras:
                k, c = divmod(col, e)
                out[c][1].append(k * r + r - row)
    else:
        by_level = [(r - row, floor, extras) for row, (floor, extras) in enumerate(rows, 1)]
        for c in range(*a.bounds()) if cols is None else cols:
            out[c] = (0, [u for u, floor, extras in by_level if c < floor or c in extras])
    for _, levels in out.values():
        levels.sort(reverse=True)
    return out


def _bead_paths(levels: dict, targets: dict):
    """(c, bead index, t_from, t_to) for every bead that moves, in the
    listing order: subabacus, then bead index.

    ``targets`` maps each subabacus to its descending target levels;
    raises if some bead cannot get there by elementary moves.
    """
    for c, (_, src) in levels.items():
        dst = targets[c]
        if len(src) != len(dst):
            raise ValueError(
                f"target unreachable: subabacus {c} bead counts differ ({len(src)} vs {len(dst)})"
            )
        for idx, (t_from, t_to) in enumerate(zip(src, dst), start=1):
            if t_to > t_from:
                raise ValueError(
                    f"target unreachable: bead {idx} of subabacus {c} would have to move backwards"
                )
            if t_to < t_from:
                yield c, idx, t_from, t_to


def _vector(paths, r: int) -> tuple:
    """Per-row tally of the moves along the paths, without listing them:
    a path makes (t_from - t_to) // r full cycles over the rows plus a run
    of fewer than r levels, the move at level t lying in row r - (t mod r).
    """
    mv = [0] * r
    cycles = 0
    for _, _, t_from, t_to in paths:
        q, rest = divmod(t_from - t_to, r)
        cycles += q
        for t in range(t_to + 1, t_to + 1 + rest):
            mv[r - 1 - t % r] += 1
    return tuple(m + cycles for m in mv)


def _listing(paths, e, r: int) -> tuple:
    """The moves along the paths, each bead's from the top level down.

    The move at level t of subabacus c leaves the position of that
    level: level k*r + (r - row) is column k*e + c.
    """
    step = e if is_finite(e) else 0  # with infinite e every level is below r
    ops = []
    for c, idx, t_from, t_to in paths:
        for t in range(t_from, t_to, -1):
            k, u = divmod(t, r)
            ops.append(ElementaryOp(r - u, k * step + c, idx))
    return tuple(ops)


def _paths_between(a: AbacusPair, b: AbacusPair):
    if a.e != b.e or a.r != b.r:
        raise ValueError("abaci must share quantum characteristic and rank")
    cols = None
    if not is_finite(a.e):
        cols = range(min(a.bounds()[0], b.bounds()[0]), max(a.bounds()[1], b.bounds()[1]))
    src, dst = _sub_levels(a, cols), _sub_levels(b, cols)
    for c, (t_a, levels_a) in src.items():
        # list both subabaci from the lower of their two bases
        t_b, levels_b = dst[c]
        base = min(t_a, t_b)
        levels_a.extend(range(t_a - 1, base - 1, -1))
        levels_b.extend(range(t_b - 1, base - 1, -1))
    return _bead_paths(src, {c: levels for c, (_, levels) in dst.items()})


def operation_set_between(a: AbacusPair, b: AbacusPair):
    """(operation set, moving vector) from one abacus to a reachable one.

    Raises if ``b`` is not reachable from ``a`` by elementary moves.
    Only multiset equality of the returned operation set is contractual;
    the listing is sorted by (subabacus, bead index, move order).
    """
    paths = list(_paths_between(a, b))
    return _listing(paths, a.e, a.r), _vector(paths, a.r)


def moving_vector_between(a: AbacusPair, b: AbacusPair) -> tuple:
    """Per-row tally of the operation set from a to b, without listing it."""
    return _vector(_paths_between(a, b), a.r)


def _core_pair(tops: dict, lo: int, e, r: int) -> AbacusPair:
    """The complete abacus whose subabacus c fills exactly the levels
    below ``tops[c]``, built row by row from the tops.

    With finite e, ``tops`` lists c = 0, ..., e - 1 in order.  Level
    k*r + (r - row) is column k*e + c, so row ``row`` holds column k*e + c
    iff k < (top + row - 1) // r, and the column of that k is the row's
    first hole in class c.  With infinite e, ``tops`` lists the columns
    from ``lo`` on, each its own subabacus: row ``row`` holds column c iff
    r - row < top, every column left of them is full and every one right
    of them empty.  Each row is decoded from its first hole: its charge
    is that column plus the number of beads right of it, and its j-th
    part is the j-th bead from the right plus j minus the charge.
    """
    rows = []
    if is_finite(e):
        for row in range(1, r + 1):
            holes = [(top + row - 1) // r * e + c for c, top in tops.items()]
            floor = min(holes)
            beads = [col for col in range(max(holes) - 1, floor, -1) if col < holes[col % e]]
            rows.append((floor, beads))
    else:
        for u in range(r - 1, -1, -1):
            floor = next((c for c, top in tops.items() if top <= u), lo + len(tops))
            rows.append((floor, [c for c, top in reversed(tops.items()) if c > floor and u < top]))
    mp, charge = [], []
    for floor, beads in rows:
        s = floor + len(beads)
        mp.append(tuple(map(add, beads, range(1 - s, len(beads) + 1 - s))))
        charge.append(s)
    return AbacusPair._of(tuple(mp), tuple(charge), e)


def _core_paths(a: AbacusPair):
    """(core pair, bead paths from the pair to it).

    Per subabacus the core fills the levels below t_top = t_base plus
    the bead count, so bead ``idx`` (from the top) goes to t_top - idx.
    Once one bead is in place every bead below it is too, so each
    subabacus's paths end at its first bead in place.
    """
    tops, paths = {}, []
    for c, (t_base, src) in _sub_levels(a).items():
        top = tops[c] = t_base + len(src)
        for idx, t_from in enumerate(src, start=1):
            if t_from == top - idx:
                break
            paths.append((c, idx, t_from, top - idx))
    lo = a.bounds()[0] if not is_finite(a.e) else None
    return _core_pair(tops, lo, a.e, a.r), paths


def core(a: AbacusPair):
    """(core pair, operation set, moving vector).

    The core is the unique complete abacus reachable by elementary
    moves: per subabacus, the beads fill the maximal down-set of the
    t-order with the same bead count.  The cost grows with the number of
    moves, since they are listed; :func:`core_and_vector` skips that.
    """
    core_pair, paths = _core_paths(a)
    return core_pair, _listing(paths, a.e, a.r), _vector(paths, a.r)


def core_and_vector(a: AbacusPair):
    """(core pair, moving vector) as in :func:`core`, without listing moves."""
    core_pair, paths = _core_paths(a)
    return core_pair, _vector(paths, a.r)


def apply_op(a: AbacusPair, op: ElementaryOp) -> AbacusPair:
    """Perform one elementary move; the source must carry a bead and the
    target must be empty."""
    r = a.r
    if not 1 <= op.row <= r:
        raise ValueError(f"row {op.row} out of range 1..{r}")
    if op.row < r:
        target = (op.row + 1, op.col)
    else:
        if not is_finite(a.e):
            raise ValueError("second-kind moves need finite e")
        target = (1, op.col - a.e)
    if not a.has_bead(op.row, op.col):
        raise ValueError(f"no bead at source position ({op.row}, {op.col})")
    if a.has_bead(*target):
        raise ValueError(f"target position {target} is blocked by a bead")
    return _moved(a, (op.row, op.col), target)


def remove_rim_hook(a: AbacusPair, row: int, col: int) -> AbacusPair:
    """Drop the bead at (row, col+e) to the empty (row, col).

    This deletes one rim e-hook from the component in that row; the
    charge is unchanged and the full cycle of moves has moving vector
    (1, ..., 1).
    """
    if not is_finite(a.e):
        raise ValueError("rim hooks need finite e")
    if not a.has_bead(row, col + a.e):
        raise ValueError(f"no bead at ({row}, {col + a.e})")
    if a.has_bead(row, col):
        raise ValueError(f"position ({row}, {col}) is not empty")
    return _moved(a, (row, col + a.e), (row, col))


def rotate_rows(a: AbacusPair, i: int) -> AbacusPair:
    """Delete the bottom i rows and restack them on top with charges shifted by e."""
    if not is_finite(a.e):
        raise ValueError("row rotation needs finite e")
    if not 0 <= i < a.r:
        raise ValueError(f"rotation amount {i} out of range 0..{a.r - 1}")
    mp = a.mp[i:] + a.mp[:i]
    charge = a.charge[i:] + tuple(s + a.e for s in a.charge[:i])
    return AbacusPair._of(mp, charge, a.e)


def _check_vector_preconditions(s, s_star, m, e):
    r = len(s)
    if len(s_star) != r or len(m) != r:
        raise ValueError("charge and vector ranks must agree")
    if any(x < 0 for x in m):
        raise ValueError("moving vectors have non-negative entries")
    if not in_Abar(s, e) or not in_Abar(s_star, e):
        raise ValueError("both multicharges must have weakly increasing entries with spread at most e")
    for i in range(r):
        if s_star[i] != s[i] - m[i] + m[i - 1]:
            raise ValueError(
                f"charge condition fails at slot {i + 1}: "
                f"{s_star[i]} != {s[i]} - {m[i]} + {m[i - 1]}"
            )


def _rows_of(a: AbacusPair, lo: int):
    """Each row's beads at or above ``lo``, as mutable sets."""
    rows = []
    for i in range(1, a.r + 1):
        floor, extras = a.row_beadset(i)
        rows.append(set(extras) | set(range(lo, floor)))
    return rows


def _moved(a: AbacusPair, src: tuple, dst: tuple) -> AbacusPair:
    """The pair with the bead at ``src`` moved to the empty ``dst``."""
    lo = min(a.bounds()[0], src[1], dst[1]) - 1
    rows = _rows_of(a, lo)
    rows[src[0] - 1].discard(src[1])
    rows[dst[0] - 1].add(dst[1])
    return _pair_of_beads([(lo, row) for row in rows], a.e)


def _construct_last_zero(s: tuple, s_star: tuple, m: tuple, e) -> Multipartition:
    """Construction for vectors whose last entry vanishes, by recursion on rank."""
    r = len(s)
    if r == 1:
        return ((),)
    if r == 2:
        # peel the top m_1 beads of row 2 of the empty-core abacus into row 1
        moved = [s_star[1] - x for x in range(1, m[0] + 1)]
        p1, u1 = row_from_beads(s_star[0], moved)
        assert u1 == s[0]
        return (p1, ())
    j = next((jj for jj in range(r) if s[0] <= s_star[jj]), None)
    if j is None:
        raise ValueError("no admissible slot found; charge preconditions violated")
    if j == 0:
        tail = _construct_last_zero(s[1:], s_star[1:], m[1:], e)
        return ((),) + tail
    # peel beads of rows 2..j+1 of the empty-core abacus into row 1
    m_prime = [0] * r
    for i in range(j):
        m_prime[i] = m[0] - (s_star[i] - s_star[0])
    moved = []
    for i in range(1, j):  # rows 2..j (0-based slot i)
        for x in range(1, s_star[i] - s_star[i - 1] + 1):
            moved.append(s_star[i] - x)
    for x in range(1, m[0] - s_star[j - 1] + s_star[0] + 1):
        moved.append(s_star[j] - x)
    p1, u1 = row_from_beads(s_star[0], moved)
    assert u1 == s[0]
    u = [0] * r
    for i in range(r):
        u[i] = s_star[i] + m_prime[i] - m_prime[i - 1]
    m_rest = tuple(m[i] - m_prime[i] for i in range(1, r))
    tail = _construct_last_zero(s[1:], tuple(u[1:]), m_rest, e)
    return (p1,) + tail


def construct_from_vector(s: Multicharge, s_star: Multicharge, m, e) -> Multipartition:
    """A multipartition whose moving vector to the empty-core abacus is ``m``.

    Requires s, s_star weakly increasing with spread at most e and the
    cyclic charge condition s*_i = s_i - m_i + m_{i-1}.  The output
    satisfies moving_vector_between(L_s(result), L_{s*}(empty)) == m.
    """
    check_quantum_char(e)
    s = check_integers(s, "multicharge")
    s_star = check_integers(s_star, "target multicharge")
    m = check_integers(m, "moving vector")
    _check_vector_preconditions(s, s_star, m, e)
    r = len(s)
    if r == 1:
        if m[0] != 0 and not is_finite(e):
            raise ValueError("a single row cannot move with infinite e")
        if m[0] == 0:
            return ((),)
        # lift the top bead of the packed row by m_1 * e
        p, u = row_from_beads(s_star[0] - 1, [s_star[0] - 1 + m[0] * e])
        assert u == s[0]
        return (p,)
    if not is_finite(e):
        if m[-1] != 0:
            raise ValueError("with infinite e the last vector entry must vanish")
        return _construct_last_zero(s, s_star, m, e)
    m_min = min(m)
    i = m.index(m_min) + 1  # 1-based slot of the minimal entry
    if i == r and m_min == 0:
        return _construct_last_zero(s, s_star, m, e)
    s_rot = tuple(x - e for x in s[i:]) + s[:i]
    s_star_rot = tuple(x - e for x in s_star[i:]) + s_star[:i]
    m_rot = tuple(x - m_min for x in m[i:] + m[:i - 1]) + (0,)
    mu = _construct_last_zero(s_rot, s_star_rot, m_rot, e)
    pair = AbacusPair(mu, s_rot, e)
    lo = pair.bounds()[0] - 1
    rows = _rows_of(pair, lo)
    top = max(rows[0])
    rows[0].discard(top)
    rows[0].add(top + m_min * e)
    lifted = pair_from_beads([(lo, sorted(row)) for row in rows], e)
    lam_bar = lifted.mp
    return lam_bar[r - i:] + lam_bar[:r - i]
