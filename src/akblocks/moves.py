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
beads is an arithmetic progression of levels with step r.  The core
fills, per subabacus, the levels below its top (that base plus the bead
count), so bead ``idx`` goes to top - idx; only the beads above the
first one already in place move.  The core's rows are built from the
tops directly: row ``row`` holds column k*e + c iff k < (top + row -
1) // r.  Moves keep the bead count of every row, so the moving vector
is fixed by the charges and the number of moves: m_x - m_(x-1) =
s_x - s*_x.

:func:`core_and_vector` takes each subabacus's bead count and level
sum in closed form, which give its top and its number of moves, so it
lists no level and no path and costs O(parts + r*e) with finite e,
whatever the charge spread.  :func:`core` lists the bead paths from the
sorted levels, so it costs O(parts + paths).  Its operation set is an
:class:`OperationSet`, a read-only sequence over those paths, not a
tuple of moves: its length is known from the paths, and each move is
built only when it is read, so iterating it costs O(number of moves).
Each move is an :class:`ElementaryOp`, a named tuple built at the cost
of a plain tuple, so it also compares equal to its ``(row, col,
index)`` tuple.  Pairs built here from validated pairs skip
re-validation.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, count, cycle, islice, repeat
from operator import add, eq, index, sub
from typing import NamedTuple

from .abacus import AbacusPair, _moved, row_from_beads
from .partitions import (
    Multicharge,
    Multipartition,
    check_integers,
    check_quantum_char,
    in_Abar,
    is_finite,
)


class ElementaryOp(NamedTuple):
    """One bead move, recorded by its source position and bead index.

    A named tuple: it orders and hashes as ``(row, col, index)`` and
    compares equal to that plain tuple.
    """

    row: int
    col: int
    index: int


def op_kind(op: ElementaryOp, r: int) -> str:
    return "second" if op.row == r else "first"


class OperationSet(Sequence):
    """The moves along bead paths (c, idx, t_from, t_to), each bead's from
    its top level down, as a read-only sequence of :class:`ElementaryOp`.

    Only the paths are kept: the length is their sum of t_from - t_to,
    and the ops are built as they are read.  The move at level t of
    subabacus c leaves row r - (t mod r), column (t // r)*e + c (column
    c with infinite e, where every level is below r).  It equals, and
    hashes as, the tuple of its ops; slices are tuples.
    """

    __slots__ = ("_paths", "_ends", "_e", "_r")

    def __init__(self, paths, e, r: int):
        paths = tuple(paths)
        ends = tuple(accumulate(t_from - t_to for _, _, t_from, t_to in paths))
        for name, value in zip(self.__slots__, (paths, ends, e, r)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("OperationSet is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return OperationSet, (self._paths, self._e, self._r)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        # per path, rows cycle over 1..r from the top level's row and the
        # column steps down by e every r levels; zip, islice and map build
        # each op without a Python-level step
        r, rows = self._r, range(1, self._r + 1)
        step = self._e if is_finite(self._e) else 0
        ops_of, new = repeat(ElementaryOp), tuple.__new__

        def along(path):
            c, idx, t_from, t_to = path
            k, u = divmod(t_from, r)
            skip = r - 1 - u  # levels of the top column's cycle above t_from
            cols = chain.from_iterable(map(repeat, count(k * step + c, -step), repeat(r)))
            return map(
                new,
                ops_of,
                zip(islice(cycle(rows), skip, skip + t_from - t_to), islice(cols, skip, None), repeat(idx)),
            )

        return chain.from_iterable(map(along, self._paths))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        n = len(self)
        i = index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("operation set index out of range")
        j = bisect_right(self._ends, i)
        c, idx, t_from, _ = self._paths[j]
        t = t_from - i + (self._ends[j - 1] if j else 0)
        r = self._r
        step = self._e if is_finite(self._e) else 0
        return tuple.__new__(ElementaryOp, (r - t % r, t // r * step + c, idx))

    def __eq__(self, other):
        if isinstance(other, OperationSet):
            if (self._paths, self._e, self._r) == (other._paths, other._e, other._r):
                return True
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<OperationSet: {len(self)} moves along {len(self._paths)} bead paths>"


def _floor_runs(rows, r: int, e: int):
    """(c, t_base, ends) per residue class c, for finite e: row ``row``'s
    floor run in class c holds the levels below ``ends[row - 1]`` in
    steps of r, and every level below t_base = min(ends) is beaded."""
    runs = [(floor, r - row) for row, (floor, _) in enumerate(rows, 1)]
    for c in range(e):
        ends = [-((c - floor) // e) * r + u for floor, u in runs]
        yield c, min(ends), ends


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
        for c, t_base, ends in _floor_runs(rows, r, e):
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


def _vector_from_charges(charge: tuple, core_charge: tuple, w: int, e):
    """The moving vector m with m_x - m_(x-1) = s_x - s*_x (cyclically)
    and sum w, where m_r = 0 for infinite e; None if no such vector is
    a non-negative integer one.  Moves keep the bead count, so the
    differences s_x - s*_x sum to 0 and m_r = m_0."""
    steps = list(accumulate(map(sub, charge, core_charge)))
    last, rest = divmod(w - sum(steps), len(charge)) if is_finite(e) else (0, 0)
    mv = tuple([x + last for x in steps])
    if rest or min(mv) < 0 or sum(mv) != w:
        return None
    return mv


def _common_cols(a: AbacusPair, b: AbacusPair):
    """The columns both pairs' subabaci are read over: None with finite
    e, else the range spanning both pairs' bounds."""
    if a.e != b.e or a.r != b.r:
        raise ValueError("abaci must share quantum characteristic and rank")
    if is_finite(a.e):
        return None
    return range(min(a.bounds()[0], b.bounds()[0]), max(a.bounds()[1], b.bounds()[1]))


def _paths_between(a: AbacusPair, b: AbacusPair):
    cols = _common_cols(a, b)
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
    it is an :class:`OperationSet` over the bead paths, read in the order
    (subabacus, bead index, move order), and its moves are built as they
    are read.
    """
    ops = OperationSet(_paths_between(a, b), a.e, a.r)
    return ops, _vector_from_charges(a.charge, b.charge, len(ops), a.e)


def _op_count_between(a: AbacusPair, b: AbacusPair):
    """The number of moves from a to b if b is reachable, from
    :func:`_core_counts` alone: a and b share a core, each its move count
    away.  None when some subabacus holds other bead counts, so b is not
    reachable; a count does not show that b is, which only the paths do."""
    cols = _common_cols(a, b)
    (tops_a, moves_a), (tops_b, moves_b) = _core_counts(a, cols), _core_counts(b, cols)
    if tops_a != tops_b:
        return None
    return sum(moves_a.values()) - sum(moves_b.values())


def moving_vector_between(a: AbacusPair, b: AbacusPair) -> tuple:
    """Per-row tally of the operation set from a to b, without listing it:
    the charges fix it once the number of moves is known."""
    w = sum(t_from - t_to for _, _, t_from, t_to in _paths_between(a, b))
    return _vector_from_charges(a.charge, b.charge, w, a.e)


def _core_rows(tops: dict, lo: int, e, r: int) -> list:
    """The (first hole, beads above it) rows of the complete abacus whose
    subabacus c fills exactly the levels below ``tops[c]``, bottom to top.

    With finite e, ``tops`` lists c = 0, ..., e - 1 in order.  Level
    k*r + (r - row) is column k*e + c, so row ``row`` holds column k*e + c
    iff k < (top + row - 1) // r, and the column of that k is the row's
    first hole in class c.  With infinite e, ``tops`` lists the columns
    from ``lo`` on, each its own subabacus: row ``row`` holds column c iff
    r - row < top, every column left of them is full and every one right
    of them empty.
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
    return rows


def _core_pair(tops: dict, lo: int, e, r: int) -> AbacusPair:
    """The complete abacus of :func:`_core_rows`.  Each row is decoded
    from its first hole: its charge is that column plus the number of
    beads right of it, and its j-th part is the j-th bead from the right
    plus j minus the charge."""
    mp, charge = [], []
    for floor, beads in _core_rows(tops, lo, e, r):
        s = floor + len(beads)
        mp.append(tuple(map(add, beads, range(1 - s, len(beads) + 1 - s))))
        charge.append(s)
    return AbacusPair._of(tuple(mp), tuple(charge), e)


def _core_charges(tops: dict, lo: int, e, r: int) -> tuple:
    """:func:`_core_pair`'s charges: sum_c (top_c + x - 1) // r in row x with
    finite e (the tops mod r above r - x, plus sum_c top_c // r), else lo
    plus the tops above r - x."""
    if is_finite(e):
        base, v = sum(top // r for top in tops.values()), sorted(top % r for top in tops.values())
    else:
        base, v = lo, sorted(tops.values())
    return tuple(base + len(v) - bisect_right(v, r - x) for x in range(1, r + 1))


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


def _core_counts(a: AbacusPair, cols=None):
    """({c: top}, {c: moves}) per subabacus, in ascending c: the core
    fills the levels below ``top``, and its beads are ``moves``
    elementary moves away.

    No level is sorted and no path listed; per subabacus only the bead
    count n above a base t_base (every level below it beaded) and the sum
    of those beads' levels are taken.  Then top = t_base + n, and as bead
    ``idx`` from the top goes to top - idx, the moves are the level sum
    less n*top - n(n+1)/2.  With finite e, t_base and the run ends come
    from :func:`_floor_runs`, and the floor run of a row whose run in
    class c ends at level ``end`` holds the levels end - j*r, j = 1, ...,
    (end - t_base) // r, from t_base on: an arithmetic progression,
    counted and summed in closed form.  Each extra bead adds its own
    level, so the cost is O(parts + r*e) whatever the charge spread.
    With infinite e each column of ``cols`` (a range, the pair's bounds
    by default) is a subabacus of the levels 0, ..., r - 1 with t_base 0;
    column c holds level u iff c is below that row's floor or one of its
    extras, so one difference array per count and per sum, marked once
    per floor run and per extra, gives every column's.
    """
    e, r = a.e, a.r
    rows = a._beadsets
    if is_finite(e):
        keys, bases, counts, sums = range(e), [], [0] * e, [0] * e
        for c, t_base, ends in _floor_runs(rows, r, e):
            bases.append(t_base)
            for end in ends:
                j = (end - t_base) // r
                counts[c] += j
                sums[c] += j * end - r * j * (j + 1) // 2
        for row, (_, extras) in enumerate(rows, 1):
            for col in extras:
                k, c = divmod(col, e)
                counts[c] += 1
                sums[c] += k * r + r - row
    else:
        keys = range(*a.bounds()) if cols is None else cols
        lo = keys.start
        dn, ds = [0] * (len(keys) + 1), [0] * (len(keys) + 1)
        dn[0], ds[0] = r, r * (r - 1) // 2  # every floor run starts at lo
        for row, (floor, extras) in enumerate(rows, 1):
            u = r - row
            dn[floor - lo] -= 1
            ds[floor - lo] -= u
            for x in extras:
                x -= lo
                dn[x] += 1
                dn[x + 1] -= 1
                ds[x] += u
                ds[x + 1] -= u
        bases, counts, sums = repeat(0), accumulate(dn), accumulate(ds)
    tops, moves = {}, {}
    for c, t_base, n, s in zip(keys, bases, counts, sums):
        top = tops[c] = t_base + n
        moves[c] = s - n * top + n * (n + 1) // 2
    return tops, moves


def core(a: AbacusPair):
    """(core pair, operation set, moving vector).

    The core is the unique complete abacus reachable by elementary
    moves: per subabacus, the beads fill the maximal down-set of the
    t-order with the same bead count.  The operation set is an
    :class:`OperationSet` over the bead paths, which are listed from
    each subabacus's sorted levels, so the call costs O(parts + paths)
    and the set's length is known at once; reading it builds one
    :class:`ElementaryOp`, equal to its ``(row, col, index)`` tuple,
    per move.  The vector follows from the charges and that length.
    """
    core_pair, paths = _core_paths(a)
    ops = OperationSet(paths, a.e, a.r)
    return core_pair, ops, _vector_from_charges(a.charge, core_pair.charge, len(ops), a.e)


def core_and_vector(a: AbacusPair):
    """(core pair, moving vector) as in :func:`core`, from per-subabacus
    bead counts and level sums: no level is sorted and no path listed,
    so it costs O(parts + r*e) with finite e whatever the charge spread.
    """
    tops, moves = _core_counts(a)
    lo = a.bounds()[0] if not is_finite(a.e) else None
    core_pair = _core_pair(tops, lo, a.e, a.r)
    return core_pair, _vector_from_charges(a.charge, core_pair.charge, sum(moves.values()), a.e)


def apply_op(a: AbacusPair, op: ElementaryOp) -> AbacusPair:
    """Perform one elementary move; the source must carry a bead and the
    target must be empty.  The target (r + 1, col) of a second-kind move
    is read as (1, col - e)."""
    a._check_row(op.row)
    if op.row == a.r and not is_finite(a.e):
        raise ValueError("second-kind moves need finite e")
    return _moved(a, ((op.row, op.col), (op.row + 1, op.col)))


def remove_rim_hook(a: AbacusPair, row: int, col: int) -> AbacusPair:
    """Drop the bead at (row, col+e) to the empty (row, col).

    This deletes one rim e-hook from the component in that row; the
    charge is unchanged and the full cycle of moves has moving vector
    (1, ..., 1).
    """
    if not is_finite(a.e):
        raise ValueError("rim hooks need finite e")
    a._check_row(row)
    return _moved(a, ((row, col + a.e), (row, col)))


def rotate_rows(a: AbacusPair, i: int) -> AbacusPair:
    """Delete the bottom i rows and restack them on top with charges shifted by e."""
    if not is_finite(a.e):
        raise ValueError("row rotation needs finite e")
    (i,) = check_integers((i,), "rotation amount")
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


def _construct_last_zero(s: tuple, s_star: tuple, m: tuple, e) -> Multipartition:
    """Construction for vectors whose last entry vanishes, by recursion on rank."""
    r = len(s)
    if r == 1:
        return ((),)
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
    if not is_finite(e):
        if m[-1] != 0:
            raise ValueError("with infinite e the last vector entry must vanish")
        return _construct_last_zero(s, s_star, m, e)
    m_min = min(m)
    i = m.index(m_min) + 1  # 1-based slot of the minimal entry
    s_rot = tuple(x - e for x in s[i:]) + s[:i]
    s_star_rot = tuple(x - e for x in s_star[i:]) + s_star[:i]
    m_rot = tuple(x - m_min for x in m[i:] + m[:i - 1]) + (0,)
    mu = _construct_last_zero(s_rot, s_star_rot, m_rot, e)
    if m_min:
        # lift the top bead of row 1 by m_min * e
        pair = AbacusPair(mu, s_rot, e)
        floor, extras = pair._beadsets[0]
        top = max(extras, default=floor - 1)
        mu = _moved(pair, ((1, top), (1, top + m_min * e))).mp
    return mu[r - i:] + mu[:r - i]
