"""Abacus displays of (multipartition, multicharge) pairs.

Row ``i`` of the display (1-based, bottom to top) carries a bead at
column ``c`` exactly when ``c`` is a beta-number ``part_j - j + s_i`` of
the i-th component.  Every row is cofinite to the left: all columns
below a computable floor are beaded and all columns above a ceiling are
empty.  The pair itself is the single source of truth; each row's bead
set is derived from it once, on first use, and cached on the frozen
instance as (floor, extras): every column below the floor is beaded,
plus the finitely many beta-numbers in ``extras``.  Every reader takes
that form and scans no column window: :func:`is_complete` and
:func:`subabacus_diff` cost O(parts) whatever the charge spread, and
:func:`uglov` and :func:`render` cost the size of their output.  Every
bead move in the library goes through :func:`_moved`, which rebuilds
only the rows it touches.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .partitions import (
    Frozen,
    Multicharge,
    Multipartition,
    Partition,
    check_integers,
    check_multipartition,
    check_quantum_char,
    conjugate_multi,
    is_finite,
    residue,
    size,
)


class AbacusPair(Frozen):
    """A multipartition with its multicharge and quantum characteristic."""

    _fields = __match_args__ = ("mp", "charge", "e")

    def __init__(self, mp: Multipartition, charge: Multicharge, e):
        """``e`` is an int >= 2 or INFINITY."""
        mp = check_multipartition(mp)
        charge = check_integers(charge, "multicharge")
        check_quantum_char(e)
        if len(mp) != len(charge):
            raise ValueError("multipartition and multicharge rank mismatch")
        self._set(mp, charge, e)

    @classmethod
    def _of(cls, mp: Multipartition, charge: Multicharge, e) -> "AbacusPair":
        """The pair of parts already in canonical form, without the checks.

        Only for parts taken from pairs that were validated: a tuple of
        partition tuples with no trailing zeros, a tuple of ints of the
        same length, and a valid quantum characteristic.
        """
        pair = object.__new__(cls)
        vars(pair).update(mp=mp, charge=charge, e=e)
        return pair

    @property
    def r(self) -> int:
        return len(self.mp)

    @property
    def n(self) -> int:
        return size(self.mp)

    def row_floor(self, row: int) -> int:
        """Largest f with every column < f beaded in this row."""
        self._check_row(row)
        return self._beadsets[row - 1][0]

    def row_betas(self, row: int) -> tuple:
        """The finitely many bead columns at or above the floor, descending."""
        self._check_row(row)
        return tuple(sorted(self._beadsets[row - 1][1], reverse=True))

    @cached_property
    def _beadsets(self) -> tuple:
        """Per row, bottom to top: (floor, frozenset of beta-numbers)."""
        rows = []
        for comp, s in zip(self.mp, self.charge):
            # the j-th beta-number is part_j - j + s
            rows.append((s - len(comp), frozenset(map(sub, comp, range(1 - s, len(comp) + 1 - s)))))
        return tuple(rows)

    @cached_property
    def _bounds(self) -> tuple:
        lo = min(floor for floor, _ in self._beadsets)
        hi = max(s + comp[0] if comp else s for comp, s in zip(self.mp, self.charge))
        return lo, max(lo, hi)

    def has_bead(self, row: int, col: int) -> bool:
        self._check_row(row)
        floor, extras = self._beadsets[row - 1]
        return col < floor or col in extras

    def bounds(self) -> tuple:
        """(lo, hi): below lo every row is beaded, from hi on every row is empty."""
        return self._bounds

    def _check_row(self, row: int):
        if not 1 <= row <= len(self.mp):
            raise ValueError(f"row {row} out of range 1..{self.r}")


def row_from_beads(floor: int, extras: Iterable[int]):
    """Recover (partition, charge) of one row from its bead set.

    The bead set is {c < floor} plus the finite extras (each >= floor).
    The charge is beads-right-of-the-dashed-line minus holes-left, which
    collapses to floor plus the number of extras; the j-th part is the
    number of holes left of the j-th bead from the right.
    """
    ex = sorted(set(extras), reverse=True)
    if ex and ex[-1] < floor:
        raise ValueError("extra beads must sit at or above the floor")
    s = floor + len(ex)
    parts = [b + (j + 1) - s for j, b in enumerate(ex)]
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts), s


def _decode_rows(rows: Sequence) -> tuple:
    decoded = [row_from_beads(floor, extras) for floor, extras in rows]
    return tuple(p for p, _ in decoded), tuple(s for _, s in decoded)


def pair_from_beads(rows: Sequence, e) -> AbacusPair:
    """Build the pair whose abacus has the given per-row bead sets.

    Each row description is a (floor, extras) pair as in
    :func:`row_from_beads`; rows are listed bottom to top.  Floors and
    columns must be ints (bool excluded).
    """
    rows = [(floor, check_integers(extras, "bead column")) for floor, extras in rows]
    check_integers([floor for floor, _ in rows], "floor")
    return AbacusPair(*_decode_rows(rows), e)


def _pair_of_beads(rows: Sequence, e) -> AbacusPair:
    """:func:`pair_from_beads` without the checks, for bead sets the
    library derived from validated pairs."""
    return AbacusPair._of(*_decode_rows(rows), e)


def _wrap(a: AbacusPair, row: int, col: int) -> tuple:
    """The position (row, col), with row r + k read as row k shifted right by e."""
    while row > a.r:
        if not is_finite(a.e):
            raise ValueError("row wrap needs finite e")
        row, col = row - a.r, col - a.e
    a._check_row(row)
    return row, col


def _moved(a: AbacusPair, *moves) -> AbacusPair:
    """The pair after each (src, dst) bead move in turn, positions read by
    :func:`_wrap`.  Raises if a source is empty or a target occupied.
    Only the touched rows are rebuilt, each held from the lower of its
    floor and the columns it is read at."""
    rows = {}

    def beads(row: int, col: int) -> set:
        floor, held = rows.get(row) or (a._beadsets[row - 1][0], set(a._beadsets[row - 1][1]))
        if col < floor:
            held.update(range(col, floor))
            floor = col
        rows[row] = floor, held
        return held

    for src, dst in moves:
        src, dst = _wrap(a, *src), _wrap(a, *dst)
        held_src, held_dst = beads(*src), beads(*dst)  # one set if one row
        if src[1] not in held_src:
            raise ValueError(f"no bead at {src}")
        if dst[1] in held_dst:
            raise ValueError(f"target {dst} occupied")
        held_src.remove(src[1])
        held_dst.add(dst[1])
    mp, charge = list(a.mp), list(a.charge)
    for row, (floor, held) in rows.items():
        mp[row - 1], charge[row - 1] = row_from_beads(floor, held)
    return AbacusPair._of(tuple(mp), tuple(charge), a.e)


def n_right(a: AbacusPair, row: int, col: int) -> int:
    """Number of beads strictly right of the given column in one row."""
    a._check_row(row)
    floor, extras = a._beadsets[row - 1]
    return sum(1 for b in extras if b > col) + max(0, floor - 1 - col)


def subabacus_diff(a: AbacusPair, j: int) -> int:
    """Bead-count difference between the (j-1)-th and j-th subabacus.

    Per row, the floor run pairs column j-1+ke with j+ke and leaves one
    bead over iff the floor is j mod e; each extra bead counts +1 on
    class j-1 and -1 on class j.  Infinite e has one column per class.
    """
    up, down = residue(j - 1, a.e), residue(j, a.e)
    total = 0
    for floor, extras in a._beadsets:
        residues = [residue(x, a.e) for x in extras]
        total += (residue(floor, a.e) == down) + residues.count(up) - residues.count(down)
    return total


def is_complete(a: AbacusPair) -> bool:
    """Whether the row bead sets are nested, with the e-shifted wrap on top.

    Row i's beads must be contained in row i+1's for i < r, and (for
    finite e) row r's beads shifted down by e must be contained in row 1's.
    Row (f, x) lies in row (f', x') iff each extra is below f' or in x'
    and, when f > f', f - f' of the x' lie below f, filling [f', f).
    """
    rows = a._beadsets
    pairs = list(zip(rows, rows[1:]))
    if is_finite(a.e):
        floor, extras = rows[-1]
        pairs.append(((floor - a.e, [x - a.e for x in extras]), rows[0]))
    return all(
        (f1 <= f2 or sum(x < f1 for x in x2) == f1 - f2) and all(x < f2 or x in x2 for x in x1)
        for (f1, x1), (f2, x2) in pairs
    )


def dual(a: AbacusPair) -> AbacusPair:
    """The dual abacus: (i, h) is empty iff (r-i+1, -h-1) is beaded.

    Equivalently the multipartition conjugates (with components reversed)
    and the charge reverses with a sign flip.
    """
    mp = conjugate_multi(a.mp)
    charge = tuple(-s for s in reversed(a.charge))
    return AbacusPair._of(mp, charge, a.e)


class UglovImage(NamedTuple):
    """A 1-runner abacus: a single partition with an integer charge."""

    partition: Partition
    charge: int


def uglov(a: AbacusPair) -> UglovImage:
    """Collapse the r rows into a single abacus.

    A bead at (x, y) with y = ke + c, 0 <= c < e, lands at position
    (r-x)e + ker + c.  The image charge is the sum of the multicharge.
    Undefined for infinite e.
    """
    if not is_finite(a.e):
        raise ValueError("the one-runner collapse needs finite e")
    e, r = a.e, a.r
    rows = a._beadsets
    lo = min(floor for floor, _ in rows)
    positions = []
    for row, (floor, extras) in enumerate(rows, 1):
        for col in chain(range(lo, floor), extras):
            k, c = divmod(col, e)
            positions.append((r - row) * e + k * e * r + c)
    # columns below lo are fully beaded; of those beads, the ones landing at
    # or above the image floor live at levels t_min <= t < t_base per class
    t_base = {c: (((lo - 1 - c) // e) + 1) * r for c in range(e)}
    t_min = min(t_base.values())
    for c in range(e):
        for t in range(t_min, t_base[c]):
            positions.append(e * t + c)
    partition, charge = row_from_beads(e * t_min, positions)
    return UglovImage(partition, charge)


def render(a: AbacusPair, window: tuple) -> str:
    """ASCII picture over an inclusive column window, top row first.

    Beads print as filled circles, holes as open ones, and a broken bar
    marks the gap between columns -1 and 0 when the window crosses it.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    lines = []
    for row in range(a.r, 0, -1):
        tokens = []
        for col in range(lo, hi + 1):
            if col == 0 and col > lo:
                tokens.append("¦")
            tokens.append("●" if a.has_bead(row, col) else "○")
        lines.append(" ".join(tokens))
    return "\n".join(lines)
