"""Abacus displays of (multipartition, multicharge) pairs.

Row ``i`` of the display (1-based, bottom to top) carries a bead at
column ``c`` exactly when ``c`` is a beta-number ``part_j - j + s_i`` of
the i-th component.  Every row is cofinite to the left: all columns
below a computable floor are beaded and all columns above a ceiling are
empty.  The pair itself is the single source of truth; each row's bead
set is derived from it once, on first use, and cached on the frozen
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import Iterable, Sequence

from .partitions import (
    Multicharge,
    Multipartition,
    Partition,
    check_integers,
    check_multipartition,
    check_quantum_char,
    conjugate_multi,
    is_finite,
    size,
)


@dataclass(frozen=True)
class AbacusPair:
    """A multipartition with its multicharge and quantum characteristic."""

    mp: Multipartition
    charge: Multicharge
    e: object  # int >= 2 or INFINITY

    def __post_init__(self):
        object.__setattr__(self, "mp", check_multipartition(self.mp))
        object.__setattr__(self, "charge", check_integers(self.charge, "multicharge"))
        check_quantum_char(self.e)
        if len(self.mp) != len(self.charge):
            raise ValueError("multipartition and multicharge rank mismatch")

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
        return self.charge[row - 1] - len(self.mp[row - 1])

    def row_betas(self, row: int) -> tuple:
        """The finitely many bead columns at or above the floor, descending."""
        self._check_row(row)
        s = self.charge[row - 1]
        comp = self.mp[row - 1]
        return tuple(comp[j] - (j + 1) + s for j in range(len(comp)))

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

    def row_beadset(self, row: int):
        """(floor, extras): beads are exactly {c < floor} plus the extras."""
        self._check_row(row)
        return self._beadsets[row - 1]

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


def n_right(a: AbacusPair, row: int, col: int) -> int:
    """Number of beads strictly right of the given column in one row."""
    a._check_row(row)
    floor = a.row_floor(row)
    finite = sum(1 for b in a.row_betas(row) if b > col)
    return finite + max(0, floor - 1 - col)


def column_count(a: AbacusPair, col: int) -> int:
    """Number of beads in one column (between 0 and r)."""
    return sum(1 for i in range(1, a.r + 1) if a.has_bead(i, col))


def subabacus_diff(a: AbacusPair, j: int) -> int:
    """Bead-count difference between the (j-1)-th and j-th subabacus.

    Computed as the finite sum over k of column-count differences at
    columns j-1+ke and j+ke; when e is infinite the sum has the single
    term at columns j-1 and j.
    """
    lo, hi = a.bounds()
    if not is_finite(a.e):
        return column_count(a, j - 1) - column_count(a, j)
    e = a.e
    total = 0
    # k-window wide enough that both paired columns are fully beaded below
    # it and fully empty above it.
    k_lo = (lo - (j - 1)) // e - 1
    k_hi = (hi - (j - 1)) // e + 1
    for k in range(k_lo, k_hi + 1):
        total += column_count(a, j - 1 + k * e) - column_count(a, j + k * e)
    return total


def is_complete(a: AbacusPair) -> bool:
    """Whether the row bead sets are nested, with the e-shifted wrap on top.

    Row i's beads must be contained in row i+1's for i < r, and (for
    finite e) row r's beads shifted down by e must be contained in row 1's.
    """
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


def dual(a: AbacusPair) -> AbacusPair:
    """The dual abacus: (i, h) is empty iff (r-i+1, -h-1) is beaded.

    Equivalently the multipartition conjugates (with components reversed)
    and the charge reverses with a sign flip.
    """
    mp = conjugate_multi(a.mp)
    charge = tuple(-s for s in reversed(a.charge))
    return AbacusPair._of(mp, charge, a.e)


@dataclass(frozen=True)
class UglovImage:
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
    lo, hi = a.bounds()
    positions = []
    for row in range(1, r + 1):
        for col in range(lo, hi):
            if a.has_bead(row, col):
                c = col % e
                k = (col - c) // e
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
