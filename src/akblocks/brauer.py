"""Straight-line Brauer tree algebras: projectives, cell chains, poset.

A line with n edges has vertices 1..n+1; edge i joins vertices i and
i+1.  At most one vertex is exceptional, with multiplicity m > 1.  The
cell modules of such an algebra are the two end simples plus two-factor
modules with neighbouring edge labels, and they can be chained in
exactly two ways, each the mirror of the other.  These chains are the
combinatorial shadow used to cross-check finite-type classifications.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .partitions import Frozen


class BrauerLine(Frozen):
    """A straight-line Brauer tree.

    ``multiplicity == 1`` means no exceptional vertex (the vertex field
    is then ignored).
    """

    _fields = __match_args__ = ("edges", "vertex", "multiplicity")

    def __init__(self, edges: int, vertex: int = 1, multiplicity: int = 1):
        if edges < 1:
            raise ValueError("a Brauer line needs at least one edge")
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if multiplicity > 1 and not 1 <= vertex <= edges + 1:
            raise ValueError(f"vertex {vertex} out of range 1..{edges + 1}")
        self._set(edges, vertex, multiplicity)

    def vertex_multiplicity(self, v: int) -> int:
        if self.multiplicity > 1 and v == self.vertex:
            return self.multiplicity
        return 1


class Cell(NamedTuple):
    """One cell descriptor: a simple, or a two-factor module top/bottom."""

    top: int
    bottom: int | None = None

    @property
    def simple(self) -> bool:
        return self.bottom is None

    def factors(self) -> tuple:
        return (self.top,) if self.simple else (self.top, self.bottom)

    def transpose(self) -> "Cell":
        if self.simple:
            return self
        return Cell(self.bottom, self.top)


def projective_structure(line: BrauerLine, edge: int) -> dict:
    """Top, socle, and the two uniserial radical arms of one projective.

    Each arm walks the cycle at one endpoint of the edge, repeated by the
    vertex multiplicity, ending in the socle copy of the edge's simple.
    An arm of length one is contained in the other arm.
    """
    n = line.edges
    if not 1 <= edge <= n:
        raise ValueError(f"edge {edge} out of range 1..{n}")

    def arm(vertex: int) -> tuple:
        cycle = []
        if vertex - 1 != edge and 1 <= vertex - 1 <= n:
            cycle.append(vertex - 1)
        if vertex != edge and 1 <= vertex <= n:
            cycle.append(vertex)
        other = cycle[0] if cycle else None
        m = line.vertex_multiplicity(vertex)
        seq = ([other, edge] if other is not None else [edge]) * m
        return tuple(seq)

    return {
        "top": edge,
        "socle": edge,
        "left_arm": arm(edge),
        "right_arm": arm(edge + 1),
    }


def cell_chains(line: BrauerLine):
    """The two admissible cell chains (ascending, mirror of each other).

    The first chain runs from the low-end simple up to the high-end one
    through the pairs with top label one above the bottom; the pair at
    the exceptional vertex repeats ``multiplicity`` times, and an
    exceptional end vertex contributes extra copies of its end simple
    instead.  The second chain is the reverse with every pair transposed.

    The interior-vertex layout is pinned by worked data; the end-vertex
    layout (extra simples adjacent to that end) is inferred from the
    filtration shape and should be treated with less confidence.
    """
    n, m = line.edges, line.multiplicity
    v = line.vertex if m > 1 else 0
    chain = [Cell(1)]
    if v == 1:
        chain += [Cell(1)] * (m - 1)
    for i in range(1, n):
        reps = m if v == i + 1 else 1
        chain += [Cell(i + 1, i)] * reps
    if v == n + 1:
        chain += [Cell(n)] * (m - 1)
    chain.append(Cell(n))
    mirrored = tuple(c.transpose() for c in reversed(chain))
    return tuple(chain), mirrored


class PosetEntry(NamedTuple):
    """One element of the multiplication poset, in ascending order."""

    edge: int  # top composition factor of the cell it labels
    copy: int | None  # superscript when the label repeats, else None
    in_lambda0: bool  # whether it indexes a simple module


def multiplication_poset(line: BrauerLine) -> tuple:
    """Totally ordered labels read off the ascending cell chain.

    Entries are labelled by the top factor of their cell; repeated
    labels get superscripts, and the first occurrence of each label is
    the one indexing a simple module.
    """
    chain, _ = cell_chains(line)
    tops = [c.top for c in chain]
    total = Counter(tops)
    seen: dict = {}
    entries = []
    for t in tops:
        seen[t] = seen.get(t, 0) + 1
        copy = seen[t] if total[t] > 1 else None
        entries.append(PosetEntry(t, copy, seen[t] == 1))
    return tuple(entries)
