"""Finite 2-partite digraphs.

A 2-partite digraph consists of two disjoint, ordered vertex sides
(*left* and *right*) together with a set of directed edges, each joining
the two sides, with at most one direction present between any pair.
Vertex ids are opaque strings; two structures are equal only when their
sides and pair-state matrices coincide literally (given the sides, that
is the same as equal edge lists): isomorphism lives elsewhere.

The stored form is the pair-state matrix: one cell per (left, right)
pair, holding ``PAIR_NONE``, ``PAIR_LR`` or ``PAIR_RL``.  Every query
here reads it by rows (``matrix``) or by columns (``columns``).  The
columns and the edge list are derived from it on first read and cached,
so a structure whose edges are never read (a rejected build attempt, a
census candidate, a loaded file that is only checked) never lists them.
:func:`build` validates an edge list from outside; the package's own
constructors assemble matrices.  An undirected bipartite graph is the
one-direction digraph with every edge oriented left-to-right
(:meth:`TwoPartiteDigraph.underlying_bipartite`); there is no separate
undirected type.

Structures are immutable after construction and every operation here is
a pure read (a cached view is the same whichever thread derives it), so
values can be shared freely between threads.

The canonical file format is a JSON object ``{"x": [...], "y": [...],
"edges": [[src, dst], ...]}``; the reader applies the same validation as
:func:`build` and the writer emits sides and edges in stored order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    DuplicateVertex,
    MalformedInput,
    SameSideEdge,
    SideOverlap,
    SymmetricEdgePair,
    UnknownEndpoint,
    UnknownVertex,
)

# Pair states between a left vertex x and a right vertex y.
PAIR_NONE = 0   # not adjacent
PAIR_LR = 1     # edge x -> y
PAIR_RL = 2     # edge y -> x
FLIPPED = (PAIR_NONE, PAIR_RL, PAIR_LR)  # a pair state seen from the other side


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def opposite(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


def _validated_sides(left: Iterable[str], right: Iterable[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    left_t = tuple(left)
    right_t = tuple(right)
    for ids, name in ((left_t, "left"), (right_t, "right")):
        for v in ids:
            if not isinstance(v, str):
                raise MalformedInput(f"vertex id {v!r} on side {name} is not a string")
        seen = set()
        for v in ids:
            if v in seen:
                raise DuplicateVertex(f"vertex id {v!r} appears twice on side {name}")
            seen.add(v)
    overlap = set(left_t) & set(right_t)
    if overlap:
        raise SideOverlap(f"vertex ids on both sides: {sorted(overlap)!r}")
    return left_t, right_t


def _index(ids: tuple[str, ...]) -> dict[str, int]:
    return {v: i for i, v in enumerate(ids)}


def build(left: Iterable[str], right: Iterable[str],
          edges: Iterable[tuple[str, str]]) -> "TwoPartiteDigraph":
    """Validate and construct a 2-partite digraph.

    Edge order in the input is irrelevant: each edge sets one cell of the
    pair-state matrix (a repeated edge sets it again).  Equality compares
    the matrix, and ``edges`` is read back from it, so neither depends on
    how the edge list was written down.
    """
    left_t, right_t = _validated_sides(left, right)
    row_of, col_of = _index(left_t), _index(right_t)
    matrix = [[PAIR_NONE] * len(right_t) for _ in left_t]
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise MalformedInput(f"edge {e!r} is not a pair")
        try:
            # u before v throughout: an unknown u is named even if v is unhashable
            if u in row_of and v in col_of:
                row, j, state = matrix[row_of[u]], col_of[v], PAIR_LR
            elif u in col_of and v in row_of:
                row, j, state = matrix[row_of[v]], col_of[u], PAIR_RL
            else:
                for w in (u, v):
                    if w not in row_of and w not in col_of:
                        raise UnknownEndpoint(f"edge ({u!r}, {v!r}): unknown endpoint {w!r}")
                raise SameSideEdge(f"edge ({u!r}, {v!r}) joins vertices of the same side")
        except TypeError:  # an unhashable endpoint, such as a JSON list
            raise MalformedInput(f"edge ({u!r}, {v!r}) has an unhashable endpoint") from None
        if row[j] == FLIPPED[state]:
            raise SymmetricEdgePair(f"both ({u!r}, {v!r}) and ({v!r}, {u!r}) supplied")
        row[j] = state
    return _assemble(left_t, right_t, matrix, row_of, col_of)


def _assemble(left: tuple[str, ...], right: tuple[str, ...], matrix,
              row_of: dict[str, int], col_of: dict[str, int]) -> "TwoPartiteDigraph":
    """The digraph with the given (already valid) pair-state matrix, a
    sequence of rows, each a sequence of pair states."""
    return TwoPartiteDigraph(left, right, tuple(map(tuple, matrix)), row_of, col_of)


@dataclass(frozen=True, repr=False)
class TwoPartiteDigraph:
    """An immutable 2-partite digraph.  Use :func:`build` to construct.

    ``matrix`` is the stored pair-state matrix (rows over ``left``,
    columns over ``right``), and ``row_of``/``col_of`` give each left
    vertex its row and each right vertex its column.  Equality and
    hashing compare the sides and the matrix.  ``columns`` and ``edges``
    are derived from the matrix on first read; ``repr`` shows the sides
    and the edges.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    row_of: Mapping[str, int] = field(compare=False)
    col_of: Mapping[str, int] = field(compare=False)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The matrix read by columns: one line of pair states per right
        vertex, over ``left``."""
        return tuple(zip(*self.matrix)) if self.matrix else ((),) * len(self.right)

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Left-to-right edges row by row, then right-to-left edges
        column by column."""
        left, right = self.left, self.right
        edges = [(x, right[j]) for x, row in zip(left, self.matrix)
                 for j, s in enumerate(row) if s == PAIR_LR]
        edges += [(y, left[i]) for y, column in zip(right, self.columns)
                  for i, s in enumerate(column) if s == PAIR_RL]
        return tuple(edges)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(left={self.left!r}, right={self.right!r}, "
                f"edges={self.edges!r})")

    # -- basic queries ----------------------------------------------------

    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    def side_of(self, v: str) -> Side:
        if v in self.row_of:
            return Side.LEFT
        if v in self.col_of:
            return Side.RIGHT
        raise UnknownVertex(f"unknown vertex {v!r}")

    def side(self, side: Side) -> tuple[str, ...]:
        return self.left if side is Side.LEFT else self.right

    def has_edge(self, u: str, v: str) -> bool:
        if u in self.row_of and v in self.col_of:
            return self.matrix[self.row_of[u]][self.col_of[v]] == PAIR_LR
        if v in self.row_of and u in self.col_of:
            return self.matrix[self.row_of[v]][self.col_of[u]] == PAIR_RL
        return False

    def pair_states(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of pair states, rows over left, columns over right."""
        return self.matrix

    def first_nonadjacent_pair(self) -> tuple[str, str] | None:
        """First (left, right) pair with no edge, in row-major order."""
        for x, row in zip(self.left, self.matrix):
            if PAIR_NONE in row:
                return (x, self.right[row.index(PAIR_NONE)])
        return None

    # -- neighbourhoods ---------------------------------------------------

    def _relations(self, v: str):
        """(w, state) over the opposite side in stored order, with the
        state seen from v: PAIR_LR for v -> w, PAIR_RL for w -> v."""
        if self.side_of(v) is Side.LEFT:
            return zip(self.right, self.matrix[self.row_of[v]])
        return zip(self.left, map(FLIPPED.__getitem__, self.columns[self.col_of[v]]))

    def out_neighbourhood(self, v: str) -> tuple[str, ...]:
        """Successors of v, in stored order of the opposite side."""
        return tuple(w for w, s in self._relations(v) if s == PAIR_LR)

    def in_neighbourhood(self, v: str) -> tuple[str, ...]:
        """Predecessors of v, in stored order of the opposite side."""
        return tuple(w for w, s in self._relations(v) if s == PAIR_RL)

    def perp(self, v: str) -> tuple[str, ...]:
        """Opposite-side vertices adjacent to v in neither direction."""
        return tuple(w for w, s in self._relations(v) if s == PAIR_NONE)

    def degree_profile(self) -> dict[str, tuple[int, int, int]]:
        """Per-vertex (outdegree, indegree, perp-degree) triple.

        The three counts always sum to the size of the opposite side.
        """
        profile = {}
        for ids, lines, out_state, in_state in ((self.left, self.matrix, PAIR_LR, PAIR_RL),
                                                (self.right, self.columns, PAIR_RL, PAIR_LR)):
            for v, line in zip(ids, lines):
                out, inn = line.count(out_state), line.count(in_state)
                profile[v] = (out, inn, len(line) - out - inn)
        return profile

    # -- derived structures -----------------------------------------------

    def induced(self, keep: Iterable[str]) -> "TwoPartiteDigraph":
        """Substructure induced on the given vertices (original side order)."""
        kept = set(keep)
        for v in kept:
            self.side_of(v)  # raises UnknownVertex
        rows = [i for i, x in enumerate(self.left) if x in kept]
        cols = [j for j, y in enumerate(self.right) if y in kept]
        left_t = tuple(self.left[i] for i in rows)
        right_t = tuple(self.right[j] for j in cols)
        matrix = [[self.matrix[i][j] for j in cols] for i in rows]
        return _assemble(left_t, right_t, matrix, _index(left_t), _index(right_t))

    def underlying_bipartite(self) -> "TwoPartiteDigraph":
        """Forget orientation: the same adjacency with every edge oriented
        left-to-right.  Adjacency and orientation then carry the same
        information, so side-respecting maps of the undirected graph and
        of this digraph coincide."""
        matrix = [[PAIR_LR if s else PAIR_NONE for s in row] for row in self.matrix]
        return _assemble(self.left, self.right, matrix, self.row_of, self.col_of)

    def is_bipartite_digraph(self) -> bool:
        """True when all edges run in a single direction (vacuously true
        when edgeless)."""
        states = {s for row in self.matrix for s in row}
        return PAIR_LR not in states or PAIR_RL not in states

    def swap_sides(self) -> "TwoPartiteDigraph":
        """Exchange the two sides; edges keep their orientation."""
        matrix = [map(FLIPPED.__getitem__, column) for column in self.columns]
        return _assemble(self.right, self.left, matrix, self.col_of, self.row_of)

    def relabel(self, mapping: Mapping[str, str]) -> "TwoPartiteDigraph":
        """Rename vertices through an injective mapping (identity where
        unmapped); side membership and order are preserved."""
        left_t, right_t = _validated_sides((mapping.get(v, v) for v in self.left),
                                           (mapping.get(v, v) for v in self.right))
        return _assemble(left_t, right_t, self.matrix, _index(left_t), _index(right_t))


# -- file format ----------------------------------------------------------

def to_json_obj(digraph: TwoPartiteDigraph) -> dict:
    return {
        "x": list(digraph.left),
        "y": list(digraph.right),
        "edges": [[u, v] for (u, v) in digraph.edges],
    }


def to_json_text(digraph: TwoPartiteDigraph) -> str:
    """Normalized JSON encoding: fixed key order, compact separators,
    sides and edges in stored order, trailing newline."""
    return json.dumps(to_json_obj(digraph), separators=(",", ":")) + "\n"


def from_json_obj(obj: object) -> TwoPartiteDigraph:
    if not isinstance(obj, dict):
        raise MalformedInput("top-level JSON value must be an object")
    for key in ("x", "y", "edges"):
        if key not in obj:
            raise MalformedInput(f"missing field {key!r}")
        if not isinstance(obj[key], list):
            raise MalformedInput(f"field {key!r} must be a list")
    for i, e in enumerate(obj["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            raise MalformedInput(f"edges[{i}] must be a [src, dst] pair")
    return build(obj["x"], obj["y"], obj["edges"])


def from_json_text(text: str) -> TwoPartiteDigraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return from_json_obj(obj)


def to_dot(digraph: TwoPartiteDigraph) -> str:
    """DOT rendering: left vertices as boxes, right as ellipses."""
    def q(v: str) -> str:
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph twopartite {", "  rankdir=LR;"]
    for v in digraph.left:
        lines.append(f"  {q(v)} [shape=box];")
    for v in digraph.right:
        lines.append(f"  {q(v)} [shape=ellipse];")
    for (u, v) in digraph.edges:
        lines.append(f"  {q(u)} -> {q(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
