"""Finite 2-partite digraphs and their undirected shadows.

A 2-partite digraph consists of two disjoint, ordered vertex sides
(*left* and *right*) together with a set of directed edges, each joining
the two sides, with at most one direction present between any pair.
Vertex ids are opaque strings; two structures are equal only when their
sides and edges coincide literally: isomorphism lives elsewhere.

Structures are immutable after construction and every operation here is
a pure read, so values can be shared freely between threads.

The canonical file format is a JSON object ``{"x": [...], "y": [...],
"edges": [[src, dst], ...]}``; the reader applies the same validation as
:func:`build` and the writer emits sides and edges in stored order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
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


def build(left: Iterable[str], right: Iterable[str],
          edges: Iterable[tuple[str, str]]) -> "TwoPartiteDigraph":
    """Validate and construct a 2-partite digraph.

    Edge order in the input is irrelevant: edges are deduplicated and
    stored sorted by endpoint position, so structural equality does not
    depend on how the edge list was written down.
    """
    left_t, right_t = _validated_sides(left, right)
    on_left = set(left_t)
    on_right = set(right_t)
    pos = {v: i for i, v in enumerate(left_t)}
    pos.update({v: i for i, v in enumerate(right_t, start=len(left_t))})

    edge_set: set[tuple[str, str]] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise MalformedInput(f"edge {e!r} is not a pair")
        try:
            if u not in pos:
                raise UnknownEndpoint(f"edge ({u!r}, {v!r}): unknown endpoint {u!r}")
            if v not in pos:
                raise UnknownEndpoint(f"edge ({u!r}, {v!r}): unknown endpoint {v!r}")
        except TypeError:  # an unhashable endpoint, such as a JSON list
            raise MalformedInput(f"edge ({u!r}, {v!r}) has an unhashable endpoint") from None
        if (u in on_left) == (v in on_left):
            raise SameSideEdge(f"edge ({u!r}, {v!r}) joins vertices of the same side")
        if (v, u) in edge_set:
            raise SymmetricEdgePair(f"both ({u!r}, {v!r}) and ({v!r}, {u!r}) supplied")
        edge_set.add((u, v))

    ordered = tuple(sorted(edge_set, key=lambda e: (pos[e[0]], pos[e[1]])))
    return TwoPartiteDigraph(left_t, right_t, ordered)


@dataclass(frozen=True)
class TwoPartiteDigraph:
    """An immutable 2-partite digraph.  Use :func:`build` to construct."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    # -- basic queries ----------------------------------------------------

    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    def side_of(self, v: str) -> Side:
        if v in set(self.left):
            return Side.LEFT
        if v in set(self.right):
            return Side.RIGHT
        raise UnknownVertex(f"unknown vertex {v!r}")

    def side(self, side: Side) -> tuple[str, ...]:
        return self.left if side is Side.LEFT else self.right

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in set(self.edges)

    def _require(self, v: str) -> Side:
        return self.side_of(v)

    # -- neighbourhoods ---------------------------------------------------

    def out_neighbourhood(self, v: str) -> tuple[str, ...]:
        """Successors of v, in stored order of the opposite side."""
        side = self._require(v)
        eset = set(self.edges)
        return tuple(w for w in self.side(side.opposite) if (v, w) in eset)

    def in_neighbourhood(self, v: str) -> tuple[str, ...]:
        """Predecessors of v, in stored order of the opposite side."""
        side = self._require(v)
        eset = set(self.edges)
        return tuple(w for w in self.side(side.opposite) if (w, v) in eset)

    def perp(self, v: str) -> tuple[str, ...]:
        """Opposite-side vertices adjacent to v in neither direction."""
        side = self._require(v)
        eset = set(self.edges)
        return tuple(w for w in self.side(side.opposite)
                     if (v, w) not in eset and (w, v) not in eset)

    def degree_profile(self) -> dict[str, tuple[int, int, int]]:
        """Per-vertex (outdegree, indegree, perp-degree) triple.

        The three counts always sum to the size of the opposite side.
        """
        out: dict[str, int] = {v: 0 for v in self.vertices()}
        inn: dict[str, int] = {v: 0 for v in self.vertices()}
        for (u, v) in self.edges:
            out[u] += 1
            inn[v] += 1
        m, n = len(self.left), len(self.right)
        profile = {}
        for v in self.left:
            profile[v] = (out[v], inn[v], n - out[v] - inn[v])
        for v in self.right:
            profile[v] = (out[v], inn[v], m - out[v] - inn[v])
        return profile

    # -- derived structures -----------------------------------------------

    def induced(self, keep: Iterable[str]) -> "TwoPartiteDigraph":
        """Substructure induced on the given vertices (original side order)."""
        kept = set(keep)
        known = set(self.left) | set(self.right)
        for v in kept:
            if v not in known:
                raise UnknownVertex(f"unknown vertex {v!r}")
        left_t = tuple(v for v in self.left if v in kept)
        right_t = tuple(v for v in self.right if v in kept)
        edges = tuple(e for e in self.edges if e[0] in kept and e[1] in kept)
        return TwoPartiteDigraph(left_t, right_t, edges)

    def underlying_bipartite(self) -> "UndirectedBipartiteGraph":
        """Forget orientation."""
        on_left = set(self.left)
        pairs = set()
        for (u, v) in self.edges:
            pairs.add((u, v) if u in on_left else (v, u))
        return _make_bipartite(self.left, self.right, pairs)

    def is_bipartite_digraph(self) -> bool:
        """True when all edges run in a single direction (vacuously true
        when edgeless)."""
        on_left = set(self.left)
        dirs = {e[0] in on_left for e in self.edges}
        return len(dirs) <= 1

    def swap_sides(self) -> "TwoPartiteDigraph":
        """Exchange the two sides; edges keep their orientation."""
        pos = {v: i for i, v in enumerate(self.right)}
        pos.update({v: i for i, v in enumerate(self.left, start=len(self.right))})
        ordered = tuple(sorted(self.edges, key=lambda e: (pos[e[0]], pos[e[1]])))
        return TwoPartiteDigraph(self.right, self.left, ordered)

    def relabel(self, mapping: Mapping[str, str]) -> "TwoPartiteDigraph":
        """Rename vertices through an injective mapping (identity where
        unmapped); side membership and order are preserved."""
        def f(v: str) -> str:
            return mapping.get(v, v)
        new_left = tuple(f(v) for v in self.left)
        new_right = tuple(f(v) for v in self.right)
        return build(new_left, new_right, [(f(u), f(v)) for (u, v) in self.edges])

    def pair_states(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of pair states, rows over left, columns over right."""
        ridx = {v: j for j, v in enumerate(self.right)}
        lidx = {v: i for i, v in enumerate(self.left)}
        mat = [[PAIR_NONE] * len(self.right) for _ in self.left]
        on_left = set(self.left)
        for (u, v) in self.edges:
            if u in on_left:
                mat[lidx[u]][ridx[v]] = PAIR_LR
            else:
                mat[lidx[v]][ridx[u]] = PAIR_RL
        return tuple(tuple(row) for row in mat)


def _make_bipartite(left: tuple[str, ...], right: tuple[str, ...],
                    pairs: Iterable[tuple[str, str]]) -> "UndirectedBipartiteGraph":
    lpos = {v: i for i, v in enumerate(left)}
    rpos = {v: j for j, v in enumerate(right)}
    ordered = tuple(sorted(pairs, key=lambda e: (lpos[e[0]], rpos[e[1]])))
    return UndirectedBipartiteGraph(left, right, ordered)


def build_bipartite(left: Iterable[str], right: Iterable[str],
                    edges: Iterable[tuple[str, str]]) -> "UndirectedBipartiteGraph":
    """Validate and construct an undirected bipartite graph.

    Edges may be written in either endpoint order; they are stored with
    the left endpoint first.
    """
    left_t, right_t = _validated_sides(left, right)
    on_left = set(left_t)
    on_right = set(right_t)
    pairs = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise MalformedInput(f"edge {e!r} is not a pair")
        try:
            for w in (u, v):
                if w not in on_left and w not in on_right:
                    raise UnknownEndpoint(f"edge ({u!r}, {v!r}): unknown endpoint {w!r}")
        except TypeError:  # an unhashable endpoint
            raise MalformedInput(f"edge ({u!r}, {v!r}) has an unhashable endpoint") from None
        if (u in on_left) == (v in on_left):
            raise SameSideEdge(f"edge ({u!r}, {v!r}) joins vertices of the same side")
        pairs.add((u, v) if u in on_left else (v, u))
    return _make_bipartite(left_t, right_t, pairs)


@dataclass(frozen=True)
class UndirectedBipartiteGraph:
    """Two disjoint sides plus unordered cross edges (stored left-first)."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    def side_of(self, v: str) -> Side:
        if v in set(self.left):
            return Side.LEFT
        if v in set(self.right):
            return Side.RIGHT
        raise UnknownVertex(f"unknown vertex {v!r}")

    def side(self, side: Side) -> tuple[str, ...]:
        return self.left if side is Side.LEFT else self.right

    def adjacent(self, u: str, v: str) -> bool:
        eset = set(self.edges)
        return (u, v) in eset or (v, u) in eset

    def neighbours(self, v: str) -> tuple[str, ...]:
        side = self.side_of(v)
        eset = set(self.edges)
        if side is Side.LEFT:
            return tuple(w for w in self.right if (v, w) in eset)
        return tuple(w for w in self.left if (w, v) in eset)

    def degree_map(self) -> dict[str, int]:
        deg = {v: 0 for v in self.vertices()}
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_complete(self) -> bool:
        return len(self.edges) == len(self.left) * len(self.right)

    def first_nonadjacent_pair(self) -> tuple[str, str] | None:
        """First (left, right) pair with no edge, in stored order."""
        eset = set(self.edges)
        for x in self.left:
            for y in self.right:
                if (x, y) not in eset:
                    return (x, y)
        return None

    def induced(self, keep: Iterable[str]) -> "UndirectedBipartiteGraph":
        kept = set(keep)
        known = set(self.left) | set(self.right)
        for v in kept:
            if v not in known:
                raise UnknownVertex(f"unknown vertex {v!r}")
        left_t = tuple(v for v in self.left if v in kept)
        right_t = tuple(v for v in self.right if v in kept)
        edges = tuple(e for e in self.edges if e[0] in kept and e[1] in kept)
        return UndirectedBipartiteGraph(left_t, right_t, edges)

    def swap_sides(self) -> "UndirectedBipartiteGraph":
        return _make_bipartite(self.right, self.left, [(y, x) for (x, y) in self.edges])


def orient_all(graph: UndirectedBipartiteGraph, reverse: bool = False) -> TwoPartiteDigraph:
    """Orient every undirected edge the same way (left-to-right unless
    ``reverse``).  This is the canonical digraph encoding of an undirected
    bipartite graph: adjacency and orientation carry the same information,
    so side-respecting maps of the two structures coincide.
    """
    if reverse:
        edges = [(y, x) for (x, y) in graph.edges]
    else:
        edges = list(graph.edges)
    return build(graph.left, graph.right, edges)


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
    edges = []
    for i, e in enumerate(obj["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            raise MalformedInput(f"edges[{i}] must be a [src, dst] pair")
        edges.append((e[0], e[1]))
    return build(obj["x"], obj["y"], edges)


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
