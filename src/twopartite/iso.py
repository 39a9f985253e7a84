"""Side-respecting isomorphism, canonical forms, and homogeneity.

All maps here preserve the two sides setwise: left vertices go to left
vertices and right to right.  A structure is homogeneous when every
side-respecting isomorphism between induced substructures extends to a
side-preserving automorphism of the whole structure.

Everything here reads the digraph's stored pair-state matrix and its
row and column maps.  The one map-search kernel, :func:`_search_maps`,
is a backtracking completion over vertex assignments.  It starts from
an iteratively refined colour invariant built from the (outdegree,
indegree, perp-degree) triple.  Each open vertex carries a signature:
its colour, extended by its pair state to every assigned vertex on the
other side.  A vertex only takes a candidate of equal signature, and a
partial map is dropped as soon as the open signatures of the two
structures stop matching as multisets, which also separates vertices
that colour refinement leaves together.  The tables the kernel reads
are built once per structure, so the homogeneity decider, which runs
many short searches on one structure, refines its colours once.
Limit-1 searches down a stabiliser chain give the automorphism group's
order and generators.  The decider never lists the group, nor walks
every subset of the vertices: once every smaller domain passes, a
domain passes exactly when a point's orbit under the maps that fix the
rest is that point's whole class, the vertices with its pair states to
the rest.  So it walks one set per automorphism orbit, level by level,
and checks each set's classes against the chain's orbits.  Sets of a
level that share their colour counts are told apart by the map search
between their induced substructures.  ``automorphisms`` lists the group
from the chain, one product of orbit representatives per map.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from math import factorial, prod
from typing import Iterator, Mapping

from .core import FLIPPED, PAIR_LR, PAIR_RL, TwoPartiteDigraph
from .errors import AutGroupTooLarge, InvalidPartialMap, ValidationError

# The largest automorphism group that ``automorphisms`` lists, in
# lexicographic order of the vertices' images, and ``is_homogeneous``
# accepts; both check it against the stabiliser chain's order first.
DEFAULT_AUT_CAP = 10 ** 6

CanonicalForm = bytes


@dataclass(frozen=True)
class PartialMap:
    """A finite set of (source, target) vertex associations, stored
    sorted by source id.  Injectivity is intrinsic; side and structure
    preservation are relative to structures and checked by
    :func:`is_valid_partial_iso`."""

    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def from_dict(mapping: Mapping[str, str]) -> "PartialMap":
        items = tuple(sorted(mapping.items()))
        targets = [t for (_, t) in items]
        if len(set(targets)) != len(targets):
            raise InvalidPartialMap("map is not injective")
        return PartialMap(items)

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def sources(self) -> tuple[str, ...]:
        return tuple(s for (s, _) in self.pairs)

    def targets(self) -> tuple[str, ...]:
        return tuple(t for (_, t) in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class HomogeneityVerdict:
    """Outcome of a homogeneity decision.  ``counterexample`` is present
    exactly when ``holds`` is false: a valid partial isomorphism that
    extends to no side-preserving automorphism."""

    holds: bool
    counterexample: PartialMap | None = None


def _rank(values: dict[str, object]) -> dict[str, int]:
    # rank by sorted distinct value; isomorphic structures get equal ranks
    order = {sig: r for r, sig in enumerate(sorted(set(values.values())))}
    return {v: order[sig] for v, sig in values.items()}


def _refined_colors(digraph: TwoPartiteDigraph) -> dict[str, tuple]:
    """Colour invariant: degree triple refined twice by the multiset of
    (pair state, neighbour colour) over the opposite side."""
    # per side (0 left, 1 right): its ids, each vertex's line of pair
    # states seen from it (PAIR_LR out, PAIR_RL in), the other side's ids
    views = ((0, digraph.left, digraph.matrix, digraph.right),
             (1, digraph.right, [tuple(map(FLIPPED.__getitem__, column))
                                 for column in digraph.columns], digraph.left))
    col: dict[str, tuple] = {}
    for side, ids, lines, other in views:
        for v, line in zip(ids, lines):
            out, inn = line.count(PAIR_LR), line.count(PAIR_RL)
            col[v] = (side, out, inn, len(other) - out - inn)
    for _ in range(2):
        refined: dict[str, tuple] = {}
        for _, ids, lines, other in views:
            # compress per round so colour values stay small; ranking by
            # the sorted distinct signature keeps equality stable across
            # isomorphic structures (same multiset -> same ranks)
            rank = _rank({v: (col[v], tuple(sorted(zip(line, map(col.__getitem__, other)))))
                          for v, line in zip(ids, lines)})
            refined.update((v, (col[v], rank[v])) for v in ids)
        col = refined
    return col


def _arrangements(lines, blocks: list[list[int]], cross_blocks: list[list[int]]):
    """For every ordering of ``lines`` that keeps ``blocks`` in place and
    permutes freely inside each, the cross vectors (the entries at one
    index of every ordered line) with each of ``cross_blocks`` sorted.
    Both sides must be nonempty."""
    for combo in product(*map(permutations, blocks)):
        cross = list(zip(*[lines[i] for perm in combo for i in perm]))
        yield [vec for b in cross_blocks for vec in sorted(cross[k] for k in b)]


def canonical_form(digraph: TwoPartiteDigraph) -> CanonicalForm:
    """A byte string identifying the side-preserving isomorphism class.

    Two structures have equal canonical form iff :func:`are_isomorphic`
    finds a map between them.  The encoding is the row-major
    lexicographic minimum of the pair-state matrix over all orderings
    of each side that sort the refined colour classes by colour value
    and permute freely inside each class; sides are never mixed.

    Only the orderings of one side are enumerated, whichever side has
    fewer.  For a fixed ordering of the rows, the least arrangement of
    the columns sorts each right colour class by column vector, because
    that makes the rows, read one after another, lexicographically
    least; for a fixed ordering of the columns, each left colour class
    is sorted by row vector instead.
    """
    m, n = len(digraph.left), len(digraph.right)
    if not (m and n):
        return _encode(m, n, ())
    _, _, (rows, columns), _, ranks, _ = _search_tables(digraph)
    # each side's positions grouped into colour classes, the classes in
    # colour order and each kept in stored order
    lblocks, rblocks = ([[p for p, r in enumerate(side) if r == k] for k in sorted(set(side))]
                        for side in ranks)

    def orderings(blocks):
        return prod(factorial(len(b)) for b in blocks)

    if orderings(lblocks) <= orderings(rblocks):
        # the cross vectors are columns: compare them as rows
        best = min(list(zip(*cols)) for cols in _arrangements(rows, lblocks, rblocks))
    else:
        best = min(_arrangements(columns, rblocks, lblocks))
    return _encode(m, n, chain.from_iterable(best))


def _encode(m: int, n: int, states) -> CanonicalForm:
    """The canonical form of the class on sides of size m and n whose
    least arrangement has the row-major pair ``states``."""
    return b"TP1" + m.to_bytes(4, "big") + n.to_bytes(4, "big") + bytes(states)


def _uniform_state(line) -> int:
    """The one pair state of ``line``, or -1 when it holds several or none."""
    return line[0] if len(set(line)) == 1 else -1


def _search_tables(digraph: TwoPartiteDigraph) -> tuple:
    """What :func:`_search_maps` reads of one structure, built once per
    structure.  Each entry holds one item per side (0 left, 1 right):
    the vertex ids, their indexes, each vertex's line of pair states to
    the other side, the one state of that line (-1 when it holds
    several), each vertex's colour rank and the sorted colours.  A
    colour's rank is its place among the structure's distinct colours,
    so two structures with equal palettes rank colours alike."""
    col = _refined_colors(digraph)
    ids = (digraph.left, digraph.right)
    lines = (digraph.matrix, digraph.columns)
    rank = {c: r for r, c in enumerate(sorted(set(col.values())))}
    return (ids, (digraph.row_of, digraph.col_of), lines,
            [list(map(_uniform_state, side)) for side in lines],
            [[rank[col[v]] for v in side] for side in ids],
            [sorted(col[v] for v in side) for side in ids])


def _search_maps(t1: tuple, t2: tuple, initial: dict[str, str],
                 limit: int | None) -> Iterator[dict[str, str]]:
    """Backtracking enumeration of total side-preserving bijections
    d1 -> d2 that preserve all pair states and extend ``initial``, where
    ``t1`` and ``t2`` are the :func:`_search_tables` of d1 and d2.
    ``initial`` must already be consistent.  Yields at most ``limit``
    maps when limit is not None.

    Open vertices are placed in d1's stored order, left before right,
    and each takes its candidates in d2's stored order.  Every open
    vertex carries an integer signature: its colour rank, extended in
    base 3 by its pair state to each assigned vertex on the other side,
    in assignment order.  A candidate must have the signature of the
    vertex it takes, which says exactly that the pair is consistent with
    every assignment so far.  After a left vertex is placed, the open
    right vertices of d1 and of d2 must still have equal multisets of
    signatures, since a completion maps one onto the other; otherwise
    the subtree has no completion and is cut.  Cuts lose no map, so the
    maps come in the order of the unpruned search.
    """
    # side 0 is left, side 1 is right; a vertex's line holds its pair
    # states to the other side's vertices, by index
    ids1, index1, lines1, uniform, ranks1, palette1 = t1
    ids2, index2, lines2, _, ranks2, palette2 = t2
    if palette1 != palette2:
        return  # colours are isomorphism invariants; no map exists
    # extend() replaces a side's signature list, never mutates one
    sig1, sig2 = list(ranks1), list(ranks2)
    used = [[False] * len(ids) for ids in ids1]

    def extend(side: int, a: int, b: int) -> bool:
        # a and b on ``side`` are assigned: the other side's signatures
        # gain their pair states; True when they grew.  When a's line is
        # one state throughout, so is b's, which has a's colour and hence
        # its state counts: one digit would go everywhere, keeping every
        # equality and multiset as it is, so none is added
        if uniform[side][a] != -1:
            return False
        other = 1 - side
        sig1[other] = [3 * s + x for s, x in zip(sig1[other], lines1[side][a])]
        sig2[other] = [3 * s + x for s, x in zip(sig2[other], lines2[side][b])]
        return True

    def balanced(side: int) -> bool:
        return (sorted(sig1[side][u] for u in open1[side])
                == sorted(sig2[side][u] for u in open2[side]))

    assigned = dict(initial)
    for s, t in initial.items():
        side = 0 if s in index1[0] else 1
        a, b = index1[side][s], index2[side][t]
        if ranks1[side][a] != ranks2[side][b]:
            return  # s and t differ in colour; no completion exists
        used[side][b] = True
        extend(side, a, b)
    open1 = [[u for u, v in enumerate(ids) if v not in assigned] for ids in ids1]
    open2 = [[u for u, taken in enumerate(flags) if not taken] for flags in used]
    if not (balanced(0) and balanced(1)):
        return
    # every open left vertex is placed before any open right one, so the
    # open right vertices stay fixed while the left ones are placed, and
    # no left vertex is open once the right ones are
    todo = [(0, a) for a in open1[0]] + [(1, a) for a in open1[1]]
    yielded = 0

    def rec(pos: int) -> Iterator[dict[str, str]]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if pos == len(todo):
            yielded += 1
            yield dict(assigned)
            return
        side, a = todo[pos]
        v, want, taken = ids1[side][a], sig1[side][a], used[side]
        for b, sig in enumerate(sig2[side]):
            if taken[b] or sig != want:
                continue
            assigned[v] = ids2[side][b]
            taken[b] = True
            if side == 0:
                saved = sig1[1], sig2[1]
                if not extend(0, a, b) or balanced(1):
                    yield from rec(pos + 1)
                sig1[1], sig2[1] = saved
            else:
                yield from rec(pos + 1)
            del assigned[v]
            taken[b] = False
            if limit is not None and yielded >= limit:
                return

    yield from rec(0)


def are_isomorphic(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph) -> PartialMap | None:
    """A total side-preserving isomorphism, or None."""
    for mapping in _search_maps(_search_tables(d1), _search_tables(d2), {}, limit=1):
        return PartialMap.from_dict(mapping)
    return None


def automorphisms(digraph: TwoPartiteDigraph,
                  cap: int = DEFAULT_AUT_CAP) -> list[PartialMap]:
    """All side-preserving automorphisms, identity included, in
    lexicographic order of the images of the vertices in stored order,
    left then right.  AutGroupTooLarge is raised, before any map is
    listed, when the stabiliser chain's order exceeds ``cap``, and
    ValidationError when ``cap`` is negative."""
    vertices = digraph.vertices()
    # every map is total and injective: its pairs only need the sources sorted
    sources = sorted(range(len(vertices)), key=vertices.__getitem__)
    return [PartialMap(tuple((vertices[s], vertices[g[s]]) for s in sources))
            for g in _StabiliserChain(digraph, cap).maps()]


def is_valid_partial_iso(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph,
                         pmap: PartialMap) -> bool:
    """True when ``pmap`` is an injective, side-preserving isomorphism
    between the substructures induced on its domain and codomain."""
    srcs = pmap.sources()
    tgts = pmap.targets()
    if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
        return False
    rows, cols = [], []   # (row or column in d1, its image's in d2)
    for (s, t) in pmap.pairs:
        if s in d1.row_of and t in d2.row_of:
            rows.append((d1.row_of[s], d2.row_of[t]))
        elif s in d1.col_of and t in d2.col_of:
            cols.append((d1.col_of[s], d2.col_of[t]))
        else:
            return False
    mat1, mat2 = d1.pair_states(), d2.pair_states()
    return all(mat1[i][j] == mat2[k][l] for i, k in rows for j, l in cols)


def extends_to_automorphism(digraph: TwoPartiteDigraph, pmap: PartialMap) -> bool:
    """Whether some side-preserving automorphism restricts to ``pmap``.

    Decided by backtracking completion of the map, not by enumerating
    the automorphism group.
    """
    if not is_valid_partial_iso(digraph, digraph, pmap):
        raise InvalidPartialMap("not a valid partial isomorphism of the structure")
    tables = _search_tables(digraph)
    for _ in _search_maps(tables, tables, pmap.as_dict(), limit=1):
        return True
    return False


def _orbit(schreier: dict, gens) -> None:
    """Closes the orbit ``schreier`` under the maps ``gens``; it sends each
    point to the map that first reached it, and the base point to None."""
    todo = list(schreier)
    while todo:
        x = todo.pop()
        for g in gens:
            if g[x] not in schreier:
                schreier[g[x]] = g
                todo.append(g[x])


class _StabiliserChain(dict):
    """The automorphism group as a stabiliser chain over the positions
    in ``digraph.vertices()``, left 0..m-1 then right; maps are tuples of
    positions.  A prefix of positions maps to the orbit of its last point
    under the maps that fix the rest, a Schreier vector found on first
    lookup by a limit-1 search per candidate image that the maps found so
    far miss, or by a swap for a twin, a candidate with the point's pair
    states.  ``orbits`` are those of the base 0..total-1.  Their sizes'
    product, the group's order, must not exceed ``cap`` (AutGroupTooLarge);
    a negative ``cap`` raises ValidationError before any search."""

    def __init__(self, digraph: TwoPartiteDigraph, cap: int):
        if cap < 0:
            raise ValidationError(f"automorphism cap must be non-negative, got {cap}")
        self.tables, self.vertices = _search_tables(digraph), digraph.vertices()
        self.m, self.total = len(digraph.left), len(self.vertices)
        self.pos = {v: p for p, v in enumerate(self.vertices)}
        _, _, lines, _, ranks, _ = self.tables
        self.rank = list(chain(*ranks))
        self.line = list(chain(*lines))   # a position's pair states to the other side
        self.found: list[tuple[int, ...]] = []   # automorphisms met by the searches
        # the deepest stabiliser first, so the maps found so far all fix
        # the current prefix and prune its orbit
        self.orbits = [self[tuple(range(p + 1))] for p in reversed(range(self.total))][::-1]
        if prod(map(len, self.orbits)) > cap:
            raise AutGroupTooLarge(cap)

    def extends(self, source, image) -> bool:
        vertices, pos = self.vertices, self.pos
        initial = {vertices[s]: vertices[t] for s, t in zip(source, image)}
        for g in _search_maps(self.tables, self.tables, initial, 1):
            self.found.append(tuple(pos[g[v]] for v in vertices))
            return True
        return False

    def alike(self, fixed: tuple[int, ...], p: int) -> list[int]:
        """The q outside ``fixed`` on p's side with p's pair states to the
        fixed vertices on the other side: the images of p under the valid
        maps that fix the rest."""
        m, line = self.m, self.line
        if p < m:
            side, cross = range(m), [f - m for f in fixed if f >= m]
        else:
            side, cross = range(m, self.total), [f for f in fixed if f < m]
        states = [line[p][c] for c in cross]
        return [q for q in side if q not in fixed
                and [line[q][c] for c in cross] == states]

    def classes(self, fixed: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """The points outside the sorted ``fixed`` grouped as :meth:`alike`
        groups them, by side and by pair states to the fixed points on the
        other side, in increasing order; with each class, those states."""
        m, line = self.m, self.line
        left = [f for f in fixed if f < m]
        right = [f - m for f in fixed if f >= m]
        for side, cross in ((range(m), right), (range(m, self.total), left)):
            grouped: dict[tuple, list[int]] = {}
            for q in side:
                if q not in fixed:
                    grouped.setdefault(tuple([line[q][c] for c in cross]), []).append(q)
            yield from grouped.items()

    def __missing__(self, prefix: tuple[int, ...]) -> dict:
        fixed, p = prefix[:-1], prefix[-1]
        orbit = self[prefix] = {p: None}
        rank, line, found = self.rank, self.line, self.found
        # an automorphism also keeps colours
        images = [q for q in self.alike(fixed, p) if rank[q] == rank[p]]
        if len(images) == 1:
            return orbit
        gens = [g for g in found if all(g[f] == f for f in fixed)]
        _orbit(orbit, gens)
        for q in images:
            if q in orbit:
                continue
            if line[q] == line[p]:
                # twins: swapping p and q alone is an automorphism
                g = list(range(self.total))
                g[p], g[q] = q, p
                found.append(tuple(g))
            elif not self.extends(prefix, fixed + (q,)):
                continue
            gens.append(found[-1])
            _orbit(orbit, gens)
        return orbit

    def maps(self) -> list[tuple[int, ...]]:
        """The group in lexicographic order of the image tuples.  Each map
        is a product u_0 u_1 ..., u_p fixing the points before p and sending
        p to a point o of its orbit, which the product h of the earlier
        levels then sends to h(o): so o runs in the order of h(o)."""
        identity = tuple(range(self.total))
        group = [identity]
        for schreier in self.orbits:
            if len(schreier) > 1:
                # a point's map is its generator after its parent's map, and
                # its parent entered the Schreier vector before it
                reps = {}
                for o, g in schreier.items():
                    reps[o] = identity if g is None else tuple(map(g.__getitem__, reps[g.index(o)]))
                group = [tuple(map(h.__getitem__, reps[o]))
                         for h in group for o in sorted(reps, key=h.__getitem__)]
        return group


def is_homogeneous(digraph: TwoPartiteDigraph, k: int | None = None, *,
                   aut_cap: int = DEFAULT_AUT_CAP) -> HomogeneityVerdict:
    """Exact homogeneity up to domain size ``k`` (default: all sizes).

    Every isomorphism between induced substructures on at most ``k``
    vertices must extend to a side-preserving automorphism.  The
    automorphism group is never listed: AutGroupTooLarge is raised
    before any domain is checked when the order of its stabiliser chain
    exceeds ``aut_cap``.  Memory therefore grows with the number of
    domain orbits walked, not with the group, and ``aut_cap`` bounds the
    group's order only.

    Once every smaller domain passes, a domain S passes exactly when the
    orbit of a point p of S under the maps that fix the rest T of S is
    all of p's class over T: the vertices outside T on p's side with
    p's pair states to T's vertices on the other side.  A valid map f
    out of S agrees on T with some automorphism g, and g^-1 f fixes T
    and sends p into that class; and fixing T while sending p to any
    vertex of the class is a valid map.  The class is not filtered by
    colour: a vertex of another colour in it is a valid image that no
    automorphism reaches.  Call T good when each class over T is one
    orbit of the maps that fix T.  Then every domain of size at most s
    passes exactly when every T of size below s is good.

    Goodness is kept by automorphisms, and a one-point class over a good
    T adds nothing: its point c is fixed by every map that fixes T, so
    each class over T keeps one pair state to c, and T plus c is good,
    with T's classes.  A set is therefore good when deleting such a
    point leaves a good set, and the sets without one are closed under
    deleting points.  Those are walked level by level, one per
    automorphism orbit, from the empty set: the chain finds each class's
    orbit and keeps it by prefix, and the sets of the next level are T
    plus the least point of each class of two or more points
    (:func:`_add_child`).

    At the first size s with a bad T, the domains of size s are scanned
    in ``combinations`` order (:func:`_first_failure`).  The first
    failing one is the first of its orbit, and its first image from
    which the search finds no automorphism is returned, so a failing
    verdict carries a smallest counterexample.  A negative ``k`` or
    ``aut_cap`` raises ValidationError.
    """
    if k is not None and k < 0:
        raise ValidationError(f"domain size bound must be non-negative, got {k}")
    group = _StabiliserChain(digraph, aut_cap)
    # no domain has more points than the structure
    top = group.total if k is None else min(k, group.total)
    # one sorted set per orbit, with each point's counts of the two edge
    # states inside it
    level: list[tuple[tuple[int, ...], dict]] = [((), {})]
    for size in range(top):
        # the sets of this level decide the domains one point larger
        buckets: dict[tuple, list[list]] = {}
        for fixed, counts in level:
            for states, members in group.classes(fixed):
                if len(members) == 1:
                    continue
                if len(group[fixed + (members[0],)]) != len(members):
                    return _first_failure(group, size + 1)
                if size + 1 < top:
                    _add_child(digraph, group, buckets, fixed, counts, members[0], states)
        level = [(domain, counts) for bucket in buckets.values() for domain, counts, _ in bucket]
    return HomogeneityVerdict(True, None)


def _add_child(digraph: TwoPartiteDigraph, group: _StabiliserChain, buckets: dict,
               fixed: tuple[int, ...], counts: dict, point: int, states: tuple[int, ...]) -> None:
    """Adds ``fixed`` plus ``point`` to ``buckets`` unless it is dropped
    or lies in the orbit of a set already there, given that every domain
    of its size passes.  ``states`` are point's pair states to the points
    of ``fixed`` on the other side.

    A point's colour in a set is its colour rank in the whole structure
    and its counts of the two edge states inside the set, which every
    automorphism keeps.  The set is dropped unless :func:`_last_point`
    accepts ``point``.  The rest are bucketed by their multisets of
    colours, and two sets of a bucket lie in one orbit exactly when a
    limit-1 map search finds an isomorphism between their induced
    substructures, as it then extends to an automorphism."""
    m, rank = group.m, group.rank
    grown = dict(counts)
    for f, x in zip([f for f in fixed if (f < m) != (point < m)], states):
        lr, rl = grown[f]
        grown[f] = (lr + (x == PAIR_LR), rl + (x == PAIR_RL))
    grown[point] = (states.count(PAIR_LR), states.count(PAIR_RL))
    colours = Counter((rank[p], *c) for p, c in grown.items())
    if not _last_point(colours, (rank[point], *grown[point])):
        return
    domain = tuple(sorted(grown))
    bucket = buckets.setdefault(tuple(sorted(colours.items())), [])
    if any(other[0] == domain for other in bucket):
        return

    def induced(domain: tuple[int, ...]) -> tuple:
        return _search_tables(digraph.induced(group.vertices[p] for p in domain))

    # a set's search tables are built once another set shares its bucket
    tables = None
    if bucket:
        tables = induced(domain)
        for other in bucket:
            if other[2] is None:
                other[2] = induced(other[0])
            if next(_search_maps(tables, other[2], {}, 1), None) is not None:
                return
    bucket.append([domain, grown, tables])


def _last_point(colours: Counter, colour: tuple) -> bool:
    """Whether a set whose points have the multiset ``colours`` is kept
    when its added point has ``colour``: the colour that most of its
    points share, the greatest such.  The kept sets still meet every
    orbit of the sets walked.  Deleting a point of that colour from a
    walked set S leaves a walked set, in the orbit of some parent T,
    and the image of the point lies in a class over T of two or more
    points, one orbit under the maps that fix T, whose least point
    makes a set in the orbit of S with that point's colour."""
    return colour == max(colours, key=lambda c: (colours[c], c))


def _first_failure(group: _StabiliserChain, size: int) -> HomogeneityVerdict:
    """The failing verdict when ``size`` is the least size of a failing
    domain: the first domain of that size in ``combinations`` order that
    fails the last-point test, with its first image, in the order of
    ``permutations``, that extends to no automorphism."""
    vertices, m, total, line = group.vertices, group.m, group.total, group.line
    for subset in combinations(range(total), size):
        # every smaller domain passes, so this one passes when its last
        # point's orbit fixing the rest is its whole class
        if len(group[subset]) == len(group.alike(subset[:-1], subset[-1])):
            continue
        a = bisect_left(subset, m)
        want = [tuple(line[j][i] for i in subset[:a]) for j in subset[a:]]
        # Images are not filtered by colour: a map between induced
        # substructures only has to preserve the induced structure,
        # and maps that break ambient invariants are precisely the
        # counterexample candidates.
        for img_l in permutations(range(m), a):
            # pair states are preserved iff each right image's column
            # over the left images equals its source's column
            key = {j: tuple(line[j][i] for i in img_l) for j in range(m, total)}
            for img_r in permutations(range(m, total), size - a):
                target = img_l + img_r   # the identity always extends
                if ([key[j] for j in img_r] == want and target != subset
                        and not group.extends(subset, target)):
                    return HomogeneityVerdict(False, PartialMap.from_dict(
                        {vertices[p]: vertices[q] for p, q in zip(subset, target)}))
