"""Shared fixtures and independent oracles.

The oracles here deliberately reimplement decisions by brute force over
raw sets and permutations, sharing no code with the package internals,
so checker/decider agreement is a real cross-check.  The
exceptions are earlier production paths kept as differential oracles:
``search_homogeneous``, the decider that the restriction lookup in
``iso.is_homogeneous`` replaced (it shares the map-search kernel);
``lexmin_canonical_form``, the canonical form that tries every pair of
side orderings, which the sorted-column form replaced (it shares the
colour refinement); ``unrolled_scan``, the row-wise extension scan that
the transposed kernel ``genericity._scan_size`` replaced;
``materialized_defects``, the defect collector that built a
``Requirement`` per defect and sorted them by ``requirement_sort_key``,
which the packed integer keys of ``genericity._collect_defects``
replaced (it shares the kernel); and ``full_census``, the census over
every class, which the side-regular census replaced.
"""

from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterator

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from twopartite import build
from twopartite.census import CensusEntry, enumerate_all
from twopartite.classify import classify_exact
from twopartite.core import Side, TwoPartiteDigraph
from twopartite.errors import AutGroupTooLarge
from twopartite.genericity import (
    _SLOTS,
    Mode,
    Requirement,
    _kernel_tables,
    _scan_size,
    _scan_task,
)
from twopartite.iso import (
    DEFAULT_AUT_CAP,
    HomogeneityVerdict,
    PartialMap,
    _refined_colors,
    _search_maps,
    canonical_form,
)

settings.register_profile("repro", derandomize=True, max_examples=60)
settings.load_profile("repro")


# -- naive witness scan -------------------------------------------------------

def naive_witness(structure, req, mode: Mode = Mode.ORIENTATION) -> str | None:
    """First opposite-side vertex realizing the demands, via plain set
    logic over the public neighbourhood methods.  In BIPARTITE mode an
    edge in either direction counts as adjacency."""
    for w in structure.side(req.side.opposite):
        outs = set(structure.out_neighbourhood(w))
        ins = set(structure.in_neighbourhood(w))
        if mode is Mode.BIPARTITE:
            if req.a <= outs | ins and not (req.c & (outs | ins)):
                return w
        elif req.a <= outs and req.b <= ins and req.c <= set(structure.perp(w)):
            return w
    return None


# -- naive homogeneity --------------------------------------------------------

def naive_automorphisms(digraph: TwoPartiteDigraph) -> list[dict]:
    """All side-preserving automorphisms by filtering every total
    side-preserving bijection.  Exponential; keep |V| small."""
    left, right = list(digraph.left), list(digraph.right)
    eset = set(digraph.edges)

    def preserves(mapping, dom):
        for u in dom:
            for v in dom:
                if u != v and (((u, v) in eset) != ((mapping[u], mapping[v]) in eset)):
                    return False
        return True

    out = []
    for pl in permutations(left):
        for pr in permutations(right):
            mapping = dict(zip(left, pl))
            mapping.update(zip(right, pr))
            if preserves(mapping, left + right):
                out.append(mapping)
    return out


def naive_homogeneous(digraph: TwoPartiteDigraph) -> bool:
    """Every side-respecting partial isomorphism must be the restriction
    of some total automorphism."""
    left, right = list(digraph.left), list(digraph.right)
    on_left = set(left)
    eset = set(digraph.edges)
    auts = naive_automorphisms(digraph)

    def preserves(mapping, dom):
        for u in dom:
            for v in dom:
                if u != v and (((u, v) in eset) != ((mapping[u], mapping[v]) in eset)):
                    return False
        return True

    vertices = left + right
    for size in range(1, len(vertices) + 1):
        for dom in combinations(vertices, size):
            dl = [v for v in dom if v in on_left]
            dr = [v for v in dom if v not in on_left]
            for il in permutations(left, len(dl)):
                for ir in permutations(right, len(dr)):
                    phi = dict(zip(dl, il))
                    phi.update(zip(dr, ir))
                    if not preserves(phi, dom):
                        continue
                    if not any(all(a[u] == phi[u] for u in dom) for a in auts):
                        return False
    return True


def search_homogeneous(digraph: TwoPartiteDigraph, k: int | None = None, *,
                       orbit_threshold: int = 8,
                       aut_cap: int = DEFAULT_AUT_CAP) -> HomogeneityVerdict:
    """The earlier decider: one backtracking completion search per
    candidate partial map.  Above ``orbit_threshold`` vertices, domain
    subsets are reduced to orbit representatives under the automorphism
    group; below it the search is unreduced."""
    vertices = digraph.vertices()
    if k is None:
        k = len(vertices)
    on_left = set(digraph.left)
    mat = digraph.pair_states()
    lidx, ridx = digraph.row_of, digraph.col_of

    use_orbits = len(vertices) > orbit_threshold
    auts: list[dict[str, str]] | None = None
    if use_orbits:
        auts = []
        for mapping in _search_maps(digraph, digraph, {}, limit=aut_cap + 1):
            auts.append(mapping)
            if len(auts) > aut_cap:
                raise AutGroupTooLarge(aut_cap)

    def images(source, pool):
        return permutations(pool, len(source))

    seen_orbits: set[frozenset[str]] = set()
    for size in range(1, k + 1):
        for subset in combinations(vertices, size):
            if use_orbits:
                # the first subset of each automorphism orbit stands for all
                if frozenset(subset) in seen_orbits:
                    continue
                for aut in auts:
                    seen_orbits.add(frozenset(aut[v] for v in subset))
            s_left = tuple(v for v in subset if v in on_left)
            s_right = tuple(v for v in subset if v not in on_left)
            for img_l in images(s_left, digraph.left):
                for img_r in images(s_right, digraph.right):
                    if img_l == s_left and img_r == s_right:
                        continue  # identity always extends
                    ok = True
                    for u, iu in zip(s_left, img_l):
                        for w, iw in zip(s_right, img_r):
                            if mat[lidx[u]][ridx[w]] != mat[lidx[iu]][ridx[iw]]:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    phi = dict(zip(s_left, img_l))
                    phi.update(zip(s_right, img_r))
                    extends = False
                    for _ in _search_maps(digraph, digraph, phi, limit=1):
                        extends = True
                        break
                    if not extends:
                        return HomogeneityVerdict(False, PartialMap.from_dict(phi))
    return HomogeneityVerdict(True, None)


# -- lexicographic-minimum canonical form ------------------------------------

def _class_orderings(ids: tuple[str, ...], col: dict[str, tuple]) -> Iterator[tuple[str, ...]]:
    """All orderings of ``ids`` that sort colour classes by colour value,
    permuting freely inside each class."""
    groups: dict[tuple, list[str]] = {}
    for v in ids:
        groups.setdefault(col[v], []).append(v)
    keys = sorted(groups)
    per_class = [list(permutations(groups[k])) for k in keys]
    for combo in product(*per_class):
        yield tuple(v for perm in combo for v in perm)


def lexmin_canonical_form(digraph: TwoPartiteDigraph) -> bytes:
    """A byte string identifying the side-preserving isomorphism class.

    Two structures have equal canonical form iff :func:`are_isomorphic`
    finds a map between them.  Computed as the lexicographic minimum of
    the pair-state matrix over all colour-respecting vertex orderings
    of each side; sides are never mixed.
    """
    col = _refined_colors(digraph)
    mat = digraph.pair_states()
    best: bytes | None = None
    right_orders = [[digraph.col_of[w] for w in rorder]
                    for rorder in _class_orderings(digraph.right, col)]
    for lorder in _class_orderings(digraph.left, col):
        rows = [mat[digraph.row_of[u]] for u in lorder]
        for cols in right_orders:
            enc = bytes(row[j] for row in rows for j in cols)
            if best is None or enc < best:
                best = enc
    header = len(digraph.left).to_bytes(4, "big") + len(digraph.right).to_bytes(4, "big")
    return b"TP1" + header + (best or b"")


# -- unrolled extension scan -----------------------------------------------

def unrolled_scan(slot_masks: list[list[int]], pool_size: int, wit_count: int,
                  size: int, limit: int | None) -> list[tuple]:
    """Unwitnessed requirements of exactly ``size`` demands, as tuples of
    (element index, slot index) assignments.

    Each subset of ``size`` elements combines with every per-element slot
    assignment; the requirement fails when the AND of the chosen witness
    bitmaps is empty.  Sizes up to 3 dominate in practice and get
    dedicated loops; larger sizes recurse.
    """
    full = (1 << wit_count) - 1
    k = len(slot_masks)
    slots = range(k)
    defects: list[tuple] = []

    def done() -> bool:
        return limit is not None and len(defects) >= limit

    if size == 0:
        if full == 0:
            defects.append(())
        return defects

    if size == 1:
        for i in range(pool_size):
            for t in slots:
                if slot_masks[t][i] == 0:
                    defects.append(((i, t),))
                    if done():
                        return defects
        return defects

    if size == 2:
        for i in range(pool_size):
            mi = [slot_masks[t][i] for t in slots]
            for j in range(i + 1, pool_size):
                for ti in slots:
                    a = mi[ti]
                    col = slot_masks
                    for tj in slots:
                        if a & col[tj][j] == 0:
                            defects.append(((i, ti), (j, tj)))
                            if done():
                                return defects
        return defects

    if size == 3:
        for i in range(pool_size):
            mi = [slot_masks[t][i] for t in slots]
            for j in range(i + 1, pool_size):
                pair = [(ti, tj, mi[ti] & slot_masks[tj][j])
                        for ti in slots for tj in slots]
                for l in range(j + 1, pool_size):
                    ml = [slot_masks[t][l] for t in slots]
                    for (ti, tj, pm) in pair:
                        for tl in slots:
                            if pm & ml[tl] == 0:
                                defects.append(((i, ti), (j, tj), (l, tl)))
                                if done():
                                    return defects
        return defects

    def rec(start: int, depth: int, mask: int, chosen: tuple) -> None:
        if done():
            return
        if depth == size:
            if mask == 0:
                defects.append(chosen)
            return
        for i in range(start, pool_size):
            for t in slots:
                rec(i + 1, depth + 1, mask & slot_masks[t][i], chosen + ((i, t),))

    rec(0, 0, full, ())
    return defects


# -- materialised defect lists -------------------------------------------------

def requirement_sort_key(req: Requirement):
    """Normalized ordering: side, then total size, then shape (larger
    ``a`` first), then sorted ids."""
    side_rank = 0 if req.side is Side.LEFT else 1
    return (side_rank, req.total, (len(req.b) + len(req.c), len(req.c)),
            tuple(sorted(req.a)), tuple(sorted(req.b)), tuple(sorted(req.c)))


def materialized_defects(tables_by_side, level: int, mode: Mode,
                         jobs: int = 1, limit: int | None = None,
                         only_total: int | None = None) -> list[Requirement]:
    slot_names = _SLOTS[mode]
    sizes = (only_total,) if only_total is not None else tuple(range(level + 1))
    tasks = []
    for side in (Side.LEFT, Side.RIGHT):
        pool, wit, rows, cols = _kernel_tables(tables_by_side, side, mode)
        for size in sizes:
            tasks.append((side, pool, (rows, cols, len(pool), len(wit), size)))

    defects: list[Requirement] = []

    def materialize(side: Side, pool, raw: list[tuple]) -> None:
        for assignment in raw:
            sets: dict[str, list[str]] = {"a": [], "b": [], "c": []}
            for (i, t) in assignment:
                sets[slot_names[t]].append(pool[i])
            defects.append(Requirement(side, frozenset(sets["a"]),
                                       frozenset(sets["b"]), frozenset(sets["c"])))

    if jobs > 1 and limit is None:
        with ProcessPoolExecutor(max_workers=jobs) as pool_exec:
            results = list(pool_exec.map(_scan_task, [t[2] for t in tasks]))
        for (side, pool, _), raw in zip(tasks, results):
            materialize(side, pool, raw)
    else:
        for (side, pool, args) in tasks:
            remaining = None if limit is None else limit - len(defects)
            if remaining is not None and remaining <= 0:
                break
            raw = _scan_size(*args, limit=remaining)
            materialize(side, pool, raw)

    defects.sort(key=requirement_sort_key)
    return defects


def defect_row(req: Requirement) -> tuple:
    """A requirement as a report row: side, then sorted id tuples."""
    return (req.side, tuple(sorted(req.a)), tuple(sorted(req.b)), tuple(sorted(req.c)))


# -- orbit counting -----------------------------------------------------------

def burnside_class_count(m: int, n: int) -> int:
    """Number of side-preserving isomorphism classes on fixed sides,
    counted independently: average over the side-permutation group of
    3^(pair orbits)."""
    total = 0
    group = 0
    for sigma in permutations(range(m)):
        for tau in permutations(range(n)):
            group += 1
            seen = [[False] * n for _ in range(m)]
            orbits = 0
            for i in range(m):
                for j in range(n):
                    if seen[i][j]:
                        continue
                    orbits += 1
                    a, b = i, j
                    while not seen[a][b]:
                        seen[a][b] = True
                        a, b = sigma[a], tau[b]
            total += 3 ** orbits
    return total // group


# -- full census --------------------------------------------------------------

# the side pairs of the desk-scale census: up to 3x3, and up to 2x4
DESK_PAIRS = sorted({(m, n) for m in range(4) for n in range(4)}
                    | {(m, n) for m in range(3) for n in range(5)})


@lru_cache(maxsize=None)
def census_classes(m: int, n: int) -> tuple[TwoPartiteDigraph, ...]:
    """Every class on sides of size m and n, as ``enumerate_all`` lists
    them; cached because several tests walk the same small sizes."""
    return tuple(enumerate_all(m, n))


@lru_cache(maxsize=None)
def _full_entries(m: int, n: int) -> tuple[CensusEntry, ...]:
    entries = []
    for rep in census_classes(m, n):
        label = classify_exact(rep)
        entries.append(CensusEntry(canonical_form(rep), rep,
                                   label.evidence["homogeneity"], label))
    return tuple(entries)


def full_census(max_left: int, max_right: int) -> list[CensusEntry]:
    """The census over every class, side-regular or not, in enumeration
    order: the census before it was cut to side-regular structures."""
    return [e for m in range(max_left + 1) for n in range(max_right + 1)
            for e in _full_entries(m, n)]


# -- structure generation -----------------------------------------------------

def random_digraph(rng, max_side: int = 8, min_side: int = 0) -> TwoPartiteDigraph:
    m = rng.randint(min_side, max_side)
    n = rng.randint(min_side, max_side)
    left = [f"x{i}" for i in range(1, m + 1)]
    right = [f"y{j}" for j in range(1, n + 1)]
    edges = []
    for x in left:
        for y in right:
            s = rng.randrange(3)
            if s == 1:
                edges.append((x, y))
            elif s == 2:
                edges.append((y, x))
    return build(left, right, edges)


@st.composite
def digraphs(draw, max_side: int = 4):
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    left = [f"x{i}" for i in range(1, m + 1)]
    right = [f"y{j}" for j in range(1, n + 1)]
    states = draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n))
    edges = []
    for i in range(m):
        for j in range(n):
            s = states[i * n + j]
            if s == 1:
                edges.append((left[i], right[j]))
            elif s == 2:
                edges.append((right[j], left[i]))
    return build(left, right, edges)


@pytest.fixture(scope="session")
def census33():
    from twopartite.census import census_homogeneous
    return census_homogeneous(3, 3)
