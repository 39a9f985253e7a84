"""Shared fixtures and independent oracles.

The oracles here deliberately reimplement decisions by brute force over
raw sets and permutations, sharing no code with the package internals,
so checker/decider agreement is a real cross-check.  The
exceptions are earlier production paths kept as differential oracles:
``search_homogeneous``, the decider that the restriction lookup in
``iso.is_homogeneous`` replaced (it shares the map-search kernel);
``pairwise_search_maps``, the map search that checked each candidate
against every assigned vertex and never cut a subtree, which the
signature search ``iso._search_maps`` replaced; ``automorphism_maps``,
the listing of the automorphism group by one full map search, which the
stabiliser chain's ``iso._StabiliserChain.maps`` replaced (it shares
the map-search kernel and fixes the order of the listing); ``walk_homogeneous``,
the restriction-lookup decider that walked every valid image of each
domain, which the counting decider replaced (it runs on
``pairwise_search_maps``);
``lexmin_canonical_form``, the canonical form that tries every pair of
side orderings, which the sorted-column form replaced (it shares the
colour refinement); ``unrolled_scan``, the row-wise extension scan that
the transposed element-order kernel ``_scan_size`` replaced;
``sorted_scan_rows``, which ran that kernel and sorted its assignments
into rows by packed integer keys (``_sorted_rows``), and which the
report-order scan ``genericity._scan`` replaced (it shares the tables of
``genericity._kernel``); ``materialized_defects``, the defect collector
that built a ``Requirement`` per defect and sorted them by
``requirement_sort_key``, which the packed keys replaced (it runs on
either kernel); ``report_json``, the ``check-generic`` payload encoded as
one object, which the CLI's streamed writer replaced; ``full_census``,
the census over every class, which the side-regular census replaced; and
``side_regular_census``, the census over the classes of the side-regular
walk ``side_regular_states``, which the generated line-symmetric classes
replaced (it shares ``_classes`` and ``_entry``);
``pairwise_bit_rows`` and ``pairwise_orientation_rows``, the randomized
builders' draws of one ``getrandbits`` call per pair state, which the
word-level draws of ``catalog`` replaced; ``two_sided_refined_colors``,
the colour refinement that spelled out the left and right sides apart,
which the one loop over both sides' views of ``iso._refined_colors``
replaced; and ``edge_list_closure`` with ``edge_list_add_witnesses``,
the witness closure that re-listed every edge each round and rebuilt
the structure through ``build``, which the closure that appends rows
and columns to the matrix replaced (it shares the defect scan);
``shape_group_fails``, the existence test that walked the report's
shape groups, which the walk over a cover of prefix shapes replaced (it
shares the prefix walk ``genericity._failing_prefixes``); and
``zip_kernel_inputs``, the kernel inputs that permuted the pair-state
lines by two tuple transposes, which bytes slicing replaced.
"""

import json
import random
from functools import lru_cache
from itertools import combinations, compress, islice, permutations, product, repeat
from operator import itemgetter
from typing import Iterator, Sequence

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from twopartite import build
from twopartite.catalog import Direction, _fresh_names
from twopartite.census import CensusEntry, _classes, _entry, enumerate_all
from twopartite.classify import classify_exact
from twopartite.core import FLIPPED, PAIR_LR, PAIR_RL, Side, TwoPartiteDigraph
from twopartite.errors import AutGroupTooLarge, CapExceeded, InvalidSpec, ValidationError
from twopartite.genericity import (
    _SLOTS,
    _STATES,
    _ZERO_ONE,
    DefectRow,
    GenericityReport,
    Mode,
    Requirement,
    _allowed,
    _collect_defects,
    _count,
    _expand,
    _failing_prefixes,
    _kernel,
    _kernel_inputs,
    _requirement,
    _shape_groups,
    _slot_states,
    validate_level,
)
from twopartite.iso import (
    DEFAULT_AUT_CAP,
    HomogeneityVerdict,
    PartialMap,
    _rank,
    _refined_colors,
    _search_maps,
    _search_tables,
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

    tables = _search_tables(digraph)
    use_orbits = len(vertices) > orbit_threshold
    auts: list[dict[str, str]] | None = None
    if use_orbits:
        auts = []
        for mapping in _search_maps(tables, tables, {}, limit=aut_cap + 1):
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
                    for _ in _search_maps(tables, tables, phi, limit=1):
                        extends = True
                        break
                    if not extends:
                        return HomogeneityVerdict(False, PartialMap.from_dict(phi))
    return HomogeneityVerdict(True, None)


# -- pairwise map search and image-walk decider --------------------------------

def pairwise_search_maps(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph,
                         initial: dict[str, str],
                         limit: int | None) -> Iterator[dict[str, str]]:
    """Backtracking enumeration of total side-preserving bijections
    d1 -> d2 that preserve all pair states and extend ``initial``.
    ``initial`` must already be consistent.  Yields at most ``limit``
    maps when limit is not None."""
    if len(d1.left) != len(d2.left) or len(d1.right) != len(d2.right):
        return
    col1 = _refined_colors(d1)
    col2 = col1 if d2 is d1 else _refined_colors(d2)
    if sorted(col1[v] for v in d1.left) != sorted(col2[v] for v in d2.left):
        return
    if sorted(col1[v] for v in d1.right) != sorted(col2[v] for v in d2.right):
        return

    assigned = dict(initial)
    used = set(initial.values())
    for s, t in initial.items():
        if col1[s] != col2[t]:
            return  # colours are isomorphism invariants; no completion exists

    todo = [v for v in d1.vertices() if v not in assigned]
    yielded = 0

    mat1, mat2 = d1.pair_states(), d2.pair_states()
    l1, r1 = d1.row_of, d1.col_of
    l2, r2 = d2.row_of, d2.col_of

    def consistent(v: str, w: str) -> bool:
        if v in l1:
            vi, wi = l1[v], l2[w]
            for (u, x) in assigned.items():
                if u in r1:
                    if mat1[vi][r1[u]] != mat2[wi][r2[x]]:
                        return False
        else:
            vj, wj = r1[v], r2[w]
            for (u, x) in assigned.items():
                if u in l1:
                    if mat1[l1[u]][vj] != mat2[l2[x]][wj]:
                        return False
        return True

    def candidates(v: str) -> Iterator[str]:
        pool = d2.left if v in l1 else d2.right
        cv = col1[v]
        for w in pool:
            if w in used or col2[w] != cv:
                continue
            if consistent(v, w):
                yield w

    def rec(pos: int) -> Iterator[dict[str, str]]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if pos == len(todo):
            yielded += 1
            yield dict(assigned)
            return
        v = todo[pos]
        for w in candidates(v):
            assigned[v] = w
            used.add(w)
            yield from rec(pos + 1)
            del assigned[v]
            used.discard(w)
            if limit is not None and yielded >= limit:
                return

    yield from rec(0)


def automorphism_maps(digraph: TwoPartiteDigraph, cap: int) -> Iterator[dict[str, str]]:
    """The side-preserving automorphisms of ``digraph`` as vertex maps;
    raises AutGroupTooLarge instead of yielding a map past ``cap``."""
    if cap < 0:
        raise ValidationError(f"automorphism cap must be non-negative, got {cap}")
    tables = _search_tables(digraph)
    for count, mapping in enumerate(_search_maps(tables, tables, {}, limit=cap + 1)):
        if count == cap:
            raise AutGroupTooLarge(cap)
        yield mapping


def _pairwise_automorphism_maps(digraph: TwoPartiteDigraph, cap: int) -> Iterator[dict[str, str]]:
    """``automorphism_maps`` on the pairwise search."""
    if cap < 0:
        raise ValidationError(f"automorphism cap must be non-negative, got {cap}")
    for count, mapping in enumerate(pairwise_search_maps(digraph, digraph, {}, limit=cap + 1)):
        if count == cap:
            raise AutGroupTooLarge(cap)
        yield mapping


def walk_homogeneous(digraph: TwoPartiteDigraph, k: int | None = None, *,
                   aut_cap: int = DEFAULT_AUT_CAP) -> HomogeneityVerdict:
    """Exact homogeneity up to domain size ``k`` (default: all sizes).

    Every isomorphism between induced substructures on at most ``k``
    vertices must extend to a side-preserving automorphism.  The
    automorphism group is enumerated once, so memory grows with the
    group, which is bounded by ``aut_cap`` (AutGroupTooLarge beyond
    it).  A partial isomorphism out of a domain S extends exactly when
    it is the restriction g|S of some automorphism g, so each one is
    decided by a set lookup.  Domains are enumerated smallest first and
    reduced to one per automorphism orbit, so a failing verdict carries
    a smallest counterexample.  A negative ``k`` or ``aut_cap`` raises
    ValidationError.
    """
    if k is not None and k < 0:
        raise ValidationError(f"domain size bound must be non-negative, got {k}")
    vertices = digraph.vertices()
    m, n = len(digraph.left), len(digraph.right)
    # vertices are numbered by position in ``vertices``: left 0..m-1,
    # right m..m+n-1; automorphisms become tuples of positions
    pos = {v: p for p, v in enumerate(vertices)}
    auts = [tuple(pos[g[v]] for v in vertices) for g in _pairwise_automorphism_maps(digraph, aut_cap)]
    mat = digraph.pair_states()
    column = {m + j: tuple(row[j] for row in mat) for j in range(n)}

    seen: set[frozenset[int]] = set()
    for size in range(1, (m + n if k is None else k) + 1):
        for subset in combinations(range(m + n), size):
            # a domain fails exactly when every domain in its orbit does,
            # so the first of each orbit in this order stands for them all
            if frozenset(subset) in seen:
                continue
            restrict = itemgetter(*subset)
            if size == 1:
                restrictions = {(restrict(g),) for g in auts}
            else:
                restrictions = set(map(restrict, auts))
            seen.update(map(frozenset, restrictions))
            a = sum(1 for p in subset if p < m)
            want = [tuple(column[j][i] for i in subset[:a]) for j in subset[a:]]
            # Images are not filtered by colour: a map between induced
            # substructures only has to preserve the induced structure,
            # and maps that break ambient invariants are precisely the
            # counterexample candidates.
            for img_l in permutations(range(m), a):
                # pair states are preserved iff each right image's column
                # over the left images equals its source's column
                key = {j: tuple(col[i] for i in img_l) for j, col in column.items()}
                for img_r in permutations(range(m, m + n), size - a):
                    if [key[j] for j in img_r] == want and img_l + img_r not in restrictions:
                        return HomogeneityVerdict(False, PartialMap.from_dict(
                            {vertices[p]: vertices[q] for p, q in zip(subset, img_l + img_r)}))
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


# -- the element-order kernel and the packed sort -----------------------------
#
# The extension kernel and the row sort that the report-order scan
# ``genericity._scan`` replaced, kept verbatim.  They read the tables of
# ``genericity._kernel``, whose pools may come in any order.

def kernels_of(inputs) -> dict[Side, tuple]:
    """The scan's kernel per side from ``genericity._kernel_inputs``."""
    return {side_inputs[0]: _kernel(*side_inputs) for side_inputs in inputs}


def _scan_size(rows: list[list[int]], tables: list[list[int]], pool_size: int,
               wit_count: int, size: int, limit: int | None) -> list[tuple]:
    """Unwitnessed requirements of exactly ``size`` demands, as tuples of
    (element index, slot index) assignments.

    ``rows[t][i]`` is the bitmap of witnesses that accept element ``i`` in
    slot ``t``.  ``tables`` holds, per run of ``_CHUNK`` witnesses, the
    failing last demands of every subset of that run (``_kernel``):
    every slot is packed into one integer, slot ``t`` at bit offset
    ``t * pool_size``.  The scan walks requirement prefixes of ``size - 1``
    demands and keeps ``pm``, the bitmap of witnesses that satisfy the
    prefix.  A last demand puts an element above the prefix into some
    slot; the ones that fail are those no survivor accepts, the AND of one
    table entry per nonzero byte of ``pm``, which stops once nothing is
    left.  A prefix with many surviving witnesses therefore costs a few
    table reads for all slots at once instead of one AND per element.

    Defects come out in a fixed order, which ``limit`` truncates: for
    sizes up to 3 by element tuple, then slot tuple; for larger sizes by
    ``(i, ti, j, tj, ...)``.
    """
    full = (1 << wit_count) - 1
    if size == 0:
        return [()] if full == 0 else []
    slots = range(len(rows))
    shifts = [t * pool_size for t in slots]
    everyone = (1 << pool_size) - 1
    spread = sum(1 << shift for shift in shifts)
    packed_everyone = everyone * spread
    width = len(tables)
    by_element = size <= 3
    defects: list[tuple] = []

    def close(group: list, start: int) -> bool:
        # group: (assignment so far, pm) for each slot assignment of one
        # element prefix; returns True once ``limit`` defects are collected
        above = packed_everyone ^ ((1 << start) - 1) * spread
        failed = []
        for assigned, pm in group:
            rem = above
            for table, byte in zip(tables, pm.to_bytes(width, "little")):
                if byte:
                    rem &= table[byte]
                    if not rem:
                        break
            if rem:
                failed.append((assigned, [rem >> shift & everyone for shift in shifts]))
        hit = 0
        for _, fails in failed:
            for fail in fails:
                hit |= fail
        while hit:
            low = hit & -hit
            hit ^= low
            last = low.bit_length() - 1
            for assigned, fails in failed:
                for t, fail in enumerate(fails):
                    if fail & low:
                        defects.append(assigned + ((last, t),))
                        if len(defects) == limit:
                            return True
        return False

    def walk(group: list, depth: int, start: int) -> bool:
        if depth == size - 1:
            return close(group, start)
        for i in range(start, pool_size):
            grown = [(assigned + ((i, t),), pm & rows[t][i])
                     for assigned, pm in group for t in slots]
            groups = (grown,) if by_element else ([state] for state in grown)
            if any(walk(g, depth + 1, i + 1) for g in groups):
                return True
        return False

    walk([((), full)], 0, 0)
    return defects


# Slot digits of the requirement key: element ``i`` demanded in slot
# ``a``, ``b`` or ``c`` is the digit ``rank``, ``p + rank`` or
# ``2p + rank``, with ``rank`` its position in sorted-id order.
_SLOT_CODES = {"a": 0, "b": 1, "c": 2}


def mode_slot_names(mode: Mode) -> tuple[str, ...]:
    """The names of the mode's demand slots, in ``genericity._SLOTS`` order."""
    return tuple("abc"[code] for code in _SLOTS[mode])


def _sorted_rows(side: Side, pool: Sequence[str], slot_names, size: int,
                 raw: list[tuple]) -> list[DefectRow]:
    """One ``(side, size)`` scan's assignments as rows, in requirement
    order.

    Each requirement packs into one integer: its shape code
    ``(nb + nc) * (size + 1) + nc``, then its demand digits in ascending
    order, in base ``3p`` for a pool of ``p`` elements.  The digits list
    the ``a``, ``b`` and ``c`` demands in turn, each set by id, so the
    integers sort as the requirements do.
    """
    p = len(pool)
    base = 3 * p
    names = sorted(pool)
    rank = {v: r for r, v in enumerate(names)}
    codes = [_SLOT_CODES[name] for name in slot_names]
    digits = [[code * p + rank[v] for v in pool] for code in codes]
    # a b demand adds 1 to nb + nc, a c demand also adds 1 to nc
    shape_share = [(0, size + 1, size + 2)[code] for code in codes]
    keys = []
    for assignment in raw:
        shape = 0
        demands = []
        for i, t in assignment:
            shape += shape_share[t]
            demands.append(digits[t][i])
        demands.sort()
        key = shape
        for d in demands:
            key = key * base + d
        keys.append(key)
    keys.sort()

    by_digit = names * 3
    rows = []
    for key in keys:
        last_first = []
        for _ in range(size):
            key, d = divmod(key, base)
            last_first.append(by_digit[d])
        ids = tuple(last_first[::-1])
        nb_nc, nc = divmod(key, size + 1)
        na = size - nb_nc
        rows.append((side, ids[:na], ids[na:size - nc], ids[size - nc:]))
    return rows


def sorted_scan_rows(inputs, level: int, mode: Mode, scan=_scan_size) -> list[DefectRow]:
    """The full report as the element-order kernel and the packed sort made
    it: each ``(side, size)`` scan's assignments sorted into rows.  ``scan``
    is that kernel or ``unrolled_kernel``."""
    defects: list[DefectRow] = []
    for side in (Side.LEFT, Side.RIGHT):
        _, _, pool, wit_count, rows, packed = kernels_of(inputs)[side]
        for size in range(level + 1):
            raw = scan(rows, packed, len(pool), wit_count, size, limit=None)
            defects += _sorted_rows(side, pool, mode_slot_names(mode), size, raw)
    return defects


# -- the row-emitting scan ------------------------------------------------------
#
# The scan and collectors that emitted one row tuple per defect, kept
# verbatim (renamed) as the oracle of the runs that replaced them: the
# expansion of ``genericity._scan``'s runs must equal ``row_scan``'s rows.
# The walk's allowed-last-demand table is now passed in by the caller.

def row_scan(kernel: tuple, size: int, limit: int | None = None) -> list[DefectRow]:
    """Unwitnessed requirements of exactly ``size`` demands, as rows in
    report order, cut to the first ``limit``.

    Each group of shapes walks its prefixes once.  Then each shape reads
    its own slot of every failing prefix's packed fails: prefixes come in
    order and a slot's bits are its last demands in ascending id order, so
    the rows come out sorted."""
    side, mode, pool, wit_count, _, _ = kernel
    if size == 0:
        return [] if wit_count else [(side, (), (), ())]
    p = len(pool)
    everyone = (1 << p) - 1
    codes = _SLOTS[mode]
    singles = [(v,) for v in pool]
    out: list[DefectRow] = []
    for prefix, lasts in _shape_groups(size, mode):
        # the prefix's ids of slots a, b and c end at these positions
        ends = [sum(codes[t] <= code for t in prefix) for code in range(3)]
        found = []
        first_count = len(out)
        allow = _allowed(p, len(kernel[4]), prefix[-1]) if prefix else ()
        for chosen, rem in _failing_prefixes(kernel, prefix, allow):
            ids = tuple(pool[i] for i in chosen)
            found.append((ids[:ends[0]], ids[ends[0]:ends[1]], ids[ends[1]:], rem))
            if limit is not None:
                # the group's first shape alone fills the limit
                first_count += (rem >> lasts[0] * p & everyone).bit_count()
                if first_count >= limit:
                    break
        for last in lasts:
            shift, code = last * p, codes[last]
            for a, b, c, rem in found:
                bits = rem >> shift & everyone
                if not bits:
                    continue
                tails = compress(singles, bin(bits)[:1:-1].encode().translate(_ZERO_ONE))
                if code == 0:
                    out += [(side, a + z, b, c) for z in tails]
                elif code == 1:
                    out += [(side, a, b + z, c) for z in tails]
                else:
                    out += [(side, a, b, c + z) for z in tails]
            if limit is not None and len(out) >= limit:
                return out[:limit]
    return out


def _row_side_defects(inputs: tuple, level: int, limit: int | None) -> list[DefectRow]:
    """One side's rows, cut to the first ``limit``: ``inputs`` is its
    ``_kernel_inputs`` entry.  No requirement has more demands than the
    pool has elements, so the sizes stop there."""
    kernel = _kernel(*inputs)
    defects: list[DefectRow] = []
    for size in range(min(level, len(kernel[2])) + 1):
        if len(defects) == limit:
            break
        defects += row_scan(kernel, size, None if limit is None else limit - len(defects))
    return defects


def row_defects(inputs: list[tuple], level: int,
                limit: int | None = None) -> list[DefectRow]:
    """Unwitnessed requirements as rows, in report order, cut to the first
    ``limit``.  ``inputs`` is ``_kernel_inputs`` output."""
    defects = _row_side_defects(inputs[0], level, limit)
    if len(defects) != limit:
        defects += _row_side_defects(inputs[1], level, limit)
    return defects[:limit]


# -- existence by shape groups and kernel inputs by tuple transposes -----------
#
# The existence test and the kernel inputs that the cover walk and the
# bytes-slicing transpose replaced, kept verbatim but for the walk's
# allowed-last-demand table, which ``_failing_prefixes`` now takes as an
# argument.

def shape_group_fails(kernel: tuple, size: int) -> bool:
    """Whether some requirement of exactly ``size`` demands is unwitnessed."""
    if size == 0:
        return not kernel[3]
    p, slots = len(kernel[2]), len(kernel[4])
    return any(any(_failing_prefixes(kernel, prefix, _allowed(p, slots, prefix[-1]) if prefix else ()))
               for prefix, _ in _shape_groups(size, kernel[1]))


def zip_kernel_inputs(digraph: TwoPartiteDigraph, mode: Mode,
                      originals: dict[Side, int] | None = None) -> list[tuple]:
    """``genericity._kernel_inputs`` with the pair-state lines permuted by
    tuple transposes."""
    matrix = digraph.pair_states()
    pools, orders = {}, {}
    for side in (Side.LEFT, Side.RIGHT):
        ids = digraph.side(side)
        cut = len(ids) if originals is None else originals[side]
        pool = sorted(range(cut), key=ids.__getitem__)
        pools[side] = tuple(ids[i] for i in pool)
        orders[side] = [*pool, *range(cut, len(ids))]
    # permute the pair-state lines, not the bitmaps built from them: pick
    # the rows, transpose, pick the columns and transpose back
    picked = [matrix[i] for i in orders[Side.LEFT]]
    columns = list(zip(*picked)) if picked else [()] * len(orders[Side.RIGHT])
    columns = [bytes(columns[j]) for j in orders[Side.RIGHT]]
    lines = list(map(bytes, zip(*columns))) if columns else [b""] * len(picked)
    bitmaps = {}
    for side, side_lines in ((Side.LEFT, lines), (Side.RIGHT, columns)):
        # reversed, a line reads as a binary numeral with position 0 lowest
        reversed_lines = [line[::-1] for line in side_lines]
        for accepted in _slot_states(side, mode):
            digits = bytes.maketrans(_STATES, bytes(b"01"[s in accepted] for s in _STATES))
            bitmaps[side, accepted] = [int(line.translate(digits) or b"0", 2)
                                       for line in reversed_lines]
    # both sides' slots accept the same sets of states, in another order
    return [(side, mode, pools[side],
             [bitmaps[side, accepted][:len(pools[side])] for accepted in _slot_states(side, mode)],
             [bitmaps[side.opposite, accepted] for accepted in _slot_states(side, mode)])
            for side in (Side.LEFT, Side.RIGHT)]


# -- materialised defect lists -------------------------------------------------

def requirement_sort_key(req: Requirement):
    """Normalized ordering: side, then total size, then shape (larger
    ``a`` first), then sorted ids."""
    side_rank = 0 if req.side is Side.LEFT else 1
    return (side_rank, req.total, (len(req.b) + len(req.c), len(req.c)),
            tuple(sorted(req.a)), tuple(sorted(req.b)), tuple(sorted(req.c)))


def unrolled_kernel(rows, packed, pool_size, wit_count, size, limit):
    """``unrolled_scan`` with the element-order kernel's arguments."""
    return unrolled_scan(rows, pool_size, wit_count, size, limit)


def materialized_defects(inputs, level: int, mode: Mode, limit: int | None = None,
                         only_total: int | None = None,
                         scan=_scan_size) -> list[Requirement]:
    """Every unwitnessed requirement as a :class:`Requirement`, sorted by
    ``requirement_sort_key``.  ``scan`` is the element-order kernel or
    ``unrolled_kernel``; ``limit`` cuts its scan order before the sort,
    so a limited list only tells whether a defect exists."""
    names = mode_slot_names(mode)
    sizes = (only_total,) if only_total is not None else tuple(range(level + 1))
    tasks = []
    for side in (Side.LEFT, Side.RIGHT):
        _, _, pool, wit_count, rows, packed = kernels_of(inputs)[side]
        for size in sizes:
            tasks.append((side, pool, (rows, packed, len(pool), wit_count, size)))

    defects: list[Requirement] = []

    def materialize(side: Side, pool, raw: list[tuple]) -> None:
        for assignment in raw:
            sets: dict[str, list[str]] = {"a": [], "b": [], "c": []}
            for (i, t) in assignment:
                sets[names[t]].append(pool[i])
            defects.append(Requirement(side, frozenset(sets["a"]),
                                       frozenset(sets["b"]), frozenset(sets["c"])))

    for (side, pool, args) in tasks:
        remaining = None if limit is None else limit - len(defects)
        if remaining is not None and remaining <= 0:
            break
        raw = scan(*args, limit=remaining)
        materialize(side, pool, raw)

    defects.sort(key=requirement_sort_key)
    return defects


def defect_row(req: Requirement) -> tuple:
    """A requirement as a report row: side, then sorted id tuples."""
    return (req.side, tuple(sorted(req.a)), tuple(sorted(req.b)), tuple(sorted(req.c)))


def report_json(report: GenericityReport) -> str:
    """The ``check-generic`` payload built as one dict and encoded by one
    ``json.dumps`` call, as the CLI wrote it before it streamed the rows."""
    obj = {
        "mode": report.mode.value,
        "level": report.level,
        "holds": report.holds,
        "defects": [{"side": side.value, "a": a, "b": b, "c": c}
                    for side, a, b, c in report.rows],
        "nonadjacent": list(report.nonadjacent) if report.nonadjacent else None,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


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


# -- side-regular census -------------------------------------------------------

def side_regular_states(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """The row-major state vectors, in lexicographic order, in which all
    rows have the same count of each pair state, and so do all columns.

    Row 0 fixes the row counts c, and with them the column counts
    u = m*c/n; the later rows are the rows with counts c, taken in
    lexicographic order, that keep every column within u.
    """
    if m == 0 or n == 0:
        yield ()
        return
    # The room left for state s in column j is one field of an integer,
    # with a guard bit on top; taking a row subtracts 1 from its fields,
    # and a field that had no room left clears its guard bit.
    width = m.bit_length() + 1
    guard = sum(1 << (k * width + width - 1) for k in range(3 * n))

    def taken(row: tuple[int, ...]) -> int:
        return sum(1 << (s * n + j) * width for j, s in enumerate(row))

    def rec(prefix: tuple[int, ...], room: int, same: list[tuple[tuple[int, ...], int]]
            ) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m * n:
            yield prefix
            return
        for r, t in same:
            rest = room - t
            if rest & guard == guard:
                yield from rec(prefix + r, rest, same)

    counts_of = {r: (r.count(0), r.count(1), r.count(2))
                 for r in product((0, 1, 2), repeat=n)}
    rows_with: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    for r, counts in counts_of.items():
        rows_with.setdefault(counts, []).append(r)
    for first, counts in counts_of.items():
        if any(m * c % n for c in counts):
            continue
        room = guard + sum(m * c // n << (s * n + j) * width
                           for s, c in enumerate(counts) for j in range(n))
        same = [(r, taken(r)) for r in rows_with[counts]]
        yield from rec(first, room - taken(first), same)


def side_regular_census(max_left: int, max_right: int) -> list[CensusEntry]:
    """Census entries of the side-regular classes, which include every
    homogeneous class: the census before its candidates were generated."""
    return [_entry(*pair) for m in range(max_left + 1) for n in range(max_right + 1)
            for pair in _classes(m, n, side_regular_states(m, n))]


# -- per-pair builder draws --------------------------------------------------

def pairwise_bit_rows(rng, n: int, zero: int, one: int) -> list[list[int]]:
    """An n-by-n matrix from one ``getrandbits(1)`` per pair: ``zero`` for
    0 and ``one`` for 1."""
    return [[one if rng.getrandbits(1) else zero for _ in range(n)] for _ in range(n)]


def pairwise_orientation_rows(rng, n: int) -> list[list[int]]:
    """An n-by-n matrix from the stream of ``randrange(3)``, which draws
    ``getrandbits(2)`` until it is not 3."""
    states = filter((3).__ne__, map(rng.getrandbits, repeat(2)))
    return [list(islice(states, n)) for _ in range(n)]


@pytest.fixture
def refuse_edges(monkeypatch):
    """Call it to make every later read of ``TwoPartiteDigraph.edges`` fail
    the test."""
    def refuse(self):
        raise AssertionError("edge list computed")

    return lambda: monkeypatch.setattr(TwoPartiteDigraph, "edges", property(refuse))


# -- two-sided colour refinement and edge-list witness closure --------------

def two_sided_refined_colors(digraph: TwoPartiteDigraph) -> dict[str, tuple]:
    """Colour invariant: degree triple refined twice by the multiset of
    (pair state, neighbour colour) over the opposite side."""
    left, right = digraph.left, digraph.right
    m, n = len(left), len(right)
    mat = digraph.pair_states()
    col: dict[str, tuple] = {}
    for i, x in enumerate(left):
        out = sum(1 for j in range(n) if mat[i][j] == PAIR_LR)
        inn = sum(1 for j in range(n) if mat[i][j] == PAIR_RL)
        col[x] = (0, out, inn, n - out - inn)
    for j, y in enumerate(right):
        out = sum(1 for i in range(m) if mat[i][j] == PAIR_RL)
        inn = sum(1 for i in range(m) if mat[i][j] == PAIR_LR)
        col[y] = (1, out, inn, m - out - inn)
    for _ in range(2):
        sigs: dict[str, tuple] = {}
        for i, x in enumerate(left):
            sigs[x] = (col[x], tuple(sorted(
                (mat[i][j], col[y]) for j, y in enumerate(right))))
        for j, y in enumerate(right):
            sigs[y] = (col[y], tuple(sorted(
                (FLIPPED[mat[i][j]], col[x]) for i, x in enumerate(left))))
        # compress per round so colour values stay small; ranking by the
        # sorted distinct signature keeps equality stable across
        # isomorphic structures (same multiset -> same ranks)
        left_rank = _rank({x: sigs[x] for x in left})
        right_rank = _rank({y: sigs[y] for y in right})
        refined = {x: (col[x], left_rank[x]) for x in left}
        refined.update({y: (col[y], right_rank[y]) for y in right})
        col = refined
    return col


def _oriented(x: str, y: str, direction: Direction) -> tuple[str, str]:
    return (x, y) if direction is Direction.LEFT_TO_RIGHT else (y, x)



def edge_list_closure(digraph: TwoPartiteDigraph, mode: Mode, level: int,
                    cap: int) -> TwoPartiteDigraph:
    """Deterministically add witness vertices until every requirement of
    total size <= ``level`` over the *original* vertex set has a witness.

    The original vertices and their induced structure are untouched; the
    construction only adds.  In TWO_PARTITE mode a new witness is made
    adjacent to the whole opposite side, with pairs the requirement does
    not constrain oriented left-to-right.  In the other modes
    unconstrained pairs stay non-adjacent.  Raises CapExceeded (carrying
    the partial structure and the remaining defects) when more than
    ``cap`` vertices would be needed, and ValidationError for a negative
    ``level`` or ``cap``.
    """
    validate_level(level)
    if cap < 0:
        raise ValidationError(f"closure cap must be non-negative, got {cap}")
    if mode is Mode.BIPARTITE and not digraph.is_bipartite_digraph():
        raise InvalidSpec("bipartite-mode closure needs a one-direction input")
    bip_direction = Direction.LEFT_TO_RIGHT
    if digraph.edges and digraph.side_of(digraph.edges[0][0]) is Side.RIGHT:
        bip_direction = Direction.RIGHT_TO_LEFT

    originals = {Side.LEFT: len(digraph.left), Side.RIGHT: len(digraph.right)}
    current = digraph
    added = 0
    while True:
        # witnesses are appended, so cutting each side's pool to its first
        # (original) vertices scans exactly the requirements over them; the
        # scan stops at one batch of rows, and at the cap reports them all
        runs = _collect_defects(_kernel_inputs(current, mode, originals), level,
                                None if added >= cap else cap - added)
        if not runs:
            return current
        if added >= cap:
            raise CapExceeded(
                f"closure needs more than {cap} added vertices "
                f"({_count(runs)} requirements still unwitnessed)",
                current, map(_requirement, _expand(runs)))
        batch = _expand(runs)
        current = edge_list_add_witnesses(current, batch, mode, bip_direction)
        added += len(batch)


def edge_list_add_witnesses(current: TwoPartiteDigraph, batch: list[DefectRow],
                   mode: Mode, bip_direction: Direction) -> TwoPartiteDigraph:
    left = list(current.left)
    right = list(current.right)
    edges = list(current.edges)
    taken = set(left) | set(right)
    names = _fresh_names(taken, len(batch))
    for (side, a, b, c), w in zip(batch, names):
        # the witness lives on the side opposite the requirement sets
        witness_on_left = side is Side.RIGHT
        if mode is Mode.BIPARTITE:
            # a demands adjacency, c non-adjacency; new edges follow the
            # input's single direction, everything else stays non-adjacent
            for u in a:
                x, y = (w, u) if witness_on_left else (u, w)
                edges.append(_oriented(x, y, bip_direction))
        else:
            for u in a:    # a ⊆ N+(w)
                edges.append((w, u))
            for u in b:    # b ⊆ N-(w)
                edges.append((u, w))
            if mode is Mode.TWO_PARTITE:
                # keep the underlying graph complete: unconstrained pairs
                # get the left-to-right default
                constrained = {*a, *b, *c}
                for u in (right if witness_on_left else left):
                    if u in constrained:
                        continue
                    edges.append((w, u) if witness_on_left else (u, w))
        if witness_on_left:
            left.append(w)
        else:
            right.append(w)
    return build(left, right, edges)


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


def cycle_structure(lengths, directed: bool) -> TwoPartiteDigraph:
    """Disjoint cycles x_i - y_i - x_(i+1) - ..., one of 2 * k vertices
    per entry k of ``lengths``, under ids listed in a seeded random
    order.  Every edge runs left to right, or, when ``directed``, the
    cycles are directed cycles.  Colour refinement gives every vertex of
    such a structure the same colour as every other on its side."""
    left, right, edges = [], [], []
    for c, k in enumerate(lengths):
        xs = [f"x{c}_{i}" for i in range(k)]
        ys = [f"y{c}_{i}" for i in range(k)]
        left += xs
        right += ys
        for i in range(k):
            edges.append((xs[i], ys[i]))
            edges.append((ys[(i + 1) % k], xs[i]) if directed
                         else (xs[i], ys[(i + 1) % k]))
    rng = random.Random(len(lengths))
    rng.shuffle(left)
    rng.shuffle(right)
    return build(left, right, edges)


def shuffled_copy(digraph: TwoPartiteDigraph, rng) -> TwoPartiteDigraph:
    """``digraph`` under fresh ids, listed in a random order, so that its
    stored order, its id order and the order of ``digraph`` all differ."""
    names = rng.sample(range(100, 1000), len(digraph.vertices()))
    moved = digraph.relabel({v: f"v{k}" for v, k in zip(digraph.vertices(), names)})
    left, right = list(moved.left), list(moved.right)
    rng.shuffle(left)
    rng.shuffle(right)
    return build(left, right, moved.edges)


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
