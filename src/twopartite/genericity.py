"""Level-bounded extension-property checks.

A *requirement* draws pairwise disjoint demand sets from one side of the
structure: ``a`` (demanded successors of the witness), ``b`` (demanded
predecessors) and ``c`` (demanded non-neighbours).  A structure has the
extension property at level ``t`` in a given mode when every requirement
of total size at most ``t`` has a witness on the opposite side:

* ``TWO_PARTITE`` mode uses ``a``/``b`` only and additionally expects a
  complete underlying graph (a missing adjacency is reported as a
  structural defect);
* ``ORIENTATION`` mode uses all three sets;
* ``BIPARTITE`` mode is undirected: ``a`` demands adjacency (an edge in
  either direction), ``c`` demands non-adjacency, ``b`` stays empty.

Every mode reads the same digraph.  An undirected bipartite graph is
passed as its one-direction orientation, and BIPARTITE mode reads only
whether a pair is adjacent.

The checkers enumerate the requirement space exhaustively (they serve
as oracles, so no sampling) and report every unwitnessed requirement.
Finite structures can only certify a finite level, never genuine
genericity.

One kernel, ``_scan_size``, serves all three modes and every size.  It
reads two bitmap tables built from one pass over the pair-state matrix: per
element, the witnesses that accept it in each slot, and per witness
(the opposite side's table), the elements it accepts.  It walks
requirement prefixes, keeping the witnesses that survive each prefix,
and finds the failing last demands of a prefix by OR-ing the columns of
its survivors.  ``achieved_level`` scans one size at a time across both
sides, so one call both accepts a build attempt and reports how far a
failed attempt got.

Reports carry their defects as rows ``(side, a, b, c)`` of sorted id
tuples.  Each scan's raw assignments are ordered by one packed integer
per requirement (``_sorted_rows``) and decoded straight into rows, so a
dense report builds no :class:`Requirement` objects;
``GenericityReport.defects`` builds them on first access.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .core import PAIR_LR, PAIR_RL, Side, TwoPartiteDigraph
from .errors import InvalidRequirement, ValidationError

from enum import Enum


class Mode(Enum):
    BIPARTITE = "bipartite"
    TWO_PARTITE = "2partite"
    ORIENTATION = "orientation"


@dataclass(frozen=True)
class Requirement:
    """Demand sets on one side; a witness lives on the opposite side."""

    side: Side
    a: frozenset[str]
    b: frozenset[str]
    c: frozenset[str]

    @property
    def total(self) -> int:
        return len(self.a) + len(self.b) + len(self.c)


def requirement(side: Side, a: Iterable[str] = (), b: Iterable[str] = (),
                c: Iterable[str] = ()) -> Requirement:
    req = Requirement(side, frozenset(a), frozenset(b), frozenset(c))
    if req.a & req.b or req.a & req.c or req.b & req.c:
        raise InvalidRequirement("demand sets must be pairwise disjoint")
    return req


DefectRow = tuple[Side, tuple[str, ...], tuple[str, ...], tuple[str, ...]]


def _requirement(row: DefectRow) -> Requirement:
    side, a, b, c = row
    return Requirement(side, frozenset(a), frozenset(b), frozenset(c))


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of a level check.  ``holds`` is true iff no requirement
    defect was found and (in TWO_PARTITE mode) the underlying graph is
    complete; ``nonadjacent`` carries a witnessing non-adjacent pair when
    completeness fails.

    ``rows`` holds the defects as ``(side, a, b, c)`` rows of sorted id
    tuples, ordered by side, then total size, then shape (larger ``a``
    first, then smaller ``c``), then the sorted ids of ``a``, ``b`` and
    ``c``.  ``defects`` is the same list as :class:`Requirement` objects,
    built on first access."""

    mode: Mode
    level: int
    holds: bool
    rows: tuple[DefectRow, ...]
    nonadjacent: tuple[str, str] | None = None

    @cached_property
    def defects(self) -> tuple[Requirement, ...]:
        return tuple(map(_requirement, self.rows))


def _validate_requirement(structure: TwoPartiteDigraph, req: Requirement) -> None:
    pool = set(structure.side(req.side))
    for name, s in (("a", req.a), ("b", req.b), ("c", req.c)):
        unknown = s - pool
        if unknown:
            raise InvalidRequirement(
                f"requirement set {name} names vertices not on side "
                f"{req.side.value}: {sorted(unknown)!r}")
    if req.a & req.b or req.a & req.c or req.b & req.c:
        raise InvalidRequirement("demand sets must be pairwise disjoint")


def brute_witness_scan(structure: TwoPartiteDigraph, req: Requirement,
                       exclude: Iterable[str] = ()) -> str | None:
    """First vertex (in stored order) on the side opposite ``req.side``
    that realizes the demands ``a ⊆ N+(w)``, ``b ⊆ N-(w)`` and
    ``c ⊆ w^perp``.  Vertices listed in ``exclude`` are skipped."""
    _validate_requirement(structure, req)
    skip = set(exclude)
    has_edge = structure.has_edge
    for w in structure.side(req.side.opposite):
        if w in skip:
            continue
        if (all(has_edge(w, u) for u in req.a)
                and all(has_edge(u, w) for u in req.b)
                and not any(has_edge(w, u) or has_edge(u, w) for u in req.c)):
            return w
    return None


def _splits(total: int, mode: Mode) -> Iterator[tuple[int, int, int]]:
    for na in range(total, -1, -1):
        rest = total - na
        for nb in range(rest, -1, -1):
            nc = rest - nb
            if mode is Mode.BIPARTITE and nb:
                continue
            if mode is Mode.TWO_PARTITE and nc:
                continue
            yield (na, nb, nc)


def iter_requirements(left_pool: Sequence[str], right_pool: Sequence[str],
                      level: int, mode: Mode) -> Iterator[Requirement]:
    """All mode-admissible requirements over the given pools with total
    size at most ``level``, in a fixed deterministic order."""
    for side, pool in ((Side.LEFT, tuple(left_pool)), (Side.RIGHT, tuple(right_pool))):
        for total in range(level + 1):
            for (na, nb, nc) in _splits(total, mode):
                for a_set in combinations(pool, na):
                    for b_set in combinations(pool, nb):
                        if any(v in a_set for v in b_set):
                            continue
                        for c_set in combinations(pool, nc):
                            if any(v in a_set or v in b_set for v in c_set):
                                continue
                            yield Requirement(side, frozenset(a_set),
                                              frozenset(b_set), frozenset(c_set))


# -- witness tables ---------------------------------------------------------
#
# For requirements on a given side, witnesses live on the opposite side.
# For each element index i of the requirement side, three bitmaps over
# witness indices say which witnesses would accept i in a / b / c.  The
# opposite side's bitmaps are the transpose: over element indices, they
# say which elements a witness accepts, with a and b exchanged in the
# directed modes (y in N+(x) exactly when x in N-(y)).

def _digraph_tables_by_side(digraph: TwoPartiteDigraph):
    m, n = len(digraph.left), len(digraph.right)
    l_a, l_b, l_c = [0] * m, [0] * m, [0] * m
    r_a, r_b, r_c = [0] * n, [0] * n, [0] * n
    for i, row in enumerate(digraph.pair_states()):
        x_bit = 1 << i
        for j, s in enumerate(row):
            if s == PAIR_RL:      # y_j -> x_i: x_i in N+(y_j), y_j in N-(x_i)
                l_a[i] |= 1 << j
                r_b[j] |= x_bit
            elif s == PAIR_LR:    # x_i -> y_j: x_i in N-(y_j), y_j in N+(x_i)
                l_b[i] |= 1 << j
                r_a[j] |= x_bit
            else:
                l_c[i] |= 1 << j
                r_c[j] |= x_bit
    return {Side.LEFT: (digraph.left, digraph.right, l_a, l_b, l_c),
            Side.RIGHT: (digraph.right, digraph.left, r_a, r_b, r_c)}


# Per mode: the demand slots, and for each the slot of the opposite
# side's table that holds its transpose.  BIPARTITE mode's ``a`` slot is
# adjacency in either direction, so it is its own transpose.
_SLOTS = {
    Mode.TWO_PARTITE: ("a", "b"),
    Mode.BIPARTITE: ("a", "c"),
    Mode.ORIENTATION: ("a", "b", "c"),
}
_COLUMN_SLOTS = {
    Mode.TWO_PARTITE: ("b", "a"),
    Mode.BIPARTITE: ("a", "c"),
    Mode.ORIENTATION: ("b", "a", "c"),
}


def _scan_size(rows: list[list[int]], cols: list[list[int]], pool_size: int,
               wit_count: int, size: int, limit: int | None) -> list[tuple]:
    """Unwitnessed requirements of exactly ``size`` demands, as tuples of
    (element index, slot index) assignments.

    ``rows[t][i]`` is the bitmap of witnesses that accept element ``i`` in
    slot ``t``, and ``cols[t][w]`` its transpose: the bitmap of elements
    that witness ``w`` accepts in slot ``t``.  The scan walks requirement
    prefixes of ``size - 1`` demands and keeps ``pm``, the bitmap of
    witnesses that satisfy the prefix.  A last demand puts an element
    above the prefix into slot ``t``; it fails for exactly the elements in
    ``above & ~OR(cols[t][w] for w in pm)``, and the OR stops once it
    covers ``above``.  A prefix with many surviving witnesses therefore
    costs a few column reads instead of one AND per element.

    Defects come out in a fixed order, which ``limit`` truncates: for
    sizes up to 3 by element tuple, then slot tuple; for larger sizes by
    ``(i, ti, j, tj, ...)``.
    """
    full = (1 << wit_count) - 1
    if size == 0:
        return [()] if full == 0 else []
    slots = range(len(rows))
    everyone = (1 << pool_size) - 1
    by_element = size <= 3
    defects: list[tuple] = []

    def close(group: list, start: int) -> bool:
        # group: (assignment so far, pm) for each slot assignment of one
        # element prefix; returns True once ``limit`` defects are collected
        above = everyone >> start << start
        fails = []
        hit = 0
        for _, pm in group:
            for col in cols:
                rem, ws = above, pm
                while ws and rem:
                    low = ws & -ws
                    rem &= ~col[low.bit_length() - 1]
                    ws ^= low
                fails.append(rem)
                hit |= rem
        while hit:
            low = hit & -hit
            hit ^= low
            last = low.bit_length() - 1
            k = 0
            for assigned, _ in group:
                for t in slots:
                    if fails[k] & low:
                        defects.append(assigned + ((last, t),))
                        if len(defects) == limit:
                            return True
                    k += 1
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


def _kernel_tables(tables_by_side, side: Side, mode: Mode):
    """Pool, witnesses, and the kernel's row and column bitmaps for
    requirements on ``side``."""
    pool, wit, *masks = tables_by_side[side]
    own = _named_masks(masks, mode)
    opposite = _named_masks(tables_by_side[side.opposite][2:], mode)
    return (pool, wit, [own[name] for name in _SLOTS[mode]],
            [opposite[name] for name in _COLUMN_SLOTS[mode]])


def _named_masks(masks, mode: Mode) -> dict[str, list[int]]:
    a, b, c = masks
    if mode is Mode.BIPARTITE:  # adjacency in either direction
        return {"a": [x | y for x, y in zip(a, b)], "c": c}
    return {"a": a, "b": b, "c": c}


# Slot digits of the requirement key: element ``i`` demanded in slot
# ``a``, ``b`` or ``c`` is the digit ``rank``, ``p + rank`` or
# ``2p + rank``, with ``rank`` its position in sorted-id order.
_SLOT_CODES = {"a": 0, "b": 1, "c": 2}


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


def _scan_task(args):
    return _scan_size(*args, limit=None)


def _collect_defects(tables_by_side, level: int, mode: Mode,
                     jobs: int = 1, limit: int | None = None,
                     only_total: int | None = None) -> list[DefectRow]:
    """Unwitnessed requirements as rows, in requirement order.  ``limit``
    cuts the scan order (by side, then size, then kernel order) before the
    rows are sorted."""
    sizes = (only_total,) if only_total is not None else tuple(range(level + 1))
    tasks = []
    for side in (Side.LEFT, Side.RIGHT):
        pool, wit, rows, cols = _kernel_tables(tables_by_side, side, mode)
        for size in sizes:
            tasks.append((side, pool, size, (rows, cols, len(pool), len(wit), size)))

    if jobs > 1 and limit is None:
        with ProcessPoolExecutor(max_workers=jobs) as pool_exec:
            results = list(pool_exec.map(_scan_task, [task[3] for task in tasks]))
    else:
        results = []
        found = 0
        for task in tasks:
            remaining = None if limit is None else limit - found
            if remaining is not None and remaining <= 0:
                break
            results.append(_scan_size(*task[3], limit=remaining))
            found += len(results[-1])

    defects: list[DefectRow] = []
    for (side, pool, size, _), raw in zip(tasks, results):
        defects += _sorted_rows(side, pool, _SLOTS[mode], size, raw)
    return defects


def validate_level(level: int, jobs: int = 1) -> None:
    """Raise ValidationError for a negative level or a worker count
    below 1."""
    if level < 0:
        raise ValidationError(f"extension level must be non-negative, got {level}")
    if jobs < 1:
        raise ValidationError(f"worker count must be at least 1, got {jobs}")


def check_generic_2partite(digraph: TwoPartiteDigraph, level: int,
                           jobs: int = 1) -> GenericityReport:
    """Extension property with successor/predecessor demands.  Also
    requires the underlying graph to be complete; a missing adjacency is
    reported via ``nonadjacent`` and makes the verdict fail."""
    validate_level(level, jobs)
    nonadj = digraph.first_nonadjacent_pair()
    rows = _collect_defects(_digraph_tables_by_side(digraph), level,
                            Mode.TWO_PARTITE, jobs=jobs)
    holds = not rows and nonadj is None
    return GenericityReport(Mode.TWO_PARTITE, level, holds, tuple(rows), nonadj)


def check_generic_orientation(digraph: TwoPartiteDigraph, level: int,
                              jobs: int = 1) -> GenericityReport:
    """Extension property with successor/predecessor/non-neighbour demands."""
    validate_level(level, jobs)
    rows = _collect_defects(_digraph_tables_by_side(digraph), level,
                            Mode.ORIENTATION, jobs=jobs)
    return GenericityReport(Mode.ORIENTATION, level, not rows, tuple(rows))


def check_generic_bipartite(digraph: TwoPartiteDigraph, level: int,
                            jobs: int = 1) -> GenericityReport:
    """Undirected extension property: adjacency/non-adjacency demands,
    where an edge in either direction counts as adjacency."""
    validate_level(level, jobs)
    rows = _collect_defects(_digraph_tables_by_side(digraph), level,
                            Mode.BIPARTITE, jobs=jobs)
    return GenericityReport(Mode.BIPARTITE, level, not rows, tuple(rows))


def first_defect(digraph: TwoPartiteDigraph, level: int, mode: Mode) -> Requirement | None:
    """Cheapest evidence that a level check would fail: the first defect
    in scan order, or None when the level holds.  In TWO_PARTITE mode
    the structural completeness clause is not consulted here."""
    validate_level(level)
    rows = _collect_defects(_digraph_tables_by_side(digraph), level, mode, limit=1)
    return _requirement(rows[0]) if rows else None


def achieved_level(digraph: TwoPartiteDigraph, mode: Mode, max_level: int) -> int:
    """Largest level ``t <= max_level`` at which the extension property
    holds (structural completeness clause included for TWO_PARTITE), or
    -1 when even level 0 fails.  One table build serves every level."""
    validate_level(max_level)
    if mode is Mode.TWO_PARTITE and digraph.first_nonadjacent_pair() is not None:
        return -1
    tables = _digraph_tables_by_side(digraph)
    for total in range(0, max_level + 1):
        if _collect_defects(tables, max_level, mode, limit=1, only_total=total):
            return total - 1
    return max_level
