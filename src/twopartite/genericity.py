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

One kernel serves all three modes and every size.  It reads bitmaps
built from one pass over the pair-state lines, with each pool indexed in
sorted-id order: per element, the witnesses that accept it in each slot,
and per witness, the elements it accepts.  The scan walks requirement
prefixes in report order (the ``a`` demands, then ``b``, then ``c``,
each slot increasing) and keeps the witnesses that survive each prefix.
The failing last demands of a prefix are a Boolean matrix product, so
they come from byte tables in the manner of Arlazarov, Dinic, Kronrod
and Faradzev ("Four Russians"): for each run of 8 witnesses and each
subset of it, the last demands that no witness of the subset accepts,
all slots packed into one integer.  A prefix ANDs one entry per nonzero
byte of its survivor bitmap, and that one read serves every shape that
extends the prefix.  Each shape then reads its own slot's bits as one
*run* of rows that share the prefix, so the runs come out in report
order with no sort, and a limit cuts that order.  A report's ``rows``
and ``defects`` are built from its runs on first access.

A report walks the shape groups: every shape's prefixes, each a shape
minus its last demand, which must sit above the prefix in its own slot.
Asking only whether a defect of one size exists (``_fails``) needs no
order, so from size 3 on that walk lets the last demand be any unused
element in any slot and walks a least-cost cover of prefix shapes: a
prefix shape covers each shape that one more demand gives.  At size 3
that is ``aa`` and ``bb`` for two slots, half the prefixes of the shape
groups.  The walk stops at the first failing prefix, and a report scans
a size in report order only when it fails, so a level that holds is
never scanned in order.  ``achieved_level`` asks one size at a time
across both sides and builds a side's tables when a size first needs
them.  A build attempt only matters if it raises the best level reached
so far, so it asks the one size above that best first and stops there
when that size fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations, compress
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .core import PAIR_LR, PAIR_NONE, PAIR_RL, Side, TwoPartiteDigraph
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
# (side, a, b, c, slot, tails): the rows that extend the prefix (a, b, c)
# by one id of ``tails`` in ``slot`` (0 for a, 1 for b, 2 for c), ``tails``
# ascending.  Empty ``tails`` stand for the prefix itself: the defect of no
# demands, on a side with no witnesses.
DefectRun = tuple[Side, tuple[str, ...], tuple[str, ...], tuple[str, ...], int, tuple[str, ...]]


def _requirement(row: DefectRow) -> Requirement:
    side, a, b, c = row
    return Requirement(side, frozenset(a), frozenset(b), frozenset(c))


def _count(runs: Iterable[DefectRun]) -> int:
    """The number of rows the runs stand for."""
    return sum(len(run[5]) or 1 for run in runs)


def _expand(runs: Iterable[DefectRun]) -> list[DefectRow]:
    """The rows the runs stand for, in order: the one place rows are built."""
    rows: list[DefectRow] = []
    for side, a, b, c, slot, tails in runs:
        if not tails:
            rows.append((side, a, b, c))
        elif slot == 0:
            rows += [(side, a + (z,), b, c) for z in tails]
        elif slot == 1:
            rows += [(side, a, b + (z,), c) for z in tails]
        else:
            rows += [(side, a, b, c + (z,)) for z in tails]
    return rows


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of a level check.  ``holds`` is true iff no requirement
    defect was found and (in TWO_PARTITE mode) the underlying graph is
    complete; ``nonadjacent`` carries a witnessing non-adjacent pair when
    completeness fails.

    ``runs`` holds the defects as the scan emits them (``DefectRun``) and
    ``count`` their number.  ``rows`` expands the runs, on first access,
    into ``(side, a, b, c)`` rows of sorted id tuples in report order: by
    side, then total size, then shape (larger ``a`` first, then smaller
    ``c``), then the sorted ids of ``a``, ``b`` and ``c``.  ``defects`` is
    the same list as :class:`Requirement` objects, built from ``rows`` on
    first access."""

    mode: Mode
    level: int
    holds: bool
    runs: tuple[DefectRun, ...]
    nonadjacent: tuple[str, str] | None = None

    @property
    def count(self) -> int:
        return _count(self.runs)

    @cached_property
    def rows(self) -> tuple[DefectRow, ...]:
        return tuple(_expand(self.runs))

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


# -- kernel tables ----------------------------------------------------------
#
# Requirements on a side draw their demands from that side's *pool* and
# find their witnesses on the opposite side.  One pass over the pair-state
# matrix gives, per vertex, the bitmap of the opposite vertices whose pair
# with it is in a given set of states.  A side's bitmaps serve as its
# kernel's rows and, transposed, as the opposite kernel's columns.

_STATES = bytes((PAIR_NONE, PAIR_LR, PAIR_RL))
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")

# Per mode, the demand slots in report order, each as the position of its
# ids in a report row: 0 for a, 1 for b, 2 for c.
_SLOTS = {
    Mode.TWO_PARTITE: (0, 1),
    Mode.BIPARTITE: (0, 2),
    Mode.ORIENTATION: (0, 1, 2),
}


def _slot_states(side: Side, mode: Mode) -> list[tuple[int, ...]]:
    """Per demand slot, the pair states (left vertex first) under which a
    witness accepts an element of ``side`` there.  An ``a`` demand is a
    successor of the witness, so on the left it needs the pair oriented
    right to left; BIPARTITE mode's ``a`` is adjacency in either
    direction."""
    into, out_of = (PAIR_RL, PAIR_LR) if side is Side.LEFT else (PAIR_LR, PAIR_RL)
    accepts = ((PAIR_LR, PAIR_RL) if mode is Mode.BIPARTITE else (into,), (out_of,), (PAIR_NONE,))
    return [accepts[code] for code in _SLOTS[mode]]


def _kernel_inputs(left: Sequence[str], right: Sequence[str], matrix, mode: Mode,
                   originals: dict[Side, int] | None = None) -> list[tuple]:
    """Per side of the structure with these sides and pair-state rows
    (tuples or bytes), left first: ``(side, mode, pool, rows, cols)``, where
    ``rows[t][i]`` is the bitmap of witnesses that accept pool element
    ``i`` in slot ``t`` and ``cols[t][w]`` that of the side's vertices that
    witness ``w`` accepts there.

    Each side's vertices are indexed pool first, the pool sorted by id, so
    that ascending pool indices are ascending ids.  ``originals`` cuts each
    pool to the side's first vertices in stored order, which are the
    original vertices of a closure; the vertices past the cut follow as
    witnesses only."""
    pools, orders = {}, {}
    for side, ids in ((Side.LEFT, left), (Side.RIGHT, right)):
        cut = len(ids) if originals is None else originals[side]
        pool = sorted(range(cut), key=ids.__getitem__)
        pools[side] = tuple(ids[i] for i in pool)
        orders[side] = [*pool, *range(cut, len(ids))]
    # permute the pair-state lines, not the bitmaps built from them: join
    # the picked rows, slice out the picked columns and slice them back
    m, n = len(matrix), len(orders[Side.RIGHT])
    flat = b"".join(bytes(matrix[i]) for i in orders[Side.LEFT])
    columns = [flat[j::n] for j in orders[Side.RIGHT]]
    flat = b"".join(columns)
    lines = [flat[i::m] for i in range(m)]
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


# Witnesses per table: each run of _CHUNK witnesses gets a table of
# 2**_CHUNK entries, indexed by one byte of a survivor bitmap.
_CHUNK = 8


def _kernel(side: Side, mode: Mode, pool: tuple[str, ...], rows, cols) -> tuple:
    """Everything the scan reads for requirements on ``side``: the side,
    the mode, the pool, the number of witnesses, the rows and the tables.
    Per run of ``_CHUNK`` witnesses, a table indexed by a subset of the run
    (bit ``r`` for its ``r``-th witness) holds the last demands that no
    witness of the subset accepts, slot ``t`` packed at bit offset
    ``t * len(pool)``.  Each column is masked to the pool first: a cut pool
    (``witness_closure``) leaves bits above it that would land in the next
    slot."""
    p = len(pool)
    everyone = (1 << p) - 1
    packed_everyone = everyone * sum(1 << t * p for t in range(len(cols)))
    refused = [packed_everyone ^ sum((col[w] & everyone) << t * p for t, col in enumerate(cols))
               for w in range(len(cols[0]))]
    tables = []
    for base in range(0, len(refused), _CHUNK):
        table = [packed_everyone]
        for mask in refused[base:base + _CHUNK]:
            table += [entry & mask for entry in table]
        tables.append(table)
    return (side, mode, pool, len(refused), rows, tables)


# -- the scan -----------------------------------------------------------------


@lru_cache(maxsize=64)
def _shape_groups(size: int, mode: Mode) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The shapes of ``size >= 1`` demands in ``_splits`` order, grouped by
    the prefix they share: ``(prefix, lasts)``, where ``prefix`` lists the
    slot of each prefix demand and ``lasts`` the slots of the last demand.
    A shape's last demand sits in its last nonempty slot, so the shapes of
    one prefix are consecutive."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for split in _splits(size, mode):
        counts = [split[code] for code in _SLOTS[mode]]
        last = max(t for t, n in enumerate(counts) if n)
        counts[last] -= 1
        prefix = tuple(t for t, n in enumerate(counts) for _ in range(n))
        groups.setdefault(prefix, []).append(last)
    return tuple((prefix, tuple(lasts)) for prefix, lasts in groups.items())


@lru_cache(maxsize=64)
def _allowed(p: int, slots: int, s: int) -> tuple[int, ...]:
    """Per last prefix element ``x`` in slot ``s``, the last demands that may
    follow it, packed: slot ``s`` above ``x``, and every later slot but
    ``x``."""
    everyone = (1 << p) - 1
    later_spread = sum(1 << t * p for t in range(s + 1, slots))
    later = everyone * later_spread
    return tuple((everyone ^ ((2 << x) - 1)) << s * p | later ^ later_spread << x
                 for x in range(p))


@lru_cache(maxsize=64)
def _anywhere(p: int, slots: int) -> tuple[int, ...]:
    """``_allowed`` for an existence walk: per last prefix element ``x``,
    every element but ``x`` in every slot, packed."""
    spread = sum(1 << t * p for t in range(slots))
    return tuple(((1 << p) - 1) * spread ^ spread << x for x in range(p))


def _weight(prefix: tuple[int, ...]) -> int:
    """The prefixes of a prefix shape, up to a factor common to its size:
    the multinomial ``len(prefix)! / prod(n_slot!)`` of its slot counts."""
    return factorial(len(prefix)) // prod(factorial(prefix.count(t)) for t in set(prefix))


def _cover(size: int, mode: Mode) -> tuple[tuple[int, ...], ...]:
    """Prefix shapes of ``size - 1 >= 0`` demands, as ``_shape_groups``
    lists them, such that one more demand in some slot gives every shape
    of ``size``: a greedy weighted set cover (Chvátal), each prefix shape
    weighted by ``_weight`` and the first of a tie in ``_splits`` order
    taken."""
    slots = len(_SLOTS[mode])
    covers = {}
    for split in _splits(size - 1, mode):
        prefix = tuple(t for t, code in enumerate(_SLOTS[mode]) for _ in range(split[code]))
        covers[prefix] = {tuple(sorted(prefix + (t,))) for t in range(slots)}
    weights = {prefix: _weight(prefix) for prefix in covers}
    uncovered = set().union(*covers.values())
    cover = []
    while uncovered:
        best = min((prefix for prefix in covers if covers[prefix] & uncovered),
                   key=lambda prefix: weights[prefix] / len(covers[prefix] & uncovered))
        cover.append(best)
        uncovered -= covers[best]
    return tuple(cover)


@lru_cache(maxsize=64)
def _existence_walk(size: int, mode: Mode) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """The prefix shapes ``_fails`` walks for ``size >= 1``, and whether
    their last demands may be any unused element: the cover when it weighs
    less than the shape groups' prefixes, else those prefixes, whose
    tighter ``_allowed`` masks empty sooner."""
    groups = tuple(prefix for prefix, _ in _shape_groups(size, mode))
    cover = _cover(size, mode)
    if sum(map(_weight, cover)) < sum(map(_weight, groups)):
        return cover, True
    return groups, False


def _failing_prefixes(kernel: tuple, prefix: tuple[int, ...],
                      allow: tuple[int, ...]) -> Iterator[tuple]:
    """Prefixes with the given slots that some allowed last demand fails,
    in report order: ``(indices, fails)``, with ``fails`` the failing last
    demands of every slot packed as in the tables of ``_kernel``.

    Each slot's elements increase and avoid the earlier slots' elements.
    The scan keeps ``pm``, the bitmap of witnesses that satisfy the
    prefix.  ``allow[x]`` packs the last demands that may follow a last
    prefix element ``x``: ``_allowed`` for a report, which lists each
    requirement once, and ``_anywhere`` for an existence walk.  Elements of
    the prefix are never last demands.  Those that fail are the ones no
    survivor accepts: the AND of one table entry per nonzero byte of
    ``pm``, which stops once nothing is left.  So a prefix costs a few
    table reads for all its last demands at once."""
    _, _, pool, wit_count, rows, tables = kernel
    p = len(pool)
    everyone = (1 << p) - 1
    spread = sum(1 << t * p for t in range(len(rows)))
    packed_everyone = everyone * spread
    width = len(tables)
    full = (1 << wit_count) - 1
    if not prefix:
        rem = packed_everyone
        for table, byte in zip(tables, full.to_bytes(width, "little")):
            rem &= table[byte]
        if rem:
            yield (), rem
        return
    deepest = len(prefix) - 1

    def walk(depth: int, start: int, pm: int, used: int, chosen: tuple) -> Iterator[tuple]:
        row = rows[prefix[depth]]
        if depth == deepest:
            keep = packed_everyone ^ used * spread
            for x in range(start, p):
                if used >> x & 1:
                    continue
                rem = allow[x] & keep
                for table, byte in zip(tables, (pm & row[x]).to_bytes(width, "little")):
                    if byte:
                        rem &= table[byte]
                        if not rem:
                            break
                if rem:
                    yield chosen + (x,), rem
            return
        same = prefix[depth + 1] == prefix[depth]
        for x in range(start, p):
            if not used >> x & 1:
                yield from walk(depth + 1, x + 1 if same else 0, pm & row[x],
                                used | 1 << x, chosen + (x,))

    yield from walk(0, 0, full, 0, ())


def _scan(kernel: tuple, size: int, limit: int | None = None) -> list[DefectRun]:
    """Unwitnessed requirements of exactly ``size`` demands, as runs in
    report order, cut to the first ``limit`` rows: the last run kept may
    be shortened.

    Each group of shapes walks its prefixes once.  Then each shape reads
    its own slot of every failing prefix's packed fails: prefixes come in
    order and a slot's bits are its last demands in ascending id order, so
    the runs come out sorted."""
    side, mode, pool, wit_count, rows, _ = kernel
    if size == 0:
        return [] if wit_count else [(side, (), (), (), 0, ())]
    p = len(pool)
    everyone = (1 << p) - 1
    codes = _SLOTS[mode]
    runs: list[DefectRun] = []
    room = limit   # rows left before the limit
    for prefix, lasts in _shape_groups(size, mode):
        # the prefix's ids of slots a, b and c end at these positions
        ends = [sum(codes[t] <= code for t in prefix) for code in range(3)]
        found = []
        first_count = 0
        allow = _allowed(p, len(rows), prefix[-1]) if prefix else ()
        for chosen, rem in _failing_prefixes(kernel, prefix, allow):
            ids = tuple(pool[i] for i in chosen)
            found.append((ids[:ends[0]], ids[ends[0]:ends[1]], ids[ends[1]:], rem))
            if room is not None:
                # the group's first shape alone fills the room
                first_count += (rem >> lasts[0] * p & everyone).bit_count()
                if first_count >= room:
                    break
        for last in lasts:
            shift, code = last * p, codes[last]
            for a, b, c, rem in found:
                bits = rem >> shift & everyone
                if bits:
                    runs.append((side, a, b, c, code, tuple(compress(
                        pool, bin(bits)[:1:-1].encode().translate(_ZERO_ONE)))[:room]))
                    if room is not None:
                        room -= bits.bit_count()
                        if room <= 0:
                            return runs
    return runs


def _fails(kernel: tuple, size: int) -> bool:
    """Whether some requirement of exactly ``size`` demands is unwitnessed."""
    _, mode, pool, wit_count, rows, _ = kernel
    if size == 0:
        return not wit_count
    p, slots = len(pool), len(rows)
    prefixes, anywhere = _existence_walk(size, mode)
    for prefix in prefixes:
        allow = (_anywhere(p, slots) if anywhere
                 else _allowed(p, slots, prefix[-1]) if prefix else ())
        if any(_failing_prefixes(kernel, prefix, allow)):
            return True
    return False


def _collect_defects(inputs: list[tuple], level: int,
                     limit: int | None = None) -> list[DefectRun]:
    """Unwitnessed requirements as runs, in report order, cut to the first
    ``limit`` rows.  ``inputs`` is ``_kernel_inputs`` output.  No
    requirement has more demands than its pool has elements, and only a
    size that fails is scanned in report order."""
    runs: list[DefectRun] = []
    for side_inputs in inputs:
        kernel = _kernel(*side_inputs)
        for size in range(min(level, len(side_inputs[2])) + 1):
            rest = None if limit is None else limit - _count(runs)
            if rest == 0:
                return runs
            if _fails(kernel, size):
                runs += _scan(kernel, size, rest)
    return runs


def validate_level(level: int) -> None:
    """Raise ValidationError for a negative level."""
    if level < 0:
        raise ValidationError(f"extension level must be non-negative, got {level}")


def _defect_runs(digraph: TwoPartiteDigraph, mode: Mode, level: int,
                 limit: int | None = None) -> list[DefectRun]:
    """``_collect_defects`` over all of ``digraph``, ``level`` validated."""
    validate_level(level)
    inputs = _kernel_inputs(digraph.left, digraph.right, digraph.pair_states(), mode)
    return _collect_defects(inputs, level, limit)


def check_generic_2partite(digraph: TwoPartiteDigraph, level: int) -> GenericityReport:
    """Extension property with successor/predecessor demands.  Also
    requires the underlying graph to be complete; a missing adjacency is
    reported via ``nonadjacent`` and makes the verdict fail."""
    nonadj = digraph.first_nonadjacent_pair()
    runs = _defect_runs(digraph, Mode.TWO_PARTITE, level)
    holds = not runs and nonadj is None
    return GenericityReport(Mode.TWO_PARTITE, level, holds, tuple(runs), nonadj)


def check_generic_orientation(digraph: TwoPartiteDigraph, level: int) -> GenericityReport:
    """Extension property with successor/predecessor/non-neighbour demands."""
    runs = _defect_runs(digraph, Mode.ORIENTATION, level)
    return GenericityReport(Mode.ORIENTATION, level, not runs, tuple(runs))


def check_generic_bipartite(digraph: TwoPartiteDigraph, level: int) -> GenericityReport:
    """Undirected extension property: adjacency/non-adjacency demands,
    where an edge in either direction counts as adjacency."""
    runs = _defect_runs(digraph, Mode.BIPARTITE, level)
    return GenericityReport(Mode.BIPARTITE, level, not runs, tuple(runs))


def first_defect(digraph: TwoPartiteDigraph, level: int, mode: Mode) -> Requirement | None:
    """Cheapest evidence that a level check would fail: the report's first
    defect, or None when the level holds.  In TWO_PARTITE mode
    the structural completeness clause is not consulted here."""
    runs = _defect_runs(digraph, mode, level, limit=1)
    return _requirement(_expand(runs)[0]) if runs else None


def _attempt_level(left: Sequence[str], right: Sequence[str], matrix, mode: Mode,
                   level: int, best: int) -> int:
    """``achieved_level`` of the structure with these sides and pair-state
    rows when it exceeds ``best``, else some level at most ``best``.  Size
    ``best + 1`` is asked first, so a build attempt that cannot raise
    ``best`` costs that one size; one that passes it asks the smaller
    sizes, then the larger, so a level it reports above ``best`` is exact.
    A side's tables are built when a size first needs them, and no size
    past the larger pool adds a requirement."""
    if mode is Mode.TWO_PARTITE and any(PAIR_NONE in row for row in matrix):
        return -1
    inputs = _kernel_inputs(left, right, matrix, mode)
    kernel = cache(lambda i: _kernel(*inputs[i]))
    for size in sorted(range(min(level, max(len(side[2]) for side in inputs)) + 1),
                       key=(best + 1).__ne__):
        if any(_fails(kernel(i), size) for i in (0, 1)):
            return size - 1
    return level


def achieved_level(digraph: TwoPartiteDigraph, mode: Mode, max_level: int) -> int:
    """Largest level ``t <= max_level`` at which the extension property
    holds (structural completeness clause included for TWO_PARTITE), or
    -1 when even level 0 fails."""
    validate_level(max_level)
    return _attempt_level(digraph.left, digraph.right, digraph.pair_states(), mode,
                          max_level, -1)
