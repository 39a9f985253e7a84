"""Constructors for the structure classes and their finite approximants.

The fixed families (complete, empty, matching, complement of matching,
and the matching/complement pair) are built exactly.  The generic
families only exist as infinite structures, so their builders produce
finite *approximants*: randomized structures verified to satisfy the
extension property at a requested level, retried with fresh draws from
the seeded stream until verification passes or the attempt budget runs
out.  ``witness_closure`` is the deterministic alternative: it grows a
structure by adding explicit witnesses for every requirement over the
original vertex set.

A rough calibration for the randomized builders (probability 1/2 per
direction, 1/3 per pair state): a level-1 check needs side sizes around
16-32, level 2 around 48 (two-state modes) or 128 (three-state), level 3
around 160 (two-state).  Requested levels beyond what the side size can
carry fail with ApproximantNotFound; the builder never silently lowers
the level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .core import PAIR_LR, PAIR_NONE, PAIR_RL, Side, TwoPartiteDigraph, _assemble, _index, build
from .errors import (
    ApproximantNotFound,
    CapExceeded,
    InvalidSpec,
    PairSizeTooSmall,
    ValidationError,
)
from .genericity import (
    DefectRow,
    Mode,
    _collect_defects,
    _digraph_tables_by_side,
    _requirement,
    achieved_level,
    validate_level,
)

MAX_BUILD_ATTEMPTS = 32


class Direction(Enum):
    LEFT_TO_RIGHT = "left_to_right"
    RIGHT_TO_LEFT = "right_to_left"

    @property
    def reversed(self) -> "Direction":
        if self is Direction.LEFT_TO_RIGHT:
            return Direction.RIGHT_TO_LEFT
        return Direction.LEFT_TO_RIGHT


def _ids(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _oriented(x: str, y: str, direction: Direction) -> tuple[str, str]:
    return (x, y) if direction is Direction.LEFT_TO_RIGHT else (y, x)


def _check_sizes(*sizes: int) -> None:
    for size in sizes:
        if size < 0:
            raise InvalidSpec(f"side size must be non-negative, got {size}")


def complete_bipartite_digraph(m: int, n: int,
                               direction: Direction = Direction.LEFT_TO_RIGHT) -> TwoPartiteDigraph:
    """All m*n edges present, all in one direction."""
    _check_sizes(m, n)
    left, right = _ids("x", m), _ids("y", n)
    return build(left, right, [_oriented(x, y, direction) for x in left for y in right])


def empty_digraph(m: int, n: int) -> TwoPartiteDigraph:
    """No edges at all."""
    _check_sizes(m, n)
    return build(_ids("x", m), _ids("y", n), [])


def matching_digraph(n: int, direction: Direction = Direction.LEFT_TO_RIGHT) -> TwoPartiteDigraph:
    """A perfect matching x_i ~ y_i, oriented one way."""
    _check_sizes(n)
    left, right = _ids("x", n), _ids("y", n)
    return build(left, right, [_oriented(left[i], right[i], direction) for i in range(n)])


def complement_matching_digraph(n: int,
                                direction: Direction = Direction.LEFT_TO_RIGHT) -> TwoPartiteDigraph:
    """All cross pairs except the matching x_i ~ y_i; n(n-1) edges."""
    if n < 1:
        raise InvalidSpec("complement of a matching needs side size >= 1")
    left, right = _ids("x", n), _ids("y", n)
    edges = [_oriented(left[i], right[j], direction)
             for i in range(n) for j in range(n) if i != j]
    return build(left, right, edges)


def matching_complement_pair(size: int,
                             matching_direction: Direction = Direction.LEFT_TO_RIGHT,
                             ) -> TwoPartiteDigraph:
    """Equal sides; the matching x_i ~ y_i oriented one way and its
    bipartite complement oriented the other, so the underlying graph is
    complete bipartite.  Needs size >= 2."""
    if size < 2:
        raise PairSizeTooSmall(f"need size >= 2, got {size}")
    left, right = _ids("x", size), _ids("y", size)
    edges = [_oriented(left[i], right[i], matching_direction) for i in range(size)]
    rev = matching_direction.reversed
    edges += [_oriented(left[i], right[j], rev)
              for i in range(size) for j in range(size) if i != j]
    return build(left, right, edges)


@dataclass(frozen=True)
class ApproximantSpec:
    """Parameters for the finite-stage generic builders."""

    side_size: int
    level: int
    seed: int
    growth_cap: int = 64

    def __post_init__(self):
        if self.side_size < 1:
            raise InvalidSpec("side_size must be positive")
        if self.level < 0:
            raise InvalidSpec("level must be nonnegative")
        if self.level > self.side_size:
            raise InvalidSpec(
                f"level {self.level} exceeds side_size {self.side_size}: a demand "
                "can never be larger than the opposite side")
        if self.growth_cap < 1:
            raise InvalidSpec("growth_cap must be positive")


def _randomized_build(spec: ApproximantSpec, mode: Mode, draw):
    """Shared retry loop: ``draw(rng)`` produces a candidate, and one
    level scan per attempt both accepts it and records how far it got.
    All attempts consume one seeded stream, so identical specs reproduce
    identical outputs."""
    rng = random.Random(spec.seed)
    best = -1
    for _ in range(MAX_BUILD_ATTEMPTS):
        candidate = draw(rng)
        reached = achieved_level(candidate, mode, spec.level)
        if reached == spec.level:
            return candidate
        best = max(best, reached)
    raise ApproximantNotFound(
        f"no attempt out of {MAX_BUILD_ATTEMPTS} reached level {spec.level} "
        f"at side size {spec.side_size} (best level achieved: {best})", best)


def generic_bipartite_approx(spec: ApproximantSpec,
                             direction: Direction = Direction.LEFT_TO_RIGHT) -> TwoPartiteDigraph:
    """Random bipartite digraph (each cross pair adjacent with probability
    1/2, all edges oriented ``direction``) whose underlying graph passes
    the undirected extension check at ``spec.level``."""
    n = spec.side_size
    left, right = _ids("x", n), _ids("y", n)
    row_of, col_of = _index(left), _index(right)
    edge = PAIR_LR if direction is Direction.LEFT_TO_RIGHT else PAIR_RL

    def draw(rng: random.Random) -> TwoPartiteDigraph:
        matrix = [[edge if rng.getrandbits(1) else PAIR_NONE for _ in right] for _ in left]
        return _assemble(left, right, matrix, row_of, col_of)

    return _randomized_build(spec, Mode.BIPARTITE, draw)


def generic_2partite_approx(spec: ApproximantSpec) -> TwoPartiteDigraph:
    """Complete underlying graph, each pair independently oriented with
    probability 1/2, verified at ``spec.level``."""
    n = spec.side_size
    left, right = _ids("x", n), _ids("y", n)
    row_of, col_of = _index(left), _index(right)

    def draw(rng: random.Random) -> TwoPartiteDigraph:
        matrix = [[PAIR_LR if rng.getrandbits(1) else PAIR_RL for _ in right] for _ in left]
        return _assemble(left, right, matrix, row_of, col_of)

    return _randomized_build(spec, Mode.TWO_PARTITE, draw)


def generic_orientation_approx(spec: ApproximantSpec) -> TwoPartiteDigraph:
    """Each cross pair independently one of {->, <-, nonadjacent} with
    probability 1/3 each, verified at ``spec.level``."""
    n = spec.side_size
    left, right = _ids("x", n), _ids("y", n)
    row_of, col_of = _index(left), _index(right)

    def draw(rng: random.Random) -> TwoPartiteDigraph:
        # randrange(3) is PAIR_NONE, PAIR_LR or PAIR_RL
        matrix = [[rng.randrange(3) for _ in right] for _ in left]
        return _assemble(left, right, matrix, row_of, col_of)

    return _randomized_build(spec, Mode.ORIENTATION, draw)


def _fresh_names(taken: set[str], count: int) -> list[str]:
    names = []
    i = 1
    while len(names) < count:
        name = f"w{i}"
        if name not in taken:
            names.append(name)
            taken.add(name)
        i += 1
    return names


def witness_closure(digraph: TwoPartiteDigraph, mode: Mode, level: int,
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
        # (original) vertices scans exactly the requirements over them
        tables = {side: (pool[:originals[side]], *rest)
                  for side, (pool, *rest) in _digraph_tables_by_side(current).items()}
        rows = _collect_defects(tables, level, mode)
        if not rows:
            return current
        if added >= cap:
            raise CapExceeded(
                f"closure needs more than {cap} added vertices "
                f"({len(rows)} requirements still unwitnessed)",
                current, map(_requirement, rows))
        batch = rows[:cap - added]
        current = _add_witnesses(current, batch, mode, bip_direction)
        added += len(batch)


def _add_witnesses(current: TwoPartiteDigraph, batch: list[DefectRow],
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
