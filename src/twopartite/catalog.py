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
    _count,
    _expand,
    _kernel_inputs,
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

    def __post_init__(self):
        if self.side_size < 1:
            raise InvalidSpec(f"side size must be positive, got {self.side_size}")
        if self.level < 0:
            raise InvalidSpec(f"level must be non-negative, got {self.level}")
        if self.level > self.side_size:
            raise InvalidSpec(
                f"level {self.level} exceeds side_size {self.side_size}: a demand "
                "can never be larger than the opposite side")
        if self.seed < 0:
            # Random(-s) seeds like Random(s), so a negative seed would
            # silently repeat another seed's output
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")


# The randomized builders draw a whole matrix from a few wide calls.
# CPython's ``getrandbits(k)`` gives, for k <= 32, the top k bits of one
# 32-bit Mersenne Twister word, and for k = 32 * c the next c words
# packed lowest first (``_random_Random_getrandbits_impl`` in
# Modules/_randommodule.c).  So the top byte of each word of one
# ``getrandbits(32 * c)`` call holds what c calls of ``getrandbits(1)``
# or ``getrandbits(2)`` would return, and the stream advances by the same
# c words.  ``bytes.translate`` turns those top bytes into pair states.

def _top_bytes(rng: random.Random, count: int) -> bytes:
    """The top byte of each of the next ``count`` words of ``rng``."""
    return rng.getrandbits(32 * count).to_bytes(4 * count, "little")[3::4]


def _bit_table(zero: int, one: int) -> bytes:
    """Top byte -> pair state by its top bit, the word's ``getrandbits(1)``."""
    return bytes(one if b >> 7 else zero for b in range(256))


_BIPARTITE_STATES = {Direction.LEFT_TO_RIGHT: _bit_table(PAIR_NONE, PAIR_LR),
                     Direction.RIGHT_TO_LEFT: _bit_table(PAIR_NONE, PAIR_RL)}
_TWO_PARTITE_STATES = _bit_table(PAIR_RL, PAIR_LR)
# a word's getrandbits(2) is its top byte's top two bits; randrange(3)
# rejects 3, which is a top byte of 0xC0 or more, and draws again
_ORIENTATION_STATES = bytes(b >> 6 for b in range(256))
_REJECTED = bytes(range(0xC0, 0x100))


def _rows(states: bytes, n: int) -> list[bytes]:
    return [states[i:i + n] for i in range(0, n * n, n)]


def _two_state_rows(rng: random.Random, n: int, table: bytes) -> list[bytes]:
    """An n-by-n matrix from one word per pair, mapped through ``table``."""
    return _rows(_top_bytes(rng, n * n).translate(table), n)


def _orientation_rows(rng: random.Random, n: int) -> list[bytes]:
    """An n-by-n matrix from the word stream of ``randrange(3)`` per pair."""
    states = b""
    while len(states) < n * n:
        # one word per missing state: a word gives at most one, so this
        # never draws past the word that gives the last state
        states += _top_bytes(rng, n * n - len(states)).translate(
            _ORIENTATION_STATES, _REJECTED)
    return _rows(states, n)


def _randomized_build(spec: ApproximantSpec, mode: Mode, draw):
    """Shared retry loop: ``draw(rng, n)`` gives the rows of a candidate's
    pair-state matrix, and one level scan per attempt both accepts it and
    records how far it got.  All attempts consume one seeded stream, so
    identical specs reproduce identical outputs."""
    n = spec.side_size
    left, right = _ids("x", n), _ids("y", n)
    row_of, col_of = _index(left), _index(right)
    rng = random.Random(spec.seed)
    best = -1
    for _ in range(MAX_BUILD_ATTEMPTS):
        candidate = _assemble(left, right, draw(rng, n), row_of, col_of)
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
    table = _BIPARTITE_STATES[direction]
    return _randomized_build(spec, Mode.BIPARTITE,
                             lambda rng, n: _two_state_rows(rng, n, table))


def generic_2partite_approx(spec: ApproximantSpec) -> TwoPartiteDigraph:
    """Complete underlying graph, each pair independently oriented with
    probability 1/2, verified at ``spec.level``."""
    return _randomized_build(spec, Mode.TWO_PARTITE,
                             lambda rng, n: _two_state_rows(rng, n, _TWO_PARTITE_STATES))


def generic_orientation_approx(spec: ApproximantSpec) -> TwoPartiteDigraph:
    """Each cross pair independently one of {->, <-, nonadjacent} with
    probability 1/3 each, verified at ``spec.level``."""
    return _randomized_build(spec, Mode.ORIENTATION, _orientation_rows)


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
