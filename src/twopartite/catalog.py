"""Constructors for the structure classes and their finite approximants.

Every constructor assembles the pair-state matrix; none writes an edge
list.  The fixed families (complete, empty, matching, complement of
matching, and the matching/complement pair) are built exactly.  The
generic families only exist as infinite structures, so their builders
produce finite *approximants*: randomized structures verified to satisfy
the extension property at a requested level, retried with fresh draws
from the seeded stream until verification passes or the attempt budget
runs out.  ``witness_closure`` is the deterministic alternative: it grows a
structure by appending a row or column per witness until every
requirement over the original vertex set has one.

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

from .core import FLIPPED, PAIR_LR, PAIR_NONE, PAIR_RL, Side, TwoPartiteDigraph, _assemble, _index
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
    _attempt_level,
    _collect_defects,
    _count,
    _expand,
    _kernel_inputs,
    _requirement,
    validate_level,
)

MAX_BUILD_ATTEMPTS = 32

# The largest side ``_grid`` and ``ApproximantSpec`` take: a larger one is
# refused before its ids and matrix are built, which could exhaust memory.
MAX_SIDE = 1024


class Direction(Enum):
    LEFT_TO_RIGHT = "left_to_right"
    RIGHT_TO_LEFT = "right_to_left"


# the pair state of an edge in each direction
_STATE = {Direction.LEFT_TO_RIGHT: PAIR_LR, Direction.RIGHT_TO_LEFT: PAIR_RL}


def _ids(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _grid(m: int, n: int, state) -> TwoPartiteDigraph:
    """Sides x1..xm and y1..yn, the pair (x_i, y_j) in ``state(i, j)``."""
    _check_sizes(m, n)
    left, right = _ids("x", m), _ids("y", n)
    matrix = [[state(i, j) for j in range(n)] for i in range(m)]
    return _assemble(left, right, matrix, _index(left), _index(right))


def _check_sizes(*sizes: int) -> None:
    for size in sizes:
        if size < 0:
            raise InvalidSpec(f"side size must be non-negative, got {size}")
        if size > MAX_SIDE:
            raise InvalidSpec(f"side size {size} exceeds the bound {MAX_SIDE}")


def complete_bipartite_digraph(m: int, n: int,
                               direction: Direction = Direction.LEFT_TO_RIGHT) -> TwoPartiteDigraph:
    """All m*n edges present, all in one direction."""
    state = _STATE[direction]
    return _grid(m, n, lambda i, j: state)


def empty_digraph(m: int, n: int) -> TwoPartiteDigraph:
    """No edges at all."""
    return _grid(m, n, lambda i, j: PAIR_NONE)


def matching_digraph(n: int, direction: Direction = Direction.LEFT_TO_RIGHT) -> TwoPartiteDigraph:
    """A perfect matching x_i ~ y_i, oriented one way."""
    state = _STATE[direction]
    return _grid(n, n, lambda i, j: state if i == j else PAIR_NONE)


def complement_matching_digraph(n: int,
                                direction: Direction = Direction.LEFT_TO_RIGHT) -> TwoPartiteDigraph:
    """All cross pairs except the matching x_i ~ y_i; n(n-1) edges."""
    if n < 1:
        raise InvalidSpec("complement of a matching needs side size >= 1")
    state = _STATE[direction]
    return _grid(n, n, lambda i, j: PAIR_NONE if i == j else state)


def matching_complement_pair(size: int,
                             matching_direction: Direction = Direction.LEFT_TO_RIGHT,
                             ) -> TwoPartiteDigraph:
    """Equal sides; the matching x_i ~ y_i oriented one way and its
    bipartite complement oriented the other, so the underlying graph is
    complete bipartite.  Needs size >= 2."""
    if size < 2:
        raise PairSizeTooSmall(f"need size >= 2, got {size}")
    state = _STATE[matching_direction]
    return _grid(size, size, lambda i, j: state if i == j else FLIPPED[state])


@dataclass(frozen=True)
class ApproximantSpec:
    """Parameters for the finite-stage generic builders; ``side_size``
    is at most ``MAX_SIDE``."""

    side_size: int
    level: int
    seed: int

    def __post_init__(self):
        if self.side_size < 1:
            raise InvalidSpec(f"side size must be positive, got {self.side_size}")
        _check_sizes(self.side_size)
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


_BIPARTITE_STATES = {d: _bit_table(PAIR_NONE, state) for d, state in _STATE.items()}
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
    pair-state matrix.  An attempt matters only if it reaches
    ``spec.level`` or raises the best level so far, so it is asked the one
    size above that best first and dropped when that size fails; only the
    accepted attempt is assembled into a digraph.  All attempts consume one
    seeded stream, so identical specs reproduce identical outputs."""
    n = spec.side_size
    left, right = _ids("x", n), _ids("y", n)
    rng = random.Random(spec.seed)
    best = -1
    for _ in range(MAX_BUILD_ATTEMPTS):
        rows = draw(rng, n)
        reached = _attempt_level(left, right, rows, mode, spec.level, best)
        if reached == spec.level:
            return _assemble(left, right, rows, _index(left), _index(right))
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
    # in bipartite mode, new edges follow the input's one direction
    bip_state = PAIR_RL if any(PAIR_RL in row for row in digraph.matrix) else PAIR_LR

    originals = {Side.LEFT: len(digraph.left), Side.RIGHT: len(digraph.right)}
    current = digraph
    added = 0
    while True:
        # witnesses are appended, so cutting each side's pool to its first
        # (original) vertices scans exactly the requirements over them; the
        # scan stops at one batch of rows, and at the cap reports them all
        inputs = _kernel_inputs(current.left, current.right, current.pair_states(), mode,
                                originals)
        runs = _collect_defects(inputs, level, None if added >= cap else cap - added)
        if not runs:
            return current
        if added >= cap:
            raise CapExceeded(
                f"closure needs more than {cap} added vertices "
                f"({_count(runs)} requirements still unwitnessed)",
                current, map(_requirement, _expand(runs)))
        batch = _expand(runs)
        current = _add_witnesses(current, batch, mode, bip_state)
        added += len(batch)


def _add_witnesses(current: TwoPartiteDigraph, batch: list[DefectRow],
                   mode: Mode, bip_state: int) -> TwoPartiteDigraph:
    """``current`` with one witness per row of ``batch``, in batch order:
    a row of the matrix for a witness on the left, a column for one on
    the right.  Pairs no requirement constrains, new witnesses with each
    other included, get PAIR_LR in TWO_PARTITE mode, which keeps the
    underlying graph complete, and PAIR_NONE otherwise."""
    default = PAIR_LR if mode is Mode.TWO_PARTITE else PAIR_NONE
    new_left, new_right = [], []   # each witness's id and its constrained cells
    for (side, a, b, c), w in zip(batch, _fresh_names(set(current.vertices()), len(batch))):
        # the witness lives on the side opposite the requirement sets; a
        # demands successors (in bipartite mode, adjacency in the input's
        # direction), b predecessors and c non-neighbours
        on_left = side is Side.RIGHT
        index = current.col_of if on_left else current.row_of
        succ = bip_state if mode is Mode.BIPARTITE else PAIR_LR if on_left else PAIR_RL
        (new_left if on_left else new_right).append((w, {index[u]: s for us, s in (
            (a, succ), (b, FLIPPED[succ]), (c, PAIR_NONE)) for u in us}))
    rows = [[*row, *(cells.get(i, default) for _, cells in new_right)]
            for i, row in enumerate(current.matrix)]
    width = len(current.right) + len(new_right)
    rows += [[cells.get(j, default) for j in range(width)] for _, cells in new_left]
    left = current.left + tuple(w for w, _ in new_left)
    right = current.right + tuple(w for w, _ in new_right)
    return _assemble(left, right, rows, _index(left), _index(right))
