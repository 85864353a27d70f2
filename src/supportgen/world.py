"""Grid-world state model: types, action execution, and state vectorization.

Heading code convention (documented here because serialized records use it):
d = 0 north, 1 east, 2 south, 3 west, with y growing southward. LTURN is
counter-clockwise (east -> north), RTURN clockwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import CapacityError, DimensionError, ExecutionError

SHAPES = ("circle", "square", "cylinder")
COLORS = ("red", "green", "blue", "yellow")
SIZES = (1, 2, 3, 4)

#: Object sizes that need two push/pull actions per cell of movement.
HEAVY_SIZES = (3, 4)


class Heading(IntEnum):
    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3

    def left(self) -> "Heading":
        return Heading((self - 1) % 4)

    def right(self) -> "Heading":
        return Heading((self + 1) % 4)

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


_DELTAS = {
    Heading.NORTH: (0, -1),
    Heading.EAST: (1, 0),
    Heading.SOUTH: (0, 1),
    Heading.WEST: (-1, 0),
}


class Action(IntEnum):
    """Action symbols with their fixed default codes."""

    PULL = 0
    PUSH = 1
    STAY = 2
    LTURN = 3
    RTURN = 4
    WALK = 5


ACTION_TABLE_SIZE = len(Action)

RngLike = Union[int, np.random.Generator]


def as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True, order=True)
class Position:
    x: int
    y: int

    def shifted(self, heading: Heading) -> "Position":
        dx, dy = heading.delta
        return Position(self.x + dx, self.y + dy)


@dataclass(frozen=True)
class ObjectSpec:
    shape: str
    color: str
    size: int
    pos: Position

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        if self.size not in SIZES:
            raise ValueError(f"object size must be in 1..4, got {self.size}")

    @property
    def heavy(self) -> bool:
        return self.size in HEAVY_SIZES

    def description(self) -> tuple[str, str, int]:
        return (self.shape, self.color, self.size)


@dataclass(frozen=True)
class AgentPose:
    pos: Position
    direction: Heading


@dataclass(frozen=True, slots=True)
class WorldState:
    """Immutable grid-world snapshot: the S in every (S, I, A) triple."""

    grid_size: int
    agent: AgentPose
    objects: tuple[ObjectSpec, ...]

    def __post_init__(self) -> None:
        objects = tuple(self.objects)
        keys = [(o.pos.y, o.pos.x) for o in objects]
        ordered = sorted(keys)
        if ordered != keys:
            objects = tuple(sorted(objects, key=lambda o: (o.pos.y, o.pos.x)))
            keys = ordered
        object.__setattr__(self, "objects", objects)
        if not self.in_bounds(self.agent.pos):
            raise ValueError(f"agent {self.agent.pos} outside {self.grid_size}x{self.grid_size} grid")
        n = self.grid_size
        prev = None
        for obj, key in zip(objects, keys):
            if not (0 <= key[0] < n and 0 <= key[1] < n):
                raise ValueError(f"object at {obj.pos} outside grid")
            if key == prev:  # sorted keys put objects on one cell side by side
                raise ValueError(f"two objects share cell {obj.pos}")
            prev = key

    def in_bounds(self, pos: Position) -> bool:
        return 0 <= pos.x < self.grid_size and 0 <= pos.y < self.grid_size

    def object_at(self, pos: Position) -> ObjectSpec | None:
        for obj in self.objects:
            if obj.pos == pos:
                return obj
        return None

    def to_record(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "agent": {"x": self.agent.pos.x, "y": self.agent.pos.y, "d": int(self.agent.direction)},
            "objects": [
                {"shape": o.shape, "color": o.color, "size": o.size, "x": o.pos.x, "y": o.pos.y}
                for o in self.objects
            ],
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "WorldState":
        """The state of a state record (supportgen.schema.STATE); equal
        agent poses and object specs of different records are one shared
        object."""
        from .schema import STATE, _build_state, _decode  # schema imports this module

        return _decode(_build_state, record, STATE)


#: Entries kept by each cache of state parts, decoded or generated. A 6x6
#: grid has 1,728 object specs and 144 agent poses; a miss only builds the
#: part again.
DECODE_CACHE_SIZE = 8192

# The part caches below serve generated and decoded states alike, so equal
# parts are one object in either. Their keys hold the values' types (1,
# 1.0 and True are three keys), and a miss checks the values against the
# record table, so a decoded bool or float is never taken for an integer.


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE, typed=True)
def _agent_pose(x: int, y: int, d: int) -> AgentPose:
    """The agent pose at x, y with heading code d."""
    from .schema import AGENT, check_values  # the schema module imports this one

    check_values(AGENT, (x, y, d))
    return AgentPose(Position(x, y), Heading(d))


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE, typed=True)
def _object_spec(shape: str, color: str, size: int, x: int, y: int) -> ObjectSpec:
    """The object spec of these values."""
    from .schema import OBJECT, check_values  # the schema module imports this one

    check_values(OBJECT, (shape, color, size, x, y))
    return ObjectSpec(shape, color, size, Position(x, y))


#: Each action sequence's shared tuple, keyed by itself; emptied when full.
_ACTION_TUPLES: dict[tuple[Action, ...], tuple[Action, ...]] = {}


def _shared_actions(actions: tuple[Action, ...]) -> tuple[Action, ...]:
    """The one shared tuple of an action sequence, for generated and
    decoded examples alike."""
    if len(_ACTION_TUPLES) >= DECODE_CACHE_SIZE:
        _ACTION_TUPLES.clear()
    return _ACTION_TUPLES.setdefault(actions, actions)


#: Per-object bounds of the one attribute draw of new_random_state: shape
#: index, color index, size.
_ATTRIBUTE_LOW = [0, 0, 1]
_ATTRIBUTE_HIGH = [len(SHAPES), len(COLORS), SIZES[-1] + 1]


@functools.cache
def _attribute_bounds(object_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 low and high bounds of the attribute draw of
    `object_count` objects, built once per count: the draw equals one from
    the bounds as lists."""
    return (np.array(_ATTRIBUTE_LOW * object_count, dtype=np.int64),
            np.array(_ATTRIBUTE_HIGH * object_count, dtype=np.int64))


def new_random_state(rng: RngLike, grid_size: int = 6, object_count: int = 3) -> WorldState:
    """Sample a uniform random state. The agent cell is reserved: objects never
    spawn under the agent, hence the grid_size**2 - 1 capacity bound.

    The draws are, in this order: the agent cell, the heading, the object
    cells (k distinct indices into the cells other than the agent's) and one
    array of k (shape, color, size) triples, which consumes the stream as k
    rounds of three scalar draws do. Reordering or merging them changes
    generated data. Equal agent poses and object specs are shared objects,
    as in decoded records."""
    if not 0 <= object_count <= grid_size * grid_size - 1:
        raise CapacityError(
            f"cannot place {object_count} objects on a {grid_size}x{grid_size} grid"
        )
    gen = as_rng(rng)
    cells = grid_size * grid_size
    agent_cell = int(gen.integers(cells))
    agent = _agent_pose(agent_cell % grid_size, agent_cell // grid_size, int(gen.integers(4)))
    objects = []
    if object_count:
        chosen = gen.choice(cells - 1, size=object_count, replace=False).tolist()
        values = gen.integers(*_attribute_bounds(object_count)).tolist()
        # index c of the cells other than the agent's is cell c + (c >= agent_cell);
        # ascending indices give the objects in the (y, x) order of WorldState
        for c, i in sorted(zip(chosen, range(0, 3 * object_count, 3))):
            cell = c + (c >= agent_cell)
            objects.append(_object_spec(SHAPES[values[i]], COLORS[values[i + 1]],
                                        values[i + 2], cell % grid_size, cell // grid_size))
    return WorldState(grid_size=grid_size, agent=agent, objects=tuple(objects))


def free_run(state_objects: Iterable[ObjectSpec], grid_size: int, start: Position,
             heading: Heading, moving: ObjectSpec | None = None) -> int:
    """Number of consecutive free cells from `start` along `heading`.

    A cell is free when it is in bounds and holds no object other than
    `moving` (the object being displaced)."""
    occupied = {o.pos for o in state_objects if o is not moving and o.pos != start}
    run = 0
    pos = start
    while True:
        pos = pos.shifted(heading)
        if not (0 <= pos.x < grid_size and 0 <= pos.y < grid_size) or pos in occupied:
            return run
        run += 1


def simulate(state: WorldState, actions: Sequence[Action]) -> WorldState:
    """Execute `actions` from `state` and return the final state.

    WALK moves one cell along the heading; LTURN/RTURN rotate 90 degrees;
    STAY is a no-op. PUSH/PULL require an object in the agent's cell and move
    it (with the agent) one cell forward/backward; heavy objects (size 3, 4)
    move only on every second consecutive push/pull."""
    pos = state.agent.pos
    heading = state.agent.direction
    objects = {o.pos: o for o in state.objects}
    charge: dict[tuple[Position, Action], int] = {}

    for i, action in enumerate(actions):
        if action == Action.STAY:
            continue
        if action == Action.LTURN:
            heading = heading.left()
            continue
        if action == Action.RTURN:
            heading = heading.right()
            continue
        if action == Action.WALK:
            nxt = pos.shifted(heading)
            if not state.in_bounds(nxt):
                raise ExecutionError(f"action {i}: WALK off-grid from {pos} heading {heading.name}")
            pos = nxt
            continue
        # PUSH or PULL
        obj = objects.get(pos)
        if obj is None:
            raise ExecutionError(f"action {i}: {action.name} with no object at {pos}")
        move_dir = heading if action == Action.PUSH else Heading((heading + 2) % 4)
        key = (pos, action)
        needed = 2 if obj.heavy else 1
        count = charge.pop(key, 0) + 1
        if count < needed:
            charge[key] = count
            continue
        dest = pos.shifted(move_dir)
        if not state.in_bounds(dest) or dest in objects:
            raise ExecutionError(f"action {i}: {action.name} blocked at {pos}")
        del objects[pos]
        moved = ObjectSpec(obj.shape, obj.color, obj.size, dest)
        objects[dest] = moved
        pos = dest

    return WorldState(
        grid_size=state.grid_size,
        agent=AgentPose(pos, heading),
        objects=tuple(objects.values()),
    )


# One-hot layout per cell, in this order (frozen for reproducibility):
# shape (circle, square, cylinder, none), color (red, green, blue, yellow, none),
# size (1, 2, 3, 4, none), agent presence, agent heading (N, E, S, W).
CELL_WIDTH = (len(SHAPES) + 1) + (len(COLORS) + 1) + (len(SIZES) + 1) + 1 + 4
_SHAPE_OFF = 0
_COLOR_OFF = len(SHAPES) + 1
_SIZE_OFF = _COLOR_OFF + len(COLORS) + 1
_AGENT_OFF = _SIZE_OFF + len(SIZES) + 1
_HEADING_OFF = _AGENT_OFF + 1


#: Cell code of each object (shape, color, size), from 1 in product order;
#: 0 is an empty cell. Only state_codes reads it.
_CELL_CODES = {}
#: The shape, color and size bits of each cell code, as float32 0/1 rows.
_CELL_ROWS = np.zeros((1 + len(SHAPES) * len(COLORS) * len(SIZES), CELL_WIDTH), dtype=np.float32)
_CELL_ROWS[0, [_SHAPE_OFF + len(SHAPES), _COLOR_OFF + len(COLORS), _SIZE_OFF + len(SIZES)]] = 1.0
for _code, (_shape, _color, _size) in enumerate(itertools.product(SHAPES, COLORS, SIZES), 1):
    _CELL_CODES[_shape, _color, _size] = _code
    _CELL_ROWS[_code, [_SHAPE_OFF + SHAPES.index(_shape), _COLOR_OFF + COLORS.index(_color),
                       _SIZE_OFF + _size - 1]] = 1.0
#: The three slots each cell code sets, in slot order.
_CODE_SLOTS = np.array([np.flatnonzero(row) for row in _CELL_ROWS])
#: The none slot of the attribute of each shape, color and size slot.
_NONE_SLOT = np.repeat(_CODE_SLOTS[0], [len(SHAPES) + 1, len(COLORS) + 1, len(SIZES) + 1])
#: States of its second operand that shared_slot_counts expands at a time.
_SHARED_BLOCK_ROWS = 1024


def active_slots(cells: int) -> int:
    """The one-hot slots every state on `cells` cells sets: a shape, color
    and size slot per cell, plus the agent and heading slots."""
    return 3 * cells + 2


def slot_value(cells: int) -> float:
    """The value of each active slot of a unit one-hot row on `cells` cells:
    1 / sqrt(active slots)."""
    return 1.0 / np.sqrt(float(active_slots(cells)))


def state_codes(states: Sequence[WorldState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each state's row-major int8 cell codes (0 empty, else _CELL_CODES),
    agent cell and heading, as three arrays. Raises DimensionError on mixed
    sizes."""
    n = states[0].grid_size if states else 0
    codes = np.zeros((len(states), n * n), dtype=np.int8)
    agent_cells = np.empty(len(states), dtype=np.intp)
    headings = np.empty(len(states), dtype=np.int8)
    for row, state in enumerate(states):
        if state.grid_size != n:
            raise DimensionError(f"grid sizes differ: {n} vs {state.grid_size}")
        for obj in state.objects:
            codes[row, obj.pos.y * n + obj.pos.x] = _CELL_CODES[(obj.shape, obj.color, obj.size)]
        agent_cells[row] = state.agent.pos.y * n + state.agent.pos.x
        headings[row] = state.agent.direction
    return codes, agent_cells, headings


def one_hot_rows(codes: np.ndarray, agent_cells: np.ndarray, headings: np.ndarray) -> np.ndarray:
    """The float32 0/1 one-hot rows of state_codes output. Cells are laid
    out row-major; see the CELL_WIDTH block order above. The product of two
    rows counts the active slots they share, at most active_slots(cells), so
    it is exact in float32 whatever the BLAS kernel or summation order."""
    count, cells = codes.shape
    rows = _CELL_ROWS[codes]
    index = np.arange(count)
    rows[index, agent_cells, _AGENT_OFF] = 1.0
    rows[index, agent_cells, _HEADING_OFF + headings] = 1.0
    return rows.reshape(count, cells * CELL_WIDTH)


def shared_slot_counts(a: Sequence[np.ndarray], b: Sequence[np.ndarray],
                       out: np.ndarray) -> np.ndarray:
    """Write into `out` the active slots each state of `a` shares with each
    state of `b`, both state_codes triples: the float32 product of their
    0/1 one_hot_rows, exact whatever the BLAS kernel. `b` is expanded
    _SHARED_BLOCK_ROWS states at a time, each block into its columns of
    `out`. Raises DimensionError when the grids differ. Returns `out`."""
    cells = a[0].shape[1]
    if b[0].shape[1] != cells:
        raise DimensionError(f"grid sizes differ: {math.isqrt(cells)} vs "
                             f"{math.isqrt(b[0].shape[1])}")
    rows = one_hot_rows(*a)
    for lo in range(0, b[0].shape[0], _SHARED_BLOCK_ROWS):
        block = slice(lo, lo + _SHARED_BLOCK_ROWS)
        np.matmul(rows, one_hot_rows(*(part[block] for part in b)).T, out=out[:, block])
    return out


def fold_slots(slot_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold a matrix with one row per one-hot slot (cells * CELL_WIDTH rows)
    into the rows code_sums adds: the pose rows, one per (agent cell,
    heading) at cell * 4 + heading, each the sum of that pose's agent and
    heading rows and of the none rows of every cell; and the change rows,
    slot_rows with each shape, color and size row less its attribute's none
    row in the same cell, which is what an object in that cell adds."""
    cells = slot_rows.shape[0] // CELL_WIDTH
    per_cell = slot_rows.reshape(cells, CELL_WIDTH, -1)
    changes = per_cell.copy()
    changes[:, :_AGENT_OFF] -= per_cell[:, _NONE_SLOT]
    poses = per_cell[:, _AGENT_OFF, None] + per_cell[:, _HEADING_OFF:_HEADING_OFF + 4]
    poses += per_cell[:, _CODE_SLOTS[0]].sum(axis=(0, 1))
    return poses.reshape(cells * 4, -1), changes.reshape(cells * CELL_WIDTH, -1)


def code_sums(poses: np.ndarray, changes: np.ndarray, codes: np.ndarray,
              agent_cells: np.ndarray, headings: np.ndarray, out: np.ndarray) -> None:
    """Write into `out` each state's one-hot row times the slot matrix that
    fold_slots folded into `poses` and `changes`, from its state_codes: its
    pose row, then for each cell that holds an object, in cell order, the
    change rows of the object's shape, color and size slots. A row's bits
    depend on its own codes only, not on the other rows of the block.
    Raises DimensionError when the states' grid differs from the folded
    one."""
    if codes.shape[1] * CELL_WIDTH != changes.shape[0]:
        raise DimensionError(f"grid sizes differ: {changes.shape[0] // CELL_WIDTH} vs "
                             f"{codes.shape[1]} cells")
    out[...] = poses[agent_cells * 4 + headings]
    for cell in np.flatnonzero(codes.any(axis=0)):
        rows = np.flatnonzero(codes[:, cell])
        shape, color, size = (_CODE_SLOTS[codes[rows, cell]] + cell * CELL_WIDTH).T
        change = changes[shape]
        change += changes[color]
        change += changes[size]
        out[rows] += change
