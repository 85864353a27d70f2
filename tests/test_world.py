import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportgen.errors import CapacityError, DimensionError, ExecutionError
from supportgen.world import (
    CELL_WIDTH,
    SHAPES,
    Action,
    AgentPose,
    Heading,
    ObjectSpec,
    Position,
    WorldState,
    active_slots,
    code_sums,
    encode_states,
    fold_slots,
    new_random_state,
    one_hot_rows,
    shared_slots,
    simulate,
    state_codes,
)

from conftest import random_state
import generation_reference


def per_cell_one_hot(state: WorldState) -> np.ndarray:
    """Reference encoding: a loop over every cell of the grid, then division
    by the vector's norm."""
    shapes, colors, sizes = ("circle", "square", "cylinder"), ("red", "green", "blue", "yellow"), 4
    width = 4 + 5 + 5 + 1 + 4
    n = state.grid_size
    vec = np.zeros(n * n * width)
    by_pos = {o.pos: o for o in state.objects}
    for cy in range(n):
        for cx in range(n):
            base = (cy * n + cx) * width
            obj = by_pos.get(Position(cx, cy))
            if obj is None:
                vec[[base + 3, base + 4 + 4, base + 9 + sizes]] = 1.0
            else:
                vec[[base + shapes.index(obj.shape), base + 4 + colors.index(obj.color),
                     base + 9 + obj.size - 1]] = 1.0
    agent = (state.agent.pos.y * n + state.agent.pos.x) * width
    vec[agent + 14] = 1.0
    vec[agent + 15 + int(state.agent.direction)] = 1.0
    return vec / np.linalg.norm(vec)


class TestNewRandomState:
    def test_zero_objects(self):
        state = new_random_state(7, 6, 0)
        assert state.objects == ()
        assert state.in_bounds(state.agent.pos)

    def test_deterministic(self):
        assert new_random_state(7, 6, 10) == new_random_state(7, 6, 10)

    def test_seeds_differ(self):
        a = new_random_state(7, 6, 10)
        b = new_random_state(8, 6, 10)
        assert {o.pos for o in a.objects} != {o.pos for o in b.objects}

    def test_capacity(self):
        with pytest.raises(CapacityError):
            new_random_state(1, 3, 9)  # 3x3 grid holds at most 8 objects
        new_random_state(1, 3, 8)

    def test_objects_never_under_agent(self):
        for seed in range(50):
            state = new_random_state(seed, 4, 15)
            assert all(o.pos != state.agent.pos for o in state.objects)


class TestGenerationReference:
    @pytest.mark.pins
    def test_new_random_state_equals_reference(self):
        """Every grid 2-9 and object count 0..cells-1, two seeds each (568
        seeds): the state of tests/generation_reference.py, and the same
        generator state after it, so the next draw is the same too."""
        seed = 0
        for grid in range(2, 10):
            for count in range(grid * grid):
                for _ in range(2):
                    rng, ref_rng = (np.random.default_rng([seed, grid]) for _ in range(2))
                    seed += 1
                    state = new_random_state(rng, grid, count)
                    assert state == generation_reference.new_random_state(ref_rng, grid, count)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert seed >= 500


class TestSimulate:
    def test_walk_walk(self, s0):
        final = simulate(s0, (Action.WALK, Action.WALK))
        assert final.agent.pos == Position(4, 2)

    def test_empty_is_identity(self, s0):
        assert simulate(s0, ()) == s0

    def test_full_rotation_identity(self, s0):
        assert simulate(s0, (Action.LTURN,) * 4) == s0
        assert simulate(s0, (Action.RTURN,) * 4) == s0

    def test_walk_off_grid(self, s0):
        with pytest.raises(ExecutionError):
            simulate(s0, (Action.WALK,) * 4)

    def test_push_without_object(self, s0):
        with pytest.raises(ExecutionError):
            simulate(s0, (Action.PUSH,))

    def test_push_light_object(self, s0):
        # walk onto the red circle at (4,2), then push it east into the wall cell
        final = simulate(s0, (Action.WALK, Action.WALK, Action.PUSH))
        assert final.agent.pos == Position(5, 2)
        moved = final.object_at(Position(5, 2))
        assert moved is not None and moved.color == "red"

    def test_heavy_needs_two_actions(self):
        state = WorldState(6, AgentPose(Position(1, 1), Heading.EAST),
                           (ObjectSpec("square", "red", 3, Position(1, 1)),))
        one = simulate(state, (Action.PUSH,))
        assert one.object_at(Position(1, 1)) is not None  # half-push: no move
        two = simulate(state, (Action.PUSH, Action.PUSH))
        assert two.object_at(Position(2, 1)) is not None
        assert two.agent.pos == Position(2, 1)

    def test_pull_moves_backward(self):
        state = WorldState(6, AgentPose(Position(3, 3), Heading.EAST),
                           (ObjectSpec("circle", "blue", 1, Position(3, 3)),))
        final = simulate(state, (Action.PULL,))
        assert final.agent.pos == Position(2, 3)
        assert final.object_at(Position(2, 3)) is not None

    def test_blocked_push_errors(self):
        state = WorldState(6, AgentPose(Position(5, 0), Heading.EAST),
                           (ObjectSpec("circle", "blue", 1, Position(5, 0)),))
        with pytest.raises(ExecutionError):
            simulate(state, (Action.PUSH,))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rotation_identity_random_states(self, seed):
        state = random_state(np.random.default_rng(seed))
        assert simulate(state, (Action.LTURN,) * 4) == state


def one_hot(state):
    """One state's unit one-hot row, in float64."""
    return encode_states([state], np.float64)[0]


class TestEncodeOneHot:
    def test_self_similarity(self, s0):
        v = one_hot(s0)
        assert float(v @ v) == pytest.approx(1.0)

    def test_moved_object_similarity(self, s0):
        # every state activates 36*3 + 2 = 110 slots; moving one object
        # changes 2 cells * 3 slots, so cosine = (110 - 6) / 110
        moved = WorldState(6, s0.agent, (
            ObjectSpec("circle", "red", 2, Position(4, 3)),
            ObjectSpec("square", "blue", 1, Position(0, 0)),
            ObjectSpec("circle", "green", 4, Position(2, 5)),
        ))
        sim = float(one_hot(s0) @ one_hot(moved))
        assert sim == pytest.approx(104 / 110)
        assert sim < 1.0

    def test_heading_only_difference(self):
        a = WorldState(6, AgentPose(Position(0, 0), Heading.NORTH), ())
        b = WorldState(6, AgentPose(Position(0, 0), Heading.SOUTH), ())
        # each state activates D = 110 slots; the states share 109 of them
        # (108 none markers + agent presence), only the heading slot differs
        sim = float(one_hot(a) @ one_hot(b))
        assert sim == pytest.approx(109 / 110)

    def test_injective_on_random_states(self):
        rng = np.random.default_rng(0)
        seen = {}
        for i in range(10_000):
            state = random_state(rng)
            key = one_hot(state).tobytes()
            if key in seen:
                assert seen[key] == state
            seen[key] = state
        distinct_states = len({s for s in seen.values()})
        assert distinct_states == len(seen)


class TestEncodeStates:
    @pytest.mark.parametrize("grid, dtype", [(6, np.float64), (6, np.float32),
                                             (4, np.float64), (4, np.float32),
                                             (9, np.float32)])
    def test_bitwise_equal_to_per_cell_reference(self, grid, dtype):
        """Also: each dtype's encoding is the float64 encoding cast to it, which
        lets the CovR build encode its float32 cosine matrix directly."""
        rng = np.random.default_rng(grid)
        states = [random_state(rng, grid_size=grid, max_objects=grid * grid - 1)
                  for _ in range(300)]
        states.append(WorldState(grid, AgentPose(Position(1, 2), Heading.WEST), ()))
        want = np.asarray([per_cell_one_hot(s) for s in states], dtype=dtype)
        got = encode_states(states, dtype)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == encode_states(states, np.float64).astype(dtype).tobytes()

    def test_one_hot_is_the_float64_row(self, s0):
        """A batch of one state gives the reference's float64 row."""
        assert one_hot(s0).tobytes() == per_cell_one_hot(s0).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_states(self, dtype):
        got = encode_states([], dtype)
        assert got.shape == (0, 0) and got.dtype == dtype

    def test_mixed_grid_sizes_rejected(self, s0):
        small = WorldState(4, AgentPose(Position(0, 0), Heading.NORTH), ())
        with pytest.raises(DimensionError):
            encode_states([s0, small])


class TestCodes:
    @pytest.mark.pins
    @pytest.mark.parametrize("grid", [4, 6, 9])
    def test_code_sums_equal_the_dense_product(self, grid):
        """code_sums over fold_slots rows is the 0/1 one-hot rows times the
        slot matrix, whatever the slot matrix."""
        rng = np.random.default_rng(grid)
        states = [random_state(rng, grid_size=grid, max_objects=grid * grid - 1)
                  for _ in range(200)]
        states.append(WorldState(grid, AgentPose(Position(0, 1), Heading.SOUTH), ()))
        coded = state_codes(states)
        slot_rows = rng.standard_normal((grid * grid * CELL_WIDTH, 5))
        out = np.empty((len(states), 5))
        code_sums(*fold_slots(slot_rows), *coded, out)
        dense = one_hot_rows(*coded, 1.0, np.float64) @ slot_rows
        assert np.abs(out - dense).max() <= 1e-12

    @pytest.mark.pins
    def test_shared_slots_is_the_one_hot_dot_product(self, s0):
        rng = np.random.default_rng(3)
        states = [random_state(rng) for _ in range(300)] + [s0]
        codes, agent_cells, headings = state_codes(states)
        rows = one_hot_rows(codes, agent_cells, headings, 1.0, np.float64)
        for q in (0, 7, len(states) - 1):
            shared = shared_slots(codes, agent_cells, headings,
                                  codes[q], agent_cells[q], headings[q])
            assert shared.tolist() == (rows @ rows[q]).astype(int).tolist()
            assert shared[q] == active_slots(36)


class TestRecordRoundTrip:
    @pytest.mark.pins
    def test_state_record_round_trip(self, s0):
        assert WorldState.from_record(s0.to_record()) == s0


def reference_state_check(grid_size: int, agent: AgentPose, objects) -> tuple:
    """The state checks as one sort, one agent test and one pass over the
    sorted objects with a set of seen cells: the sorted objects, or the
    ValueError message."""
    objects = tuple(sorted(objects, key=lambda o: (o.pos.y, o.pos.x)))

    def inside(pos):
        return 0 <= pos.x < grid_size and 0 <= pos.y < grid_size

    if not inside(agent.pos):
        return f"agent {agent.pos} outside {grid_size}x{grid_size} grid"
    seen = set()
    for obj in objects:
        if not inside(obj.pos):
            return f"object at {obj.pos} outside grid"
        if obj.pos in seen:
            return f"two objects share cell {obj.pos}"
        seen.add(obj.pos)
    return objects


def state_check(grid_size: int, agent: AgentPose, objects):
    try:
        return WorldState(grid_size, agent, objects).objects
    except ValueError as exc:
        return str(exc)


class TestStateChecks:
    AGENT = AgentPose(Position(0, 0), Heading.NORTH)

    def test_unsorted_objects_come_back_in_yx_order(self):
        objs = [ObjectSpec("circle", "red", 1, Position(1, 2)),
                ObjectSpec("square", "blue", 2, Position(3, 0)),
                ObjectSpec("cylinder", "green", 3, Position(0, 2)),
                ObjectSpec("circle", "yellow", 4, Position(2, 0))]
        state = WorldState(6, self.AGENT, objs)
        assert isinstance(state.objects, tuple)
        assert [(o.pos.y, o.pos.x) for o in state.objects] == [(0, 2), (0, 3), (2, 0), (2, 1)]

    def test_sorted_list_becomes_tuple(self):
        objs = [ObjectSpec("circle", "red", 1, Position(1, 0))]
        assert WorldState(6, self.AGENT, objs).objects == tuple(objs)

    def test_agent_out_of_grid(self):
        with pytest.raises(ValueError, match=r"^agent Position\(x=6, y=0\) outside 6x6 grid$"):
            WorldState(6, AgentPose(Position(6, 0), Heading.EAST), ())

    def test_object_out_of_grid(self):
        objs = (ObjectSpec("circle", "red", 1, Position(0, -1)),)
        with pytest.raises(ValueError, match=r"^object at Position\(x=0, y=-1\) outside grid$"):
            WorldState(6, self.AGENT, objs)

    def test_two_objects_on_one_cell(self):
        objs = (ObjectSpec("circle", "red", 1, Position(2, 3)),
                ObjectSpec("square", "red", 1, Position(4, 4)),
                ObjectSpec("cylinder", "blue", 2, Position(2, 3)))
        with pytest.raises(ValueError, match=r"^two objects share cell Position\(x=2, y=3\)$"):
            WorldState(6, self.AGENT, objs)

    @given(st.integers(-1, 3), st.integers(-1, 3),
           st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_result_and_message_equal_reference(self, ax, ay, cells):
        """The first failing check, in sorted object order, names the error."""
        agent = AgentPose(Position(ax, ay), Heading.SOUTH)
        objs = tuple(ObjectSpec(SHAPES[i % 3], "red", 1 + i % 4, Position(x, y))
                     for i, (x, y) in enumerate(cells))
        assert state_check(3, agent, objs) == reference_state_check(3, agent, objs)
