import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportgen.errors import UnresolvableError
from supportgen.grammar import (ADVERBS, INSTRUCTIONS, VERBS, Instruction,
                                ground_descriptions, parse, resolve_target)
from supportgen.permuter import compress_notation, expand_notation
from supportgen.planner import (_decorate, _walk_steps, apply_adverb, goal_satisfied,
                                plan_navigation, solve, turns_between)
from supportgen.world import (
    Action,
    AgentPose,
    Heading,
    ObjectSpec,
    Position,
    WorldState,
    simulate,
)

import generation_reference
from conftest import random_state


def names(actions) -> str:
    return compress_notation([a.name for a in actions])


def single_object_state(agent_pos, agent_dir, obj_pos, shape="circle", color="red",
                        size=1, extra=()) -> WorldState:
    return WorldState(6, AgentPose(agent_pos, agent_dir),
                      (ObjectSpec(shape, color, size, obj_pos),) + tuple(extra))


class TestPlanNavigation:
    def test_straight_east(self, s0):
        plan = plan_navigation(s0, Position(4, 2))
        assert apply_adverb(plan, None) == (Action.WALK, Action.WALK)

    def test_on_target(self, s0):
        plan = plan_navigation(s0, s0.agent.pos)
        assert apply_adverb(plan, None) == ()

    def test_west_north_trace(self):
        # east-facing agent, target 5 west and 4 north
        state = single_object_state(Position(5, 4), Heading.EAST, Position(0, 0))
        plan = plan_navigation(state, Position(0, 0))
        assert names(apply_adverb(plan, None)) == "LTURN(2) WALK(5) RTURN WALK(4)"

    def test_southwest_uses_lturns(self):
        state = single_object_state(Position(5, 0), Heading.EAST, Position(0, 5))
        plan = plan_navigation(state, Position(0, 5))
        assert names(apply_adverb(plan, None)) == "LTURN(2) WALK(5) LTURN WALK(5)"


class TestApplyAdverb:
    def test_hesitantly(self, s0):
        plan = plan_navigation(s0, Position(4, 2))
        assert names(apply_adverb(plan, "hesitantly")) == "WALK STAY WALK STAY"

    def test_spin_single_walk(self, s0):
        plan = plan_navigation(s0, Position(3, 2))
        assert apply_adverb(plan, "while_spinning") == (Action.LTURN,) * 4 + (Action.WALK,)

    def test_empty_plan_any_adverb(self, s0):
        plan = plan_navigation(s0, s0.agent.pos)
        for adverb in (None, "hesitantly", "while_spinning", "while_zigzagging", "cautiously"):
            assert apply_adverb(plan, adverb) == ()

    def test_spin_merges_direction_turns(self):
        state = single_object_state(Position(5, 4), Heading.EAST, Position(0, 0))
        plan = plan_navigation(state, Position(0, 0))
        got = names(apply_adverb(plan, "while_spinning"))
        assert got == ("LTURN(6) WALK LTURN(4) WALK LTURN(4) WALK LTURN(4) WALK "
                       "LTURN(4) WALK LTURN(4) RTURN WALK LTURN(4) WALK LTURN(4) "
                       "WALK LTURN(4) WALK")

    def test_zigzag_alternates(self):
        # east-facing agent, 5 east and 3 north: (WALK LTURN WALK RTURN)(3) WALK(2)
        state = single_object_state(Position(0, 5), Heading.EAST, Position(5, 2))
        plan = plan_navigation(state, Position(5, 2))
        expected = expand_notation("(WALK LTURN WALK RTURN)(3) WALK(2)")
        assert [a.name for a in apply_adverb(plan, "while_zigzagging")] == expected

    def test_zigzag_vertical_remainder(self):
        # 2 east, 5 north: alternation H V H V, then three straight norths
        state = single_object_state(Position(0, 5), Heading.EAST, Position(2, 0))
        plan = plan_navigation(state, Position(2, 0))
        got = [a.name for a in apply_adverb(plan, "while_zigzagging")]
        assert got == expand_notation("WALK LTURN WALK RTURN WALK LTURN WALK(4)")

    def test_cautiously_looks_both_ways(self, s0):
        plan = plan_navigation(s0, Position(4, 2))
        assert names(apply_adverb(plan, "cautiously")) == \
            "LTURN RTURN(2) LTURN WALK LTURN RTURN(2) LTURN WALK"

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_zigzag_never_repeats_axis_early(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng)
        target = Position(int(rng.integers(6)), int(rng.integers(6)))
        dx = abs(target.x - state.agent.pos.x)
        dy = abs(target.y - state.agent.pos.y)
        actions = apply_adverb(plan_navigation(state, target), "while_zigzagging")
        # while both displacements remain, no two consecutive same-axis walks
        walked = [0, 0]
        axis = None
        for a, heading in _walk_headings(state, actions):
            this_axis = 0 if heading in (Heading.EAST, Heading.WEST) else 1
            if walked[0] < dx and walked[1] < dy and axis is not None:
                assert this_axis != axis
            axis = this_axis
            walked[this_axis] += 1


def _walk_headings(state, actions):
    heading = state.agent.direction
    for a in actions:
        if a == Action.LTURN:
            heading = heading.left()
        elif a == Action.RTURN:
            heading = heading.right()
        elif a == Action.WALK:
            yield a, heading


class TestApplyVerb:
    def test_push_light_two_free_cells(self):
        state = single_object_state(Position(0, 2), Heading.EAST, Position(3, 2),
                                    extra=(ObjectSpec("square", "blue", 1, Position(5, 2)),))
        actions = solve(state, parse("push a red circle".split()))
        assert names(actions) == "WALK(3) PUSH"
        # blocked by the blue square after one cell

    def test_push_until_wall(self):
        state = single_object_state(Position(0, 2), Heading.EAST, Position(3, 2))
        actions = solve(state, parse("push a red circle".split()))
        assert names(actions) == "WALK(3) PUSH(2)"

    def test_pull_blocked_by_wall(self):
        # agent already on the object, facing east: pulling would move west,
        # off-grid, so zero PULL actions are emitted
        state = single_object_state(Position(0, 2), Heading.EAST, Position(0, 2))
        actions = solve(state, parse("pull a red circle".split()))
        assert actions == ()

    def test_pull_blocked_by_object(self):
        # blocker sits on the cell behind the target along the approach
        state = single_object_state(Position(0, 2), Heading.EAST, Position(5, 2),
                                    extra=(ObjectSpec("square", "blue", 1, Position(4, 2)),))
        actions = solve(state, parse("pull a red circle".split()))
        assert names(actions) == "WALK(5)"

    def test_push_heavy_one_cell(self):
        state = single_object_state(Position(0, 2), Heading.EAST, Position(4, 2), size=3)
        actions = solve(state, parse("push a red circle".split()))
        assert names(actions) == "WALK(4) PUSH(2)"

    def test_spin_decorates_pushes(self):
        state = single_object_state(Position(0, 2), Heading.EAST, Position(4, 2))
        actions = solve(state, parse("push a red circle while spinning".split()))
        assert names(actions) == ("LTURN(4) WALK LTURN(4) WALK LTURN(4) WALK "
                                  "LTURN(4) WALK LTURN(4) PUSH")

    def test_hesitant_decorates_pulls(self):
        # two free cells behind the object before the blue square blocks it
        state = single_object_state(Position(2, 2), Heading.EAST, Position(4, 2),
                                    extra=(ObjectSpec("square", "blue", 1, Position(1, 2)),))
        actions = solve(state, parse("pull a red circle hesitantly".split()))
        assert names(actions) == "WALK STAY WALK STAY PULL STAY PULL STAY"


class TestSolve:
    def test_walk_to_red_circle(self, s0):
        assert solve(s0, parse("walk to a red circle".split())) == (Action.WALK, Action.WALK)

    def test_hesitant(self, s0):
        got = solve(s0, parse("walk to a red circle hesitantly".split()))
        assert got == (Action.WALK, Action.STAY, Action.WALK, Action.STAY)

    def test_unresolvable(self, s0):
        with pytest.raises(UnresolvableError):
            solve(s0, parse("pull a blue cylinder".split()))

    def test_spin_pull_contains_fragment(self):
        fragment = (Action.LTURN,) * 4 + (Action.PULL,)
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(200):
            state = random_state(rng)
            instr = parse("pull a circle while spinning".split())
            try:
                actions = solve(state, instr)
            except UnresolvableError:
                continue
            if Action.PULL in actions:
                found += 1
                flat = tuple(actions)
                assert any(flat[i:i + 5] == fragment for i in range(len(flat) - 4))
        assert found > 20

    def test_determinism(self, s0):
        instr = parse("push a green circle while zigzagging".split())
        assert solve(s0, instr) == solve(s0, instr)

    def test_goal_soundness_random_pairs(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 1000:
            state = random_state(rng)
            instructions = list(INSTRUCTIONS)
            instr = instructions[int(rng.integers(len(instructions)))]
            try:
                actions = solve(state, instr)
            except UnresolvableError:
                continue
            final = simulate(state, actions)
            assert goal_satisfied(state, instr, final), (state, instr, actions)
            checked += 1


class TestNavigationInvariant:
    @pytest.mark.pins
    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_navigation_ends_on_target_and_goal_holds(self, seed):
        """Over seeded states, every verb and adverb with a description that
        grounds in the state: the decorated navigation ends on the target,
        and the solved actions satisfy the goal predicate."""
        rng = np.random.default_rng(seed)
        state = random_state(rng, max_objects=12)
        descriptions = [d for d, _, _ in ground_descriptions(state)]
        for verb in VERBS:
            for adverb in (None,) + ADVERBS:
                size, color, shape = descriptions[int(rng.integers(len(descriptions)))]
                instr = Instruction(verb, size, color, shape, adverb)
                target = resolve_target(instr, state).object
                nav = apply_adverb(plan_navigation(state, target.pos), adverb)
                assert simulate(state, nav).agent.pos == target.pos
                actions = solve(state, instr)
                assert actions[:len(nav)] == nav
                assert goal_satisfied(state, instr, simulate(state, actions)), (state, instr)


class TestClosedFormMatchesReference:
    """The table, closed-form and one-template planner steps give the
    actions of the branching versions they replaced."""

    @pytest.mark.pins
    def test_turns_between(self):
        for cur, dest in itertools.product(Heading, repeat=2):
            assert turns_between(cur, dest) == generation_reference.turns_between(cur, dest)

    @pytest.mark.pins
    def test_walk_steps_over_every_small_plan(self):
        checked = 0
        for dx, dy, heading, zigzag in itertools.product(
                range(-8, 9), range(-8, 9), Heading, (False, True)):
            state = WorldState(17, AgentPose(Position(8, 8), heading), ())
            plan = plan_navigation(state, Position(8 + dx, 8 + dy))
            assert (_walk_steps(plan, zigzag)
                    == generation_reference._walk_steps(plan, zigzag)), plan
            checked += 1
        assert checked == 2312

    @pytest.mark.pins
    def test_decorate_over_every_short_step_list(self):
        kinds = [((), Action.WALK), ((Action.RTURN,), Action.WALK),
                 ((Action.LTURN, Action.LTURN), Action.WALK), ((), Action.PUSH)]
        checked = 0
        for length in range(5):
            for steps in itertools.product(kinds, repeat=length):
                for adverb in (None,) + ADVERBS:
                    assert _decorate(list(steps), adverb) == generation_reference._decorate(
                        list(steps), adverb), (steps, adverb)
                    checked += 1
        assert checked == 1705
