"""Ground-truth planner: (state, instruction) -> action sequence.

Navigation is horizontal-first: turn to face east/west, walk out the x
displacement, turn once to north/south, walk out the y displacement. Adverbs
decorate that walk stream:

  hesitantly        STAY after every non-turn action
  while_spinning    LTURN x4 before every non-turn action, emitted ahead of
                    the direction turns so streams like LTURN(6) arise from
                    merged spin + reorientation turns
  while_zigzagging  with h horizontal and v vertical steps, both nonzero,
                    the walk faces [horizontal, vertical] * min(h, v), then
                    the longer leg's direction |h - v| times
  cautiously        CAUTIOUS_SEQUENCE (look left, right, right, left) before
                    every WALK

push/pull append PUSH/PULL actions once the agent stands on the target:
the object moves forward (push) or backward (pull) until blocked by a wall
or another object, two actions per cell for heavy objects (size 3, 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PlannerError
from .grammar import Instruction, resolve_target
from .world import (
    Action,
    AgentPose,
    Heading,
    ObjectSpec,
    Position,
    WorldState,
    free_run,
)

#: Net-zero look-both-ways sequence used for "cautiously".
CAUTIOUS_SEQUENCE = (Action.LTURN, Action.RTURN, Action.RTURN, Action.LTURN)

SPIN = (Action.LTURN,) * 4


@dataclass(frozen=True)
class Plan:
    """Undecorated navigation plan: displacement legs from a start pose."""

    start: AgentPose
    legs: tuple[tuple[Heading, int], ...]


#: The turns of turns_between, by clockwise quarter turns mod 4.
_TURNS = ((), (Action.RTURN,), (Action.LTURN, Action.LTURN), (Action.LTURN,))


def turns_between(cur: Heading, dest: Heading) -> tuple[Action, ...]:
    """Minimal turn sequence from one heading to another (LTURNs for a
    half-turn, matching the traces this grid convention is built around)."""
    return _TURNS[(dest - cur) % 4]


def plan_navigation(state: WorldState, target: Position) -> Plan:
    if not state.in_bounds(target):
        raise PlannerError(f"target {target} outside grid")
    dx = target.x - state.agent.pos.x
    dy = target.y - state.agent.pos.y
    legs = []
    if dx:
        legs.append((Heading.EAST if dx > 0 else Heading.WEST, abs(dx)))
    if dy:
        legs.append((Heading.SOUTH if dy > 0 else Heading.NORTH, abs(dy)))
    return Plan(start=state.agent, legs=tuple(legs))


def _walk_steps(plan: Plan, zigzag: bool) -> list[tuple[tuple[Action, ...], Action]]:
    """Flatten a plan into (direction turns, WALK) steps."""
    if zigzag and len(plan.legs) == 2:
        (h_dir, h_cnt), (v_dir, v_cnt) = plan.legs
        longer = h_dir if h_cnt > v_cnt else v_dir
        dirs = [h_dir, v_dir] * min(h_cnt, v_cnt) + [longer] * abs(h_cnt - v_cnt)
    else:
        dirs = [direction for direction, count in plan.legs for _ in range(count)]
    return [(turns_between(prev, cur), Action.WALK)
            for prev, cur in zip([plan.start.direction, *dirs], dirs)]


def _decorate(steps: list[tuple[tuple[Action, ...], Action]],
              adverb: str | None) -> list[Action]:
    """Each step as: the spin, the turns, the cautious sequence before a
    WALK, the action, then a STAY when hesitant."""
    out: list[Action] = []
    for turns, action in steps:
        if adverb == "while_spinning":
            out.extend(SPIN)
        out.extend(turns)
        if adverb == "cautiously" and action == Action.WALK:
            out.extend(CAUTIOUS_SEQUENCE)
        out.append(action)
        if adverb == "hesitantly":
            out.append(Action.STAY)
    return out


def _net_turns(actions: tuple[Action, ...]) -> int:
    """Clockwise quarter turns of `actions`, mod 4."""
    return (actions.count(Action.RTURN) - actions.count(Action.LTURN)) % 4


def apply_adverb(plan: Plan, adverb: str | None) -> tuple[Action, ...]:
    steps = _walk_steps(plan, zigzag=(adverb == "while_zigzagging"))
    return tuple(_decorate(steps, adverb))


def apply_verb(state: WorldState, actions: tuple[Action, ...], verb: str,
               adverb: str | None, target: ObjectSpec) -> tuple[Action, ...]:
    """Append decorated verb actions to `actions`, which must be a
    navigation apply_adverb built from `state` to `target`."""
    if verb == "walk_to":
        return actions
    heading = Heading((state.agent.direction + _net_turns(actions)) % 4)
    if verb == "push":
        verb_action, move_dir = Action.PUSH, heading
    else:
        verb_action, move_dir = Action.PULL, Heading((heading + 2) % 4)
    cells = free_run(state.objects, state.grid_size, target.pos, move_dir, moving=target)
    count = cells * (2 if target.heavy else 1)
    steps = [((), verb_action)] * count
    return actions + tuple(_decorate(steps, adverb))  # no WALK, so no cautious sequence


def solve(state: WorldState, instr: Instruction) -> tuple[Action, ...]:
    """Full oracle: resolve, navigate, decorate, apply the verb.

    Raises UnresolvableError when the instruction has no referent in the
    state; the result always passes simulate() and the goal predicate."""
    target = resolve_target(instr, state).object
    plan = plan_navigation(state, target.pos)
    nav = apply_adverb(plan, instr.adverb)
    return apply_verb(state, nav, instr.verb, instr.adverb, target)


def goal_satisfied(state: WorldState, instr: Instruction, final: WorldState) -> bool:
    """Goal predicate for simulate(solve(...)) checks.

    walk_to: agent stands on the resolved target cell. push/pull: an object
    with the target's description sits under the agent, displaced only along
    the verb direction, and cannot move further."""
    target = resolve_target(instr, state).object
    if instr.verb == "walk_to":
        return final.agent.pos == target.pos
    obj = final.object_at(final.agent.pos)
    if obj is None or obj.description() != target.description():
        return False
    move_dir = final.agent.direction if instr.verb == "push" else Heading(
        (final.agent.direction + 2) % 4
    )
    dx, dy = move_dir.delta
    disp = (obj.pos.x - target.pos.x, obj.pos.y - target.pos.y)
    steps = disp[0] * dx + disp[1] * dy
    if steps < 0 or disp != (dx * steps, dy * steps):
        return False
    nxt = obj.pos.shifted(move_dir)
    return not final.in_bounds(nxt) or final.object_at(nxt) is not None
