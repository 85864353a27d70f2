"""Reference generation: the per-example code dataset generation ran before
states drew their attributes in one call and candidates became counts.

Each function is kept as it was, fresh objects and full candidate lists
included, so tests can require the current generator to draw the same
stream and build the same examples. Only the names it reads from supportgen
are imported; the split predicate tables stay the single definition."""

from __future__ import annotations

import numpy as np

from supportgen import planner
from supportgen.dataset import (
    _ACTION_PREDICATES,
    _BY_DESCRIPTION,
    _DESCRIPTION_PREDICATES,
    _VERB_ADVERBS,
    HOLDOUT_SPLITS,
    MAX_ATTEMPTS,
    DatasetConfig,
    Example,
    Split,
    _flags,
)
from supportgen.errors import CapacityError, GenerationError
from supportgen.grammar import COLOR_WORDS, SHAPE_WORDS, Instruction, TargetResolution
from supportgen.world import (
    COLORS,
    SHAPES,
    SIZES,
    Action,
    AgentPose,
    Heading,
    ObjectSpec,
    Position,
    RngLike,
    WorldState,
    as_rng,
)


def new_random_state(rng: RngLike, grid_size: int = 6, object_count: int = 3) -> WorldState:
    """Sample a uniform random state. The agent cell is reserved: objects never
    spawn under the agent, hence the grid_size**2 - 1 capacity bound."""
    if not 0 <= object_count <= grid_size * grid_size - 1:
        raise CapacityError(
            f"cannot place {object_count} objects on a {grid_size}x{grid_size} grid"
        )
    gen = as_rng(rng)
    cells = grid_size * grid_size
    agent_cell = int(gen.integers(cells))
    agent = AgentPose(
        Position(agent_cell % grid_size, agent_cell // grid_size),
        Heading(int(gen.integers(4))),
    )
    free = [c for c in range(cells) if c != agent_cell]
    chosen = gen.choice(len(free), size=object_count, replace=False) if object_count else []
    objects = []
    for idx in chosen:
        cell = free[int(idx)]
        objects.append(
            ObjectSpec(
                shape=SHAPES[int(gen.integers(len(SHAPES)))],
                color=COLORS[int(gen.integers(len(COLORS)))],
                size=int(gen.integers(1, 5)),
                pos=Position(cell % grid_size, cell // grid_size),
            )
        )
    return WorldState(grid_size=grid_size, agent=agent, objects=tuple(objects))


def resolve_descriptions(state: WorldState) -> dict[tuple, TargetResolution]:
    """Every object description (size, color, shape) that grounds in
    `state`, mapped to what resolve_target gives it, in shape-major (shape,
    color, size) order. Dataset generation lists its candidates in this
    order, so reordering it changes generated data."""
    # state.objects is in (y, x) order, so each group's first object wins ties
    groups: dict[tuple, list[ObjectSpec]] = {}
    for obj in state.objects:
        groups.setdefault((obj.shape, None), []).append(obj)
        groups.setdefault((obj.shape, obj.color), []).append(obj)
    out = {}
    for shape in SHAPE_WORDS:
        for color in (None,) + COLOR_WORDS:
            group = groups.get((shape, color))
            if group is None:
                continue
            out[(None, color, shape)] = TargetResolution(group[0], len(group) == 1)
            for size_word, pick in (("small", min), ("big", max)):
                chosen = pick(o.size for o in group)
                matches = [o for o in group if o.size == chosen]
                out[(size_word, color, shape)] = TargetResolution(matches[0], len(matches) == 1)
    return out


#: Target size -> the verb/adverb flags of each pair in _VERB_ADVERBS.
_ACTION_FLAGS = {
    size: tuple(_flags(_ACTION_PREDICATES, verb, adverb, size) for verb, adverb in _VERB_ADVERBS)
    for size in SIZES
}


def _candidate_instructions(state: WorldState, want: frozenset[Split]
                            ) -> list[Instruction]:
    """All unique-referent instructions whose classify set equals `want`,
    (verb, adverb) outermost, then by description in resolve_descriptions
    order.

    Description and verb/adverb predicates flag disjoint splits, so a
    candidate must match `want` on each level separately."""
    want_action = want.intersection(_ACTION_PREDICATES)
    want_description = want - want_action
    kept = [
        (_BY_DESCRIPTION[description], _ACTION_FLAGS[res.object.size])
        for description, res in resolve_descriptions(state).items()
        if res.unique and want_description == _flags(_DESCRIPTION_PREDICATES, *description,
                                                     res.object, state.agent)
    ]
    return [instructions[i] for i in range(len(_VERB_ADVERBS))
            for instructions, flags in kept if flags[i] == want_action]


def generate_example(rng: np.random.Generator, config: DatasetConfig, split: Split
                     ) -> Example:
    want = frozenset() if split in (Split.TRAIN, Split.A) else frozenset({split})
    # Hold-out push/pull examples must displace the object at least one cell
    # (guarantees e.g. that every Split-H target shows the spin-pull fragment).
    needs_effect = split in HOLDOUT_SPLITS
    for _ in range(MAX_ATTEMPTS):
        n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
        state = new_random_state(rng, config.grid_size, n_obj)
        candidates = _candidate_instructions(state, want)
        while candidates:
            idx = int(rng.choice(len(candidates)))
            instr = candidates[idx]
            actions = planner.solve(state, instr)
            if needs_effect and instr.verb != "walk_to" and not any(
                a in (Action.PUSH, Action.PULL) for a in actions
            ):
                del candidates[idx]
                continue
            return Example(state, instr, actions, split)
    raise GenerationError(
        f"no admissible example for split {split.value!r} after {MAX_ATTEMPTS} attempts"
    )
