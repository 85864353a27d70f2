"""Example construction, compositional split classification, dataset
generation, and bit-exact serialization.

Hold-out predicates (an example belongs to a test split when it satisfies
exactly that split's predicate; TRAIN and split A satisfy none):

  B  instruction names a yellow square with the color word present
  C  resolved target is a red square
  D  target strictly south and west of the agent
  E  a size-2 circle referred to as "small"
  F  verb is push and the target has size 3
  G  adverb is "cautiously"
  H  verb is pull and adverb is "while spinning"

The predicate tables below are the single definition of B-H: classify and
the generator's candidate filter both evaluate them. The split names, like
every record field, are defined in supportgen.schema.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import DataFormatError, GenerationError, SupportgenError
from .grammar import (
    INSTRUCTIONS,
    Instruction,
    command_string,
    encode_words,
    ground_descriptions,
    realize,
    resolve_target,
)
from .permuter import Permutation, identity_permutation, sample_permutation
from .permuter import apply as apply_permutation
from .schema import (EXAMPLE, EXTERNAL, HEADINGS, SITUATION, Field, Split, _build_state, _decode,
                     command_of, external_actions, fault, split_of, target_of)
from .world import SIZES, Action, AgentPose, Heading, Position, WorldState
from .world import _object_spec, _shared_actions, new_random_state
from . import planner

TEST_SPLITS = (Split.A, Split.B, Split.C, Split.D, Split.E, Split.F, Split.G, Split.H)

#: Description-level hold-out predicates over the (size, color, shape) words,
#: the resolved target and the agent.
_DESCRIPTION_PREDICATES = {
    Split.B: lambda size, color, shape, target, agent: color == "yellow" and shape == "square",
    Split.C: lambda size, color, shape, target, agent:
        target.shape == "square" and target.color == "red",
    Split.D: lambda size, color, shape, target, agent:
        target.pos.x < agent.pos.x and target.pos.y > agent.pos.y,
    Split.E: lambda size, color, shape, target, agent:
        size == "small" and target.shape == "circle" and target.size == 2,
}
#: Verb/adverb-level hold-out predicates over the verb, the adverb and the
#: target's size.
_ACTION_PREDICATES = {
    Split.F: lambda verb, adverb, target_size: verb == "push" and target_size == 3,
    Split.G: lambda verb, adverb, target_size: adverb == "cautiously",
    Split.H: lambda verb, adverb, target_size: verb == "pull" and adverb == "while_spinning",
}
HOLDOUT_SPLITS = (*_DESCRIPTION_PREDICATES, *_ACTION_PREDICATES)

#: Attempts (fresh states) per example before generation gives up.
MAX_ATTEMPTS = 200


@dataclass(frozen=True, slots=True)
class Example:
    state: WorldState
    instruction: Instruction
    actions: tuple[Action, ...]
    split: Split

    def to_record(self) -> dict:
        rec = self.state.to_record()
        rec["command"] = command_string(self.instruction)
        rec["target"] = ",".join(a.name for a in self.actions)
        rec["split"] = self.split.value
        return rec

    @classmethod
    def from_record(cls, record: Mapping) -> "Example":
        """The example of a dataset record (schema.EXAMPLE); equal parts of
        different records are one shared object."""
        return _decode(_build_example, record, EXAMPLE)


def _build_example(record) -> Example:
    """Example.from_record's fast path."""
    return Example(_build_state(record), command_of(record["command"]),
                   target_of(record["target"]), split_of(record["split"]))


def _flags(predicates: Mapping, *args) -> frozenset[Split]:
    """The splits whose predicate in `predicates` holds for `args`."""
    return frozenset(split for split, holds in predicates.items() if holds(*args))


def classify(state: WorldState, instruction: Instruction) -> frozenset[Split]:
    """All hold-out predicates the (state, instruction) pair satisfies.

    Empty set means in-distribution. Requires a resolvable instruction."""
    target = resolve_target(instruction, state).object
    return (_flags(_DESCRIPTION_PREDICATES, *instruction.description(), target, state.agent)
            | _flags(_ACTION_PREDICATES, instruction.verb, instruction.adverb, target.size))


@dataclass
class DatasetConfig:
    seed: int
    train_count: int = 50_000
    split_counts: dict[Split, int] = field(
        default_factory=lambda: {s: 2_000 for s in TEST_SPLITS}
    )
    grid_size: int = 6
    min_objects: int = 3
    max_objects: int = 10

    def __post_init__(self) -> None:
        stray = [s.value for s in self.split_counts if s not in TEST_SPLITS]
        if stray:
            raise ValueError(f"split_counts takes only test splits, got {stray}")
        if self.train_count < 0 or any(c < 0 for c in self.split_counts.values()):
            raise ValueError("example counts must be >= 0")
        if not 0 < self.min_objects <= self.max_objects <= self.grid_size ** 2 - 1:
            raise ValueError("bad object count range")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "train_count": self.train_count,
            "split_counts": {s.value: c for s, c in self.split_counts.items()},
            "grid_size": self.grid_size,
            "min_objects": self.min_objects,
            "max_objects": self.max_objects,
        }


@dataclass
class Dataset:
    examples: list[Example]

    def split(self, split: Split) -> list[Example]:
        return [e for e in self.examples if e.split == split]

    def __len__(self) -> int:
        return len(self.examples)


#: The instructions of each description, all in _VERB_ADVERBS order:
#: INSTRUCTIONS varies the verb slowest and the adverb fastest.
_BY_DESCRIPTION: dict[tuple, list[Instruction]] = {}
for _instr in INSTRUCTIONS:
    _BY_DESCRIPTION.setdefault(_instr.description(), []).append(_instr)
_VERB_ADVERBS = tuple((i.verb, i.adverb) for i in _BY_DESCRIPTION[INSTRUCTIONS[0].description()])


@functools.cache
def _pair_admits(want_action: frozenset[Split]) -> dict[int, tuple[int, ...]]:
    """Target size -> 1 for each pair of _VERB_ADVERBS whose verb/adverb
    flags are exactly `want_action`, else 0: a 4 x 15 table per wanted set."""
    return {size: tuple(int(_flags(_ACTION_PREDICATES, verb, adverb, size) == want_action)
                        for verb, adverb in _VERB_ADVERBS)
            for size in SIZES}


def _candidates(state: WorldState, want: frozenset[Split]) -> list[Instruction]:
    """The unique-referent instructions of `state` whose classify set equals
    `want`: (verb, adverb) outermost, then by description in
    ground_descriptions order.

    Description and verb/adverb predicates flag disjoint splits, so a
    candidate must match `want` on each level separately."""
    admits = _pair_admits(want.intersection(_ACTION_PREDICATES))
    # each description predicate with whether `want` needs it to hold
    expect = [(holds, split in want) for split, holds in _DESCRIPTION_PREDICATES.items()]
    agent = state.agent
    # (the description's instructions, its target's row of admits)
    kept = []
    for description, referent, unique in ground_descriptions(state):
        if not unique:
            continue
        for holds, wanted in expect:
            if holds(*description, referent, agent) != wanted:
                break
        else:
            kept.append((_BY_DESCRIPTION[description], admits[referent.size]))
    return [instructions[pair] for pair in range(len(_VERB_ADVERBS))
            for instructions, admit in kept if admit[pair]]


def generate_example(rng: np.random.Generator, config: DatasetConfig, split: Split
                     ) -> Example:
    want = frozenset() if split in (Split.TRAIN, Split.A) else frozenset({split})
    # Hold-out push/pull examples must displace the object at least one cell
    # (guarantees e.g. that every Split-H target shows the spin-pull fragment).
    needs_effect = split in HOLDOUT_SPLITS
    for _ in range(MAX_ATTEMPTS):
        n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
        state = new_random_state(rng, config.grid_size, n_obj)
        candidates = _candidates(state, want)
        while candidates:
            idx = int(rng.choice(len(candidates)))
            instr = candidates[idx]
            actions = planner.solve(state, instr)
            if needs_effect and instr.verb != "walk_to" and not any(
                a in (Action.PUSH, Action.PULL) for a in actions
            ):
                del candidates[idx]
                continue
            return Example(state, instr, _shared_actions(actions), split)
    raise GenerationError(
        f"no admissible example for split {split.value!r} after {MAX_ATTEMPTS} attempts"
    )


def generate_dataset(config: DatasetConfig) -> Dataset:
    """Deterministic dataset generation: each example draws from its own RNG
    stream keyed by (seed, split index, example index), so the output does not
    depend on generation order."""
    examples: list[Example] = []
    splits = [(Split.TRAIN, config.train_count)]
    splits += [(s, config.split_counts.get(s, 0)) for s in TEST_SPLITS]
    for split_idx, (split, count) in enumerate(splits):
        for i in range(count):
            rng = np.random.default_rng([config.seed, split_idx, i])
            examples.append(generate_example(rng, config, split))
    return Dataset(examples)


def _write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each string followed by a newline (UTF-8); returns the number
    of lines written. The lines go to a sibling temporary file that
    replaces `path` only once every line is written, so an error leaves
    `path` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for count, line in enumerate(lines, start=1):
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def _write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write each record as one canonical JSON line (sorted keys, compact
    separators), so equal records give equal bytes; see `_write_lines`."""
    return _write_lines(path, (json.dumps(record, sort_keys=True, separators=(",", ":"))
                               for record in records))


def _read_jsonl(path: str | Path, decode: Callable[[dict], object]) -> Iterator:
    """Yield `decode` of the JSON object on each non-blank line; a line that
    fails to parse or decode raises DataFormatError naming its number."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = decode(json.loads(line))
            except (SupportgenError, ValueError) as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from None
            yield record


def export_dataset(dataset: Dataset, path: str | Path) -> None:
    """One canonical JSON record per line: byte-identical for identical
    datasets."""
    _write_jsonl(path, (example.to_record() for example in dataset.examples))


def import_dataset(path: str | Path) -> Dataset:
    return Dataset(list(_read_jsonl(path, Example.from_record)))


def import_external_record(record: Mapping, direction_map: Mapping[int, int] | None = None,
                           split: Split = Split.TRAIN) -> Example:
    """Map the original environment's record shape (schema.EXTERNAL:
    situation / command / target_commands) onto an Example. Rows become y,
    columns x; agent_direction codes are heading codes unless a
    direction_map maps them to heading codes. A record outside that shape
    raises DataFormatError naming its field."""
    shape, headings = EXTERNAL, HEADINGS
    if direction_map is not None:
        headings = {code: Heading(heading) for code, heading in direction_map.items()}
        situation_shape = {**SITUATION, "agent_direction": Field(int, headings)}
        shape = {**EXTERNAL, "situation": Field(dict, situation_shape)}
    reason = fault(record, shape)
    if reason is not None:
        raise DataFormatError(f"bad external record: {reason}")
    situation = record["situation"]
    placed = situation.get("placed_objects", [])
    entries = placed.values() if isinstance(placed, dict) else placed
    objects = tuple(_object_spec(e["object"]["shape"], e["object"]["color"], e["object"]["size"],
                                 e["position"]["column"], e["position"]["row"])
                    for e in entries)
    agent = situation["agent_position"]
    state = WorldState(situation["grid_size"],
                       AgentPose(Position(agent["column"], agent["row"]),
                                 headings[situation["agent_direction"]]),
                       objects)
    return Example(state, command_of(record["command"]),
                   external_actions(record["target_commands"]),
                   split_of(record["split"]) if "split" in record else split)


def export_icl_records(entries: Iterable, policy: str = "permute", seed: int = 0,
                       permute_words: bool = False) -> Iterator[dict]:
    """Serialize (example, supports) pairs into in-context-learning records.

    Each record carries the support triples and the query, with ONE shared
    permutation applied to every target sequence in the record when the
    policy is "permute". The permutation codes are stored so records stay
    decodable. `entries` yields (Example, list-of-support-triples) pairs where
    a triple is (WorldState, Instruction, actions-or-None).
    """
    if policy not in ("permute", "identity"):
        raise ValueError(f"unknown permutation policy {policy!r}")
    from .world import ACTION_TABLE_SIZE
    from .grammar import WORD_TABLE_SIZE

    for idx, (example, supports) in enumerate(entries):
        if not supports:
            raise DataFormatError(f"example {idx} has no supports attached")
        if policy == "permute":
            rng = np.random.default_rng([seed, idx])
            perm = sample_permutation(rng, ACTION_TABLE_SIZE)
            word_perm = sample_permutation(rng, WORD_TABLE_SIZE) if permute_words else None
        else:
            perm = identity_permutation(ACTION_TABLE_SIZE)
            word_perm = identity_permutation(WORD_TABLE_SIZE) if permute_words else None

        def encode_instruction(instr: Instruction) -> list[int]:
            codes = encode_words(realize(instr))
            return list(apply_permutation(word_perm, codes)) if word_perm else codes

        def encode_actions(actions) -> list[int] | None:
            if actions is None:
                return None
            return list(apply_permutation(perm, [int(a) for a in actions]))

        yield {
            "supports": [
                {
                    "state": s.to_record(),
                    "command": encode_instruction(i),
                    "target": encode_actions(a),
                }
                for (s, i, a) in supports
            ],
            "query": {
                "state": example.state.to_record(),
                "command": encode_instruction(example.instruction),
                "target": encode_actions(example.actions),
            },
            "permutation": perm.to_codes(),
            "word_permutation": word_perm.to_codes() if word_perm else None,
            "split": example.split.value,
        }


def decode_icl_targets(record: Mapping) -> list[tuple[int, ...]]:
    """Invert the stored permutation of an ICL record (supports then query)."""
    from .permuter import invert

    perm = invert(Permutation.from_codes(record["permutation"]))
    out = []
    for support in record["supports"]:
        target = support["target"]
        out.append(apply_permutation(perm, target) if target is not None else None)
    out.append(apply_permutation(perm, record["query"]["target"]))
    return out
