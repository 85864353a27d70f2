import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from supportgen.dataset import (
    HOLDOUT_SPLITS,
    Dataset,
    DatasetConfig,
    Split,
    Support,
    SupportSet,
    TEST_SPLITS,
    _candidates,
    classify,
    decode_icl_targets,
    export_dataset,
    export_icl_records,
    generate_dataset,
    generate_example,
    import_dataset,
    import_external_record,
    read_queries,
)
from supportgen.errors import DataFormatError, GenerationError, UnresolvableError
from supportgen.grammar import (
    ADVERBS,
    COLOR_WORDS,
    SHAPE_WORDS,
    SIZE_WORDS,
    VERBS,
    Instruction,
    parse,
    resolve_target,
)
from supportgen import dataset as dataset_module
from supportgen.planner import solve
from supportgen.world import (
    Action,
    AgentPose,
    Heading,
    ObjectSpec,
    Position,
    WorldState,
    new_random_state,
)

import generation_reference


def small_config(seed=7, train=60, per_split=6) -> DatasetConfig:
    return DatasetConfig(seed=seed, train_count=train,
                         split_counts={s: per_split for s in TEST_SPLITS})


@pytest.fixture(scope="module")
def small_dataset() -> Dataset:
    return generate_dataset(small_config())


class TestClassify:
    def test_split_h_query(self):
        state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST),
                           (ObjectSpec("cylinder", "yellow", 1, Position(2, 0)),))
        instr = parse("pull a small yellow cylinder while spinning".split())
        assert classify(state, instr) == {Split.H}

    def test_in_distribution(self, s0):
        assert classify(s0, parse("walk to a red circle".split())) == frozenset()

    def test_conjunction_of_predicates(self):
        # push a red square cautiously, target size 3 and southwest of agent
        state = WorldState(6, AgentPose(Position(4, 1), Heading.EAST),
                           (ObjectSpec("square", "red", 3, Position(1, 4)),))
        instr = parse("push a red square cautiously".split())
        assert classify(state, instr) == {Split.C, Split.D, Split.F, Split.G}

    def test_b_needs_color_word(self):
        state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST),
                           (ObjectSpec("square", "yellow", 2, Position(3, 3)),))
        assert Split.B in classify(state, parse("walk to a yellow square".split()))
        assert Split.B not in classify(state, parse("walk to a square".split()))

    def test_e_needs_small_word(self):
        state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST),
                           (ObjectSpec("circle", "green", 2, Position(3, 0)),
                            ObjectSpec("circle", "blue", 4, Position(1, 0))))
        assert classify(state, parse("walk to a small circle".split())) == {Split.E}
        assert classify(state, parse("walk to a green circle".split())) == frozenset()


def _reference_flags(state):
    """Brute force over all 675 instructions in generation order ((verb,
    adverb) outermost, then (shape, color, size)): each unique-referent
    instruction with its classify set."""
    out = []
    for verb, adverb, shape, color, size in itertools.product(
        VERBS, (None,) + ADVERBS, SHAPE_WORDS, (None,) + COLOR_WORDS, (None,) + SIZE_WORDS
    ):
        instr = Instruction(verb, size, color, shape, adverb)
        try:
            unique = resolve_target(instr, state).unique
        except UnresolvableError:
            continue
        if unique:
            out.append((instr, classify(state, instr)))
    return out


CANDIDATE_WANTS = [frozenset()] + [frozenset({s}) for s in HOLDOUT_SPLITS]


@pytest.mark.pins
def test_candidate_filter_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        state = new_random_state(rng, 6, int(rng.integers(1, 11)))
        reference = _reference_flags(state)
        for want in CANDIDATE_WANTS:
            expected = [instr for instr, flags in reference if flags == want]
            assert _candidates(state, want) == expected


@pytest.mark.pins
class TestGenerationReference:
    """Generation against the code it replaced (tests/generation_reference.py):
    the same examples from the same draws."""

    @pytest.mark.parametrize("grid, objects", [(6, (3, 10)), (4, (1, 15))])
    @pytest.mark.parametrize("split", list(Split), ids=lambda s: s.value)
    def test_generate_example_equals_reference(self, split, grid, objects):
        config = DatasetConfig(seed=0, grid_size=grid, min_objects=objects[0],
                               max_objects=objects[1])
        for i in range(40):
            rng, ref_rng = (np.random.default_rng([grid, i]) for _ in range(2))
            assert generate_example(rng, config, split) == \
                generation_reference.generate_example(ref_rng, config, split)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_generation_error_after_max_attempts(self, monkeypatch):
        """A stream whose first state holds no split-B candidate fails after
        one attempt, and the same stream yields an example with more."""
        config = DatasetConfig(seed=0, train_count=0, split_counts={Split.B: 1},
                               min_objects=1, max_objects=1)
        rng = np.random.default_rng(0)
        first = new_random_state(rng, 6, int(rng.integers(1, 2)))
        assert _candidates(first, frozenset({Split.B})) == []
        monkeypatch.setattr(dataset_module, "MAX_ATTEMPTS", 1)
        with pytest.raises(GenerationError, match="split 'b' after 1 attempts"):
            generate_example(np.random.default_rng(0), config, Split.B)
        monkeypatch.undo()
        assert generate_example(np.random.default_rng(0), config, Split.B).split == Split.B

    def test_generated_object_specs_are_shared(self):
        """A 6x6 grid has 3 shapes x 4 colors x 4 sizes x 36 cells = 1,728
        distinct object specs; generation shares one object per spec."""
        data = generate_dataset(DatasetConfig(seed=3, train_count=2000,
                                              split_counts={s: 10 for s in TEST_SPLITS}))
        specs = [obj for ex in data.examples for obj in ex.state.objects]
        assert len(specs) > 10_000
        assert len({id(obj) for obj in specs}) <= 3 * 4 * 4 * 36


class TestGenerateDataset:
    def test_counts(self, small_dataset):
        assert len(small_dataset.split(Split.TRAIN)) == 60
        for split in TEST_SPLITS:
            assert len(small_dataset.split(split)) == 6

    def test_split_purity(self, small_dataset):
        for ex in small_dataset.examples:
            flags = classify(ex.state, ex.instruction)
            if ex.split in (Split.TRAIN, Split.A):
                assert flags == frozenset()
            else:
                assert flags == {ex.split}

    def test_h_examples_are_pull_spinning(self, small_dataset):
        for ex in small_dataset.split(Split.H):
            assert ex.instruction.verb == "pull"
            assert ex.instruction.adverb == "while_spinning"
            assert Action.PULL in ex.actions

    def test_actions_are_oracle_actions(self, small_dataset):
        for ex in small_dataset.examples[::7]:
            assert ex.actions == solve(ex.state, ex.instruction)

    def test_deterministic(self, small_dataset, tmp_path):
        again = generate_dataset(small_config())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_dataset(small_dataset, a)
        export_dataset(again, b)
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
            hashlib.sha256(b.read_bytes()).hexdigest()

    def test_object_count_bounds(self, small_dataset):
        for ex in small_dataset.examples:
            assert 3 <= len(ex.state.objects) <= 10

    def test_split_counts_take_only_test_splits(self):
        # train_count is the only count of the train split; a TRAIN key here
        # would be recorded in the manifest and never generated
        with pytest.raises(ValueError, match="test splits"):
            DatasetConfig(seed=1, train_count=2, split_counts={Split.TRAIN: 5})
        assert DatasetConfig(seed=1, split_counts={Split.H: 1}).split_counts == {Split.H: 1}


class TestExportImport:
    @pytest.mark.pins
    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        export_dataset(small_dataset, path)
        back = import_dataset(path)
        assert back.examples == small_dataset.examples

    def test_missing_field_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"grid_size": 6, "agent": {"x": 0, "y": 0, "d": 1}, "objects": [],
                  "command": "walk,to,a,circle", "split": "train"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"line 1.*target"):
            import_dataset(path)

    def test_bad_action_token(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"grid_size": 6, "agent": {"x": 0, "y": 0, "d": 1},
                  "objects": [{"shape": "circle", "color": "red", "size": 1, "x": 2, "y": 0}],
                  "command": "walk,to,a,circle", "target": "WALK,FLY", "split": "train"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1"):
            import_dataset(path)

    GOOD = {"grid_size": 6, "agent": {"x": 0, "y": 0, "d": 1},
            "objects": [{"shape": "circle", "color": "red", "size": 1, "x": 2, "y": 0},
                        {"shape": "square", "color": "blue", "size": 2, "x": 4, "y": 1}],
            "command": "walk,to,a,circle", "target": "RTURN,WALK,WALK", "split": "train"}

    @pytest.mark.parametrize("change, field", [
        ({"target": "RTURN,FLY"}, "target"),
        ({"command": "walk,a,circle"}, "command"),
        ({"command": "walk,to,a,dragon"}, "command"),
        ({"objects": GOOD["objects"] + [{"shape": "cylinder", "color": "green", "size": 3,
                                         "x": 4, "y": 1}]}, "objects"),
        ({"agent": {"x": 6, "y": 0, "d": 1}}, "agent.x"),
        ({"split": "z"}, "split"),
        ({"agent": {"x": 0, "y": 0, "d": True}}, "agent.d"),
        ({"objects": [{**GOOD["objects"][0], "x": 2.0}, GOOD["objects"][1]]}, "objects[0].x"),
        ({"objects": [GOOD["objects"][0], {**GOOD["objects"][1], "size": 2.0}]},
         "objects[1].size"),
        ({"grid_size": "6"}, "grid_size"),
    ], ids=["target", "grammar", "lexicon", "shared-cell", "agent-off-grid", "split",
            "bool-heading", "float-coordinate", "float-size", "string-grid"])
    def test_bad_second_line_sharing_first_lines_parts(self, change, field, tmp_path):
        """Line 2 reuses every part line 1 decoded but one, which is bad; a
        bool or float equal to line 1's integer is no integer."""
        path = tmp_path / "bad.jsonl"
        lines = [json.dumps(self.GOOD), json.dumps({**self.GOOD, **change})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"^line 2: field `{re.escape(field)}`: "):
            import_dataset(path)


class TestReadQueries:
    @pytest.fixture
    def path(self, small_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        export_dataset(small_dataset, path)
        return path

    @pytest.mark.parametrize("limit", [None, 0, 2, 100])
    def test_queries_are_the_first_of_each_split(self, small_dataset, path, limit):
        queries, train = read_queries(path, [Split.H, Split.TRAIN, Split.C], limit, None)
        position = {id(ex): idx for idx, ex in enumerate(small_dataset.examples)}
        firsts = [ex for split in (Split.TRAIN, Split.C, Split.H)
                  for ex in small_dataset.split(split)[:limit]]
        expected = sorted(firsts, key=lambda ex: position[id(ex)])
        assert queries == expected
        assert train == []

    def test_train_examples_and_commands(self, small_dataset, path):
        train = small_dataset.split(Split.TRAIN)
        _, examples = read_queries(path, [Split.H], None, "examples")
        _, commands = read_queries(path, [Split.H], None, "commands")
        assert examples == train
        assert commands == [ex.instruction for ex in train]

    def test_train_record_that_is_a_query_is_decoded_once(self, path):
        queries, examples = read_queries(path, [Split.TRAIN], 5, "examples")
        assert all(ex is query for ex, query in zip(examples, queries))
        queries, commands = read_queries(path, [Split.TRAIN], 5, "commands")
        assert all(cmd is query.instruction for cmd, query in zip(commands, queries))

    @pytest.mark.parametrize("train, fails", [(None, False), ("commands", True),
                                              ("examples", True)])
    def test_a_train_field_fails_only_the_reads_that_need_it(self, tmp_path, train, fails):
        """A bad state fails only a read of train examples, a bad command a
        read of commands or examples; the line of a query always fails."""
        bad_state = {**TestExportImport.GOOD, "agent": {"x": 6, "y": 0, "d": 1}}
        bad_command = {**TestExportImport.GOOD, "command": "walk,to,a,dragon"}
        for record, field, needed in ((bad_state, "agent.x", train == "examples"),
                                      (bad_command, "command", fails)):
            path = tmp_path / "data.jsonl"
            path.write_text(json.dumps(TestExportImport.GOOD) + "\n" + json.dumps(record) + "\n")
            if needed:
                with pytest.raises(DataFormatError, match=rf"^line 2: field `{field}`: "):
                    read_queries(path, [Split.H], None, train)
            else:
                assert read_queries(path, [Split.H], None, train)[0] == []
            with pytest.raises(DataFormatError, match=rf"^line 2: field `{field}`: "):
                read_queries(path, [Split.TRAIN], None, train)

    @pytest.mark.parametrize("line, reason", [
        ("[]", "expected an object, got []"),
        ('{"split": "z"}', "field `split`: expected one of"),
        ("{}", "field `split`: missing"),
        ("not json", "Expecting value"),
    ])
    def test_every_line_is_parsed_and_its_split_checked(self, path, line, reason):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        lineno = len(path.read_text().splitlines())
        with pytest.raises(DataFormatError, match=rf"^line {lineno}: {re.escape(reason)}"):
            read_queries(path, [Split.H], 1, None)


class TestExternalImport:
    def test_hand_built_record(self):
        record = {
            "command": "walk,to,a,red,circle",
            "target_commands": "turn left,walk,walk",
            "situation": {
                "grid_size": 6,
                "agent_position": {"row": 2, "column": 2},
                "agent_direction": 2,
                "placed_objects": {
                    "0": {"object": {"shape": "circle", "color": "red", "size": 2},
                          "position": {"row": 4, "column": 2}},
                    "1": {"object": {"shape": "square", "color": "blue", "size": 1},
                          "position": {"row": 0, "column": 0}},
                },
            },
        }
        ex = import_external_record(record)
        assert ex.state.agent.pos == Position(2, 2)
        assert ex.state.agent.direction == Heading.SOUTH
        assert ex.state.object_at(Position(2, 4)).color == "red"  # row 4 -> y 4
        assert ex.actions == (Action.LTURN, Action.WALK, Action.WALK)
        assert ex.instruction == Instruction("walk_to", None, "red", "circle", None)

    def test_symbolic_action_names_accepted(self):
        record = {
            "command": "push,a,square",
            "target_commands": "WALK,PUSH",
            "situation": {
                "grid_size": 6,
                "agent_position": {"row": 0, "column": 0},
                "agent_direction": 1,
                "placed_objects": [
                    {"object": {"shape": "square", "color": "green", "size": 1},
                     "position": {"row": 0, "column": 1}}],
            },
        }
        ex = import_external_record(record)
        assert ex.actions == (Action.WALK, Action.PUSH)

    def test_malformed(self):
        with pytest.raises(DataFormatError):
            import_external_record({"command": "walk,to,a,circle"})

    @pytest.mark.parametrize("command", ["walk,a,circle", "walk,to,a,hexagon", 5, None])
    def test_bad_command_is_data_format_error(self, command):
        record = {
            "command": command,
            "target_commands": "walk",
            "situation": {"grid_size": 6, "agent_position": {"row": 0, "column": 0},
                          "agent_direction": 0, "placed_objects": []},
        }
        with pytest.raises(DataFormatError, match="bad external record"):
            import_external_record(record)

    SITUATION = {"grid_size": 6, "agent_position": {"row": 0, "column": 0}, "agent_direction": 1,
                 "placed_objects": {"0": {"object": {"shape": "square", "color": "green",
                                                     "size": 1},
                                          "position": {"row": 0, "column": 1}}}}

    @pytest.mark.parametrize("situation, target, field", [
        ({"agent_direction": 4}, "walk", "situation.agent_direction"),
        ({"agent_position": {"row": 6, "column": 0}}, "walk", "situation.agent_position.row"),
        ({"grid_size": 6.0}, "walk", "situation.grid_size"),
        ({"placed_objects": [{"object": {"shape": "square", "color": "green", "size": 2.0},
                              "position": {"row": 0, "column": 1}}]}, "walk",
         "situation.placed_objects[0].object.size"),
        ({"placed_objects": {str(i): {"object": {"shape": "square", "color": "red", "size": 1},
                                      "position": {"row": 2, "column": 3}} for i in range(2)}},
         "walk", "situation.placed_objects"),
        ({}, "walk,turn around", "target_commands"),
        ({}, ["walk"], "target_commands"),
    ], ids=["direction", "off-grid", "float-grid", "float-size", "shared-cell", "spelling",
            "target-array"])
    def test_bad_field_is_named(self, situation, target, field):
        record = {"command": "walk,to,a,square", "target_commands": target,
                  "situation": {**self.SITUATION, **situation}}
        with pytest.raises(DataFormatError,
                           match=rf"^bad external record: field `{re.escape(field)}`: "):
            import_external_record(record)

    def test_direction_map_gives_the_direction_domain(self):
        record = {"command": "walk,to,a,square", "target_commands": "Turn Left,WALK",
                  "situation": {**self.SITUATION, "agent_direction": 7}}
        ex = import_external_record(record, direction_map={7: 2})
        assert ex.state.agent.direction == Heading.SOUTH
        assert ex.actions == (Action.LTURN, Action.WALK)
        with pytest.raises(DataFormatError, match="field `situation.agent_direction`: .*got 7"):
            import_external_record(record)


def _attach_oracle_supports(dataset, per_query=3):
    from supportgen.engines import OracleSolver, heuristic_supports

    solver = OracleSolver()
    entries = []
    for ex in dataset.split(Split.H)[:4]:
        entries.append((ex, heuristic_supports(ex, solver, n=per_query)))
    return entries


class TestExportIcl:
    def test_identity_policy_preserves_targets(self, small_dataset):
        entries = _attach_oracle_supports(small_dataset)
        records = list(export_icl_records(iter(entries), policy="identity", seed=0))
        for (example, supports), record in zip(entries, records):
            assert record["query"]["target"] == [int(a) for a in example.actions]
            assert record["permutation"] == list(range(6))

    def test_permute_policy_is_invertible(self, small_dataset):
        entries = _attach_oracle_supports(small_dataset)
        records = list(export_icl_records(iter(entries), policy="permute", seed=9))
        for (example, sset), record in zip(entries, records):
            decoded = decode_icl_targets(record)
            assert decoded[-1] == tuple(int(a) for a in example.actions)
            for support, back in zip(sset.supports, decoded[:-1]):
                assert back == tuple(int(a) for a in support.actions)

    def test_shared_permutation_within_record(self, small_dataset):
        # the same relabeling maps every target in a record: symbol histograms
        # must agree after applying the stored mapping
        entries = _attach_oracle_supports(small_dataset)
        records = list(export_icl_records(iter(entries), policy="permute", seed=9))
        for (example, sset), record in zip(entries, records):
            mapping = record["permutation"]
            for support, emitted in zip(sset.supports, [s["target"] for s in record["supports"]]):
                assert [mapping[int(a)] for a in support.actions] == emitted

    def test_unsolved_support_has_null_target(self, small_dataset):
        """A support the solver could not solve keeps its state and command
        and exports a null target, under either policy."""
        (example, sset), = _attach_oracle_supports(small_dataset)[:1]
        unsolved = Support(sset.supports[0].state, sset.supports[0].instruction, None)
        sset.supports.insert(1, unsolved)
        for policy in ("identity", "permute"):
            (record,) = export_icl_records([(example, sset)], policy=policy, seed=4)
            assert [s["target"] is None for s in record["supports"]] == \
                [s is unsolved for s in sset.supports]
            assert record["supports"][1] == {**record["supports"][0], "target": None}
            assert decode_icl_targets(record)[1] is None

    def test_missing_supports_error(self, small_dataset):
        example = small_dataset.examples[0]
        with pytest.raises(DataFormatError):
            list(export_icl_records(iter([(example, SupportSet("heuristic", []))]),
                                    policy="identity", seed=0))

    def test_word_permutation_flag(self, small_dataset):
        entries = _attach_oracle_supports(small_dataset)
        records = list(export_icl_records(iter(entries), policy="permute", seed=3,
                                          permute_words=True))
        assert all(r["word_permutation"] is not None for r in records)
        records = list(export_icl_records(iter(entries), policy="permute", seed=3))
        assert all(r["word_permutation"] is None for r in records)
