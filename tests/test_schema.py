"""The record table: one field of one valid record made wrong fails every
command that reads it with exit 3 and the field's path, and writes nothing."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supportgen.cli import EXIT_DATA, EXIT_OK, main
from supportgen.dataset import TEST_SPLITS, DatasetConfig, generate_dataset
from supportgen.errors import DataFormatError
from supportgen.schema import (ACTION_NAMES, EXAMPLE, EXTERNAL_ACTION_NAMES, OBJECT, STATE,
                               decode_actions, fault)
from supportgen.world import Action


#: The records of a valid dataset.
RECORDS = [ex.to_record() for ex in generate_dataset(
    DatasetConfig(seed=5, train_count=24, split_counts={s: 2 for s in TEST_SPLITS})).examples]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, Path]:
    """The valid dataset, its heuristic support file (line i has record i
    as its query) and a work folder."""
    root = tmp_path_factory.mktemp("schema")
    data, sup = root / "data.jsonl", root / "sup.jsonl"
    data.write_text("".join(json.dumps(record) + "\n" for record in RECORDS))
    assert main(["gen-supports", "--data", str(data), "--strategy", "heuristic", "--seed", "1",
                 "--out", str(sup)]) == EXIT_OK
    work = root / "work"
    work.mkdir()
    return {"data": data, "sup": sup, "work": work}


#: Values of another JSON type than a field's, by the field's type.
WRONG_TYPE = {
    int: lambda v: [v + 0.5, float(v), v == 1, str(v), None],
    str: lambda v: [5, 2.5, True, None, [v]],
    dict: lambda v: [[], "", 3, None],
    list: lambda v: [{}, "", 7, None],
}
#: Values outside each leaf field's domain (x and y are off the 6x6 grid).
OUT_OF_DOMAIN = {
    "grid_size": [0, -2], "x": [6, -1, 40], "y": [6, -1], "d": [4, -1],
    "shape": ["hexagon", "Circle"], "color": ["purple", ""], "size": [0, 5],
    "command": ["walk,to,a,dragon", "walk,a,circle", ""], "target": ["WALK,FLY", "walk"],
    "split": ["z", "TRAIN"],
}


def field_paths(record: dict) -> list[tuple]:
    """Every field of a dataset record, as key paths."""
    paths = [(name,) for name in EXAMPLE]
    paths += [("agent", name) for name in STATE["agent"].domain]
    for i, _ in enumerate(record["objects"]):
        paths += [("objects", i)] + [("objects", i, name) for name in OBJECT]
    return paths


def dotted(path: tuple) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@st.composite
def mutations(draw):
    """(record index, field path, kind, value): one change to one field of
    one of RECORDS."""
    index = draw(st.integers(0, len(RECORDS) - 1))
    path = draw(st.sampled_from(field_paths(RECORDS[index])))
    value = RECORDS[index]
    for key in path:
        value = value[key]
    kinds = ["type", "nesting"]
    if isinstance(path[-1], str):
        kinds.append("missing")
    if path[-1] in OUT_OF_DOMAIN:
        kinds.append("domain")
    kind = draw(st.sampled_from(kinds))
    if kind == "type":
        new = draw(st.sampled_from(WRONG_TYPE[type(value)](value)))
    elif kind == "domain":
        new = draw(st.sampled_from(OUT_OF_DOMAIN[path[-1]]))
    else:
        new = [value]
    return index, path, kind, new


def mutated(record: dict, path: tuple, kind: str, value) -> dict:
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if kind == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


def run_failing(argv: list[str], out: Path) -> str:
    """Run a command that must fail with exit 3 and write nothing; returns
    its error message."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    message = stderr.getvalue()
    assert code == EXIT_DATA, message
    assert not out.exists() and not out.with_name(out.name + ".tmp").exists()
    return message


def named_field(message: str, lineno: int) -> str:
    found = re.match(r"error: line (\d+): field `([^`]+)`: ", message)
    assert found, message
    assert int(found.group(1)) == lineno, message
    return found.group(2)


def names(reported: str, expected: str) -> bool:
    """The reported path is the expected field or lies inside it (a value
    wrapped in an array fails at its first element)."""
    return reported == expected or reported.startswith((expected + "[", expected + "."))


@given(mutation=mutations())
@settings(max_examples=60, deadline=None)
@example(mutation=(1, ("objects", 0, "x"), "type", 4.9))
@example(mutation=(2, ("objects", 1, "x"), "type", True))
@example(mutation=(3, ("grid_size",), "type", "6"))
def test_one_bad_field_fails_every_reader(files, mutation):
    """gen-supports and permute over the dataset, and analyze --criteria and
    export-icl over a support file whose query is the bad record, each exit
    3 naming the field, and write no output."""
    index, path, kind, value = mutation
    lines = [json.loads(line) for line in files["sup"].read_text().splitlines()]
    work = files["work"]
    bad = list(RECORDS)
    bad[index] = mutated(RECORDS[index], path, kind, value)
    bad_data = work / "data.jsonl"
    bad_data.write_text("".join(json.dumps(record) + "\n" for record in bad))
    lines[index]["query"] = bad[index]
    bad_sup = work / "sup.jsonl"
    bad_sup.write_text("".join(json.dumps(line) + "\n" for line in lines))
    expected = dotted(path)
    for argv, lineno, prefix in [
        (["gen-supports", "--data", str(bad_data), "--strategy", "heuristic", "--seed", "1"],
         index + 1, ""),
        (["permute", "--data", str(bad_data), "--seed", "1"], index + 1, ""),
        (["analyze", "--supports", str(bad_sup), "--criteria"], index + 1, "query."),
        (["export-icl", "--supports", str(bad_sup), "--seed", "1"], index + 1, "query."),
    ]:
        message = run_failing(argv, work / "out.jsonl")
        assert names(named_field(message, lineno), prefix + expected), (argv[0], message)


@pytest.mark.parametrize("change, field", [
    (lambda line: line.update(strategy=5), "strategy"),
    (lambda line: line.update(meta=[]), "meta"),
    (lambda line: line.update(supports={}), "supports"),
    (lambda line: line["supports"][0].update(target=5), "supports[0].target"),
    (lambda line: line["supports"][1].pop("command"), "supports[1].command"),
    (lambda line: line["supports"][0]["objects"].append(line["supports"][0]["objects"][0]),
     "supports[0].objects"),
], ids=["strategy", "meta", "supports-map", "target-number", "missing-command", "shared-cell"])
def test_support_line_fields_are_named(files, change, field):
    lines = [json.loads(line) for line in files["sup"].read_text().splitlines()]
    change(lines[3])
    bad = files["work"] / "bad-line.jsonl"
    bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
    message = run_failing(["analyze", "--supports", str(bad), "--criteria"],
                          files["work"] / "report.json")
    assert named_field(message, 4) == field


def test_fault_names_shared_cells_and_the_first_bad_field():
    record = {"grid_size": 6, "agent": {"x": 0, "y": 0, "d": 1},
              "objects": [{"shape": "circle", "color": "red", "size": 1, "x": 2, "y": 0},
                          {"shape": "square", "color": "blue", "size": 2, "x": 2, "y": 0}],
              "command": "walk,to,a,circle", "target": "RTURN,WALK,WALK", "split": "train"}
    assert fault(record, EXAMPLE) == \
        "field `objects`: entries 0 and 1 share the cell x=2, y=0"
    record["objects"][1]["x"] = 3
    assert fault(record, EXAMPLE) is None
    assert fault({**record, "grid_size": True, "split": "z"}, EXAMPLE) == \
        "field `grid_size`: expected an integer, got true"
    assert fault([record], EXAMPLE) == f"expected an object, got {json.dumps([record])[:57]}..."


@pytest.mark.parametrize("names, any_case, spellings, actions", [
    (["WALK", "LTURN"], False, ACTION_NAMES, (Action.WALK, Action.LTURN)),
    (["walk", "lTurn"], True, ACTION_NAMES, (Action.WALK, Action.LTURN)),
    (["turn left", "Turn Right", "walk", "PUSH"], True, EXTERNAL_ACTION_NAMES,
     (Action.LTURN, Action.RTURN, Action.WALK, Action.PUSH)),
])
def test_one_action_decoder_per_case_policy(names, any_case, spellings, actions):
    assert decode_actions(names, any_case=any_case, spellings=spellings) == actions


@pytest.mark.parametrize("names, any_case, spellings", [
    (["walk"], False, ACTION_NAMES),
    (["turn left"], True, ACTION_NAMES),
    (["TURN_LEFT"], True, EXTERNAL_ACTION_NAMES),
])
def test_action_decoder_rejects_other_spellings(names, any_case, spellings):
    with pytest.raises(DataFormatError, match="unknown action"):
        decode_actions(names, any_case=any_case, spellings=spellings)
