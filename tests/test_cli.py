import hashlib
import itertools
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import supportgen
from supportgen.cli import (
    EXIT_DATA,
    EXIT_EXTERNAL,
    EXIT_OK,
    STRATEGIES,
    STRATEGY_LIST,
    build_parser,
    main,
    read_support_file,
    write_support_file,
)


README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return main(argv)


def digests(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def data_file(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("data") / "dataset.jsonl"
    code = run(["gen-data", "--seed", "7", "--train", "120", "--per-split", "10",
                "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestGenData:
    def test_counts_and_manifest(self, data_file):
        lines = data_file.read_text().splitlines()
        assert len(lines) == 120 + 8 * 10
        manifest = json.loads(
            data_file.with_suffix(".jsonl.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert data_file.name in manifest["outputs"]

    def test_missing_seed_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--train", "5", "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2

    def test_rerun_is_byte_identical(self, data_file, tmp_path):
        again = tmp_path / "again.jsonl"
        assert run(["gen-data", "--seed", "7", "--train", "120", "--per-split", "10",
                    "--out", str(again)]) == EXIT_OK
        assert digests(again) == digests(data_file)
        m1 = json.loads(data_file.with_suffix(".jsonl.manifest.json").read_text())
        m2 = json.loads(again.with_suffix(".jsonl.manifest.json").read_text())
        assert m1["outputs"][data_file.name] == m2["outputs"][again.name]
        assert m1["config_digest"] == m2["config_digest"]

    def test_object_bounds_respected(self, data_file):
        for line in data_file.read_text().splitlines():
            record = json.loads(line)
            assert record["grid_size"] == 6
            assert 3 <= len(record["objects"]) <= 10

    def test_bad_object_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--seed", "1", "--objects", "wat",
                 "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--objects", "5..3"], ["--objects", "0..3"], ["--objects", "2.."],
        ["--train", "-1"], ["--per-split", "-2"], ["--split-counts", "h=-1"],
        ["--grid", "0"], ["--grid", "six"], ["--seed", "-1"],
    ], ids=" ".join)
    def test_bad_count_is_usage_error_and_writes_nothing(self, flags, tmp_path):
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--seed", "1", "--train", "5", "--per-split", "1", *flags,
                 "--out", str(out)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_objects_over_grid_capacity_is_data_error(self, tmp_path):
        out = tmp_path / "x.jsonl"
        assert run(["gen-data", "--seed", "1", "--train", "5", "--per-split", "1",
                    "--grid", "3", "--objects", "1..9", "--out", str(out)]) == EXIT_DATA
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec", ["train=5", "z=3", "h=x"])
    def test_split_counts_outside_test_splits_is_usage_error(self, spec, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--seed", "1", "--train", "5", "--per-split", "0",
                 "--split-counts", spec, "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["export-icl", "permute"])
def test_negative_seed_is_usage_error_before_any_read(data_file, tmp_path, monkeypatch,
                                                      command):
    """--seed is an integer >= 0 here as in gen-data, gen-supports and
    analyze (their usage-error tests): a negative one exits 2 before any
    file is read, and nothing is written."""
    import supportgen.cli

    def no_read(path):
        raise AssertionError("an input file was read")

    monkeypatch.setattr(supportgen.cli, "import_dataset", no_read)
    monkeypatch.setattr(supportgen.cli, "read_support_file", no_read)
    source = "--supports" if command == "export-icl" else "--data"
    with pytest.raises(SystemExit) as exc:
        run([command, source, str(data_file), "--seed", "-1",
             "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def reference_example(record: dict):
    """The per-record construction import_dataset used before decoded parts
    were shared: fresh objects for every field of every record."""
    from supportgen.dataset import Example, Split
    from supportgen.errors import DataFormatError
    from supportgen.grammar import parse
    from supportgen.world import Action, AgentPose, Heading, ObjectSpec, Position, WorldState

    for fieldname in ("grid_size", "agent", "objects", "command", "target", "split"):
        if fieldname not in record:
            raise DataFormatError(f"missing field {fieldname!r}")
    agent = record["agent"]
    state = WorldState(
        grid_size=int(record["grid_size"]),
        agent=AgentPose(Position(int(agent["x"]), int(agent["y"])), Heading(int(agent["d"]))),
        objects=tuple(
            ObjectSpec(o["shape"], o["color"], int(o["size"]), Position(int(o["x"]), int(o["y"])))
            for o in record["objects"]
        ),
    )
    names = [t for t in record["target"].split(",") if t]
    return Example(
        state=state,
        instruction=parse([t for t in record["command"].split(",") if t]),
        actions=tuple(Action[name] for name in names),
        split=Split(record["split"]),
    )


class TestDecode:
    @pytest.mark.pins
    def test_decode_equals_reference(self, data_file):
        """import_dataset equals fresh per-record construction, and equal
        immutable parts of different records are one shared object."""
        from supportgen.dataset import import_dataset

        lines = data_file.read_text(encoding="utf-8").splitlines()
        reference = [reference_example(json.loads(line)) for line in lines]
        examples = import_dataset(data_file).examples
        assert examples == reference
        assert_parts_shared(examples)

    def test_generated_parts_are_shared(self):
        """generate_dataset shares equal parts the way import_dataset does,
        action tuples included."""
        from supportgen.dataset import DatasetConfig, Split, generate_dataset

        examples = generate_dataset(DatasetConfig(seed=7, train_count=300,
                                                  split_counts={Split.H: 20})).examples
        assert_parts_shared(examples)
        actions = [ex.actions for ex in examples]
        assert len({id(a) for a in actions}) == len(set(actions)) < len(actions)


def assert_parts_shared(examples):
    """Equal agent poses, object specs, instructions and action tuples of
    different examples are one object."""
    first: dict = {}
    parts = [part for ex in examples
             for part in (ex.state.agent, *ex.state.objects, ex.instruction, ex.actions)]
    assert all(first.setdefault(part, part) is part for part in parts)
    assert len(first) < len(parts)


@pytest.mark.pins
class TestPinnedBytes:
    """Output digests for fixed seeds. A change to the generator's candidate
    order, its RNG draws or Rand-Instrs' instruction order changes them."""

    def test_gen_data_bytes(self, data_file):
        assert digests(data_file) == \
            "a8e607286655a6f6a4c918596ec4f13108389619de1d1e1cae4692088da96e23"

    def test_gen_data_bytes_small_grid(self, tmp_path):
        """A 4x4 grid up to full (15 objects) with per-split counts, one
        split empty."""
        out = tmp_path / "grid4.jsonl"
        assert run(["gen-data", "--seed", "11", "--train", "80", "--per-split", "5",
                    "--grid", "4", "--objects", "1..15", "--split-counts", "h=9,d=0,b=7",
                    "--out", str(out)]) == EXIT_OK
        assert digests(out) == \
            "dd3c7eab7dee115ea420e52bea5493d83b487307eb78e5a507c7d980804cc90c"

    def test_random_supports_bytes(self, data_file):
        import numpy as np

        from supportgen.dataset import Split, import_dataset
        from supportgen.engines import OracleSolver, random_supports
        from supportgen.grammar import command_string

        h = hashlib.sha256()
        solver = OracleSolver()
        for idx, ex in enumerate(import_dataset(data_file).split(Split.H)):
            sset = random_supports(ex, solver, np.random.default_rng([11, idx]))
            for s in sset.supports:
                actions = ",".join(a.name for a in s.actions)
                h.update(f"{command_string(s.instruction)}|{actions}\n".encode())
        assert h.hexdigest() == \
            "087124f41597fba7bb7d07943884b4c4d8de5475b1c5bacaa2cda62de963c3c3"

    @pytest.mark.parametrize("strategy, digest", [
        ("covr", "465654f8d5dd6020a1c47d55eea907eaaf8a2042882803610509500548785650"),
        ("gandr", "6094111a4881751ac2fc61054b0e3191248a7b63c7a398107543cf25583adf9c"),
    ])
    def test_retrieval_supports_bytes(self, data_file, tmp_path, strategy, digest):
        """Pins each retriever's encoding, k-means and IVF order: 16 cells
        over the 120 train examples."""
        out = tmp_path / f"{strategy}.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", strategy,
                    "--seed", "3", "--splits", "h", "--cells", "16",
                    "--out", str(out)]) == EXIT_OK
        assert digests(out) == digest

    @pytest.mark.parametrize("flags, digest", [
        ([], "16ad0228bc0880238091ce2d2866eaafb5d76d3514ded547b560866dba1b604d"),
        (["--replace-invalid"],
         "a1229761283de77eb5e462f334cc128f4666620c13fc1b42516e63ffd26f1a94"),
    ])
    def test_demogen_supports_bytes(self, data_file, tmp_path, flags, digest):
        """Pins DemoGen's infill draws, its ranking (score, then realized
        string) and its scores at the default k over two splits."""
        out = tmp_path / "demogen.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "demogen",
                    "--seed", "3", "--splits", "h,c", *flags, "--out", str(out)]) == EXIT_OK
        assert digests(out) == digest

    def test_export_icl_bytes(self, data_file, tmp_path):
        """Pins the ICL record layout and its action and word permutations
        over heuristic supports of two splits."""
        sup, icl = tmp_path / "sup.jsonl", tmp_path / "icl.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
                    "--seed", "3", "--splits", "h,c", "--out", str(sup)]) == EXIT_OK
        assert run(["export-icl", "--supports", str(sup), "--policy", "permute",
                    "--permute-words", "--seed", "11", "--out", str(icl)]) == EXIT_OK
        assert digests(icl) == \
            "ee4f74f4a98ce01bbea4019a60dc042b70f2b156bcc825200810b40e80a225f7"

    def test_permute_bytes(self, data_file, tmp_path):
        out = tmp_path / "perm.jsonl"
        assert run(["permute", "--data", str(data_file), "--seed", "2",
                    "--out", str(out)]) == EXIT_OK
        assert digests(out) == \
            "8334ec73efdd38ff04c8e3545eb46fdc4fd63353444fa806e6197bc135c9ba17"


@pytest.mark.pins
@pytest.mark.parametrize("strategy, flags", [
    ("random", []), ("heuristic", []), ("demogen", []), ("demogen", ["--replace-invalid"]),
    ("gandr", ["--cells", "16"]),
], ids=["random", "heuristic", "demogen", "demogen-replace-invalid", "gandr"])
def test_external_solver_writes_the_oracle_bytes(data_file, tmp_path, strategy, flags):
    """Batched solving through the line protocol changes no support byte:
    the oracle served over it gives the in-process oracle's output."""
    base = ["gen-supports", "--data", str(data_file), "--strategy", strategy,
            "--seed", "3", "--splits", "h,c", *flags]
    oracle, external = tmp_path / "oracle.jsonl", tmp_path / "external.jsonl"
    assert run(base + ["--solver", "oracle", "--out", str(oracle)]) == EXIT_OK
    assert run(base + ["--solver", "external", "--solver-cmd",
                       f"{shlex.quote(sys.executable)} -m supportgen.cli serve-oracle",
                       "--out", str(external)]) == EXIT_OK
    assert external.read_bytes() == oracle.read_bytes()


class TestGenSupports:
    def test_heuristic_then_criteria_all_ones(self, data_file, tmp_path):
        sup = tmp_path / "sup.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
                    "--seed", "3", "--splits", "h", "--out", str(sup)]) == EXIT_OK
        report = tmp_path / "report.json"
        assert run(["analyze", "--supports", str(sup), "--criteria",
                    "--out", str(report)]) == EXIT_OK
        criteria = json.loads(report.read_text())["criteria"]
        rows = [v for k, v in criteria.items() if k.startswith("(")]
        assert rows == [1.0] * 9

    def test_strategy_alias_and_limit(self, data_file, tmp_path):
        sup = tmp_path / "dg.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "DG",
                    "--seed", "3", "--splits", "h", "--limit", "2", "--k", "64",
                    "--out", str(sup)]) == EXIT_OK
        lines = [json.loads(l) for l in sup.read_text().splitlines()]
        assert len(lines) == 2
        assert all(l["strategy"] == "demogen" for l in lines)
        assert all(len(l["supports"]) <= 16 for l in lines)

    def test_unknown_strategy_is_data_error(self, data_file, tmp_path):
        code = run(["gen-supports", "--data", str(data_file), "--strategy", "nope",
                    "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
        assert code == EXIT_DATA

    def test_covr_and_gandr_wiring(self, data_file, tmp_path):
        for strategy in ("covr", "gandr"):
            out = tmp_path / f"{strategy}.jsonl"
            assert run(["gen-supports", "--data", str(data_file),
                        "--strategy", strategy, "--seed", "2", "--splits", "h",
                        "--limit", "2", "--cells", "16", "--pca-dim", "32",
                        "--probes", "16", "--out", str(out)]) == EXIT_OK
            lines = [json.loads(l) for l in out.read_text().splitlines()]
            assert len(lines) == 2
            assert all(l["supports"] for l in lines)
            # retrieval strategies attach stored train actions, never null
            assert all(s["target"] is not None
                       for l in lines for s in l["supports"])

    def test_provenance_reaches_support_file(self, data_file, tmp_path):
        helper = tmp_path / "failing_helper.py"
        helper.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    msg = json.loads(line)\n"
            "    print(json.dumps({'id': msg['id'], 'error': 'no guess'}), flush=True)\n")
        common = ["--data", str(data_file), "--seed", "2", "--splits", "h", "--limit", "2",
                  "--cells", "16", "--pca-dim", "32", "--probes", "16"]
        gandr = tmp_path / "gandr.jsonl"
        assert run(["gen-supports", "--strategy", "gandr", *common,
                    "--solver", "external", "--solver-cmd", f"{sys.executable} {helper}",
                    "--out", str(gandr)]) == EXIT_OK
        lines = [json.loads(l) for l in gandr.read_text().splitlines()]
        assert len(lines) == 2
        assert all(l["meta"] == {"helper_failed": True} for l in lines)
        assert all(isinstance(s["retrieval"], float) for l in lines for s in l["supports"])

        covr = tmp_path / "covr.jsonl"
        assert run(["gen-supports", "--strategy", "covr", *common,
                    "--out", str(covr)]) == EXIT_OK
        for line in covr.read_text().splitlines():
            for support in json.loads(line)["supports"]:
                assert {"retrieval", "cosine", "two_grams", "one_grams"} <= support.keys()

        demogen = tmp_path / "demogen.jsonl"
        assert run(["gen-supports", "--strategy", "demogen", "--data", str(data_file),
                    "--seed", "2", "--splits", "h", "--limit", "1", "--k", "64",
                    "--out", str(demogen)]) == EXIT_OK
        meta = json.loads(demogen.read_text().splitlines()[0])["meta"]
        assert meta["sampled"] == 64 and 0 < meta["unique"] <= 64

    def test_workers_option_is_gone(self, data_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen-supports", "--data", str(data_file), "--strategy", "random",
                 "--seed", "5", "--workers", "2", "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2

    def test_model_file_option_is_gone(self, data_file, tmp_path):
        """DemoGen fits its model from the train split on every run."""
        with pytest.raises(SystemExit) as exc:
            run(["gen-supports", "--data", str(data_file), "--strategy", "demogen",
                 "--seed", "5", "--model-file", str(tmp_path / "model.json"),
                 "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, alias", [
        (name, alias) for name, strategy in STRATEGIES.items()
        for alias in (name.upper(), *strategy.aliases)])
    def test_alias_gives_canonical_bytes(self, data_file, tmp_path, name, alias):
        base = ["gen-supports", "--data", str(data_file), "--seed", "4", "--splits", "h",
                "--limit", "3", "--k", "64", "--cells", "8", "--pca-dim", "16"]
        a, b = tmp_path / "name.jsonl", tmp_path / "alias.jsonl"
        assert run(base + ["--strategy", name, "--out", str(a)]) == EXIT_OK
        assert run(base + ["--strategy", alias, "--out", str(b)]) == EXIT_OK
        assert digests(a) == digests(b)
        lines = [json.loads(l) for l in b.read_text().splitlines()]
        assert all(l["strategy"] == name for l in lines)

    def test_strategy_list_matches_help_and_readme(self, capsys):
        with pytest.raises(SystemExit):
            run(["gen-supports", "--help"])
        assert " ".join(STRATEGY_LIST.split()) in " ".join(capsys.readouterr().out.split())
        assert STRATEGY_LIST in README.read_text(encoding="utf-8")

    @pytest.mark.parametrize("strategy, flag", [
        ("covr", ["--pca-dim", "8"]),
        ("demogen", ["--replace-invalid"]),
    ])
    def test_output_flags_change_config_digest(self, data_file, tmp_path, strategy, flag):
        base = ["gen-supports", "--data", str(data_file), "--strategy", strategy,
                "--seed", "2", "--splits", "h", "--limit", "2", "--k", "64",
                "--cells", "8", "--pca-dim", "16"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(base + ["--out", str(a)]) == EXIT_OK
        assert run(base + flag + ["--out", str(b)]) == EXIT_OK
        ma, mb = (json.loads(p.with_suffix(".jsonl.manifest.json").read_text()) for p in (a, b))
        assert ma["config_digest"] != mb["config_digest"]
        assert {"pca_dim", "replace_invalid"} <= ma["config"].keys()

    @pytest.mark.pins
    @pytest.mark.parametrize("strategy", ["covr", "gandr", "demogen"])
    def test_support_file_round_trip(self, data_file, tmp_path, strategy):
        """Reading a support file and writing it back gives the same bytes."""
        out = tmp_path / f"{strategy}.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", strategy,
                    "--seed", "2", "--splits", "c,h", "--limit", "3", "--k", "64",
                    "--cells", "8", "--pca-dim", "16", "--out", str(out)]) == EXIT_OK
        pairs = list(read_support_file(out))
        if strategy == "demogen":
            assert any(s.actions is None for _, sset in pairs for s in sset.supports)
        again = tmp_path / "again.jsonl"
        write_support_file(again, pairs)
        assert again.read_bytes() == out.read_bytes()

    def test_support_file_is_read_lazily(self, data_file, tmp_path):
        """Lines are decoded as the iterator reaches them; a bad line fails
        there, naming its number."""
        from supportgen.errors import DataFormatError

        out = tmp_path / "sup.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
                    "--seed", "3", "--splits", "h", "--limit", "4", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:2] + ["not json"] + lines[3:]) + "\n")
        pairs = read_support_file(out)
        assert [query.split.value for query, _ in itertools.islice(pairs, 2)] == ["h", "h"]
        with pytest.raises(DataFormatError, match="line 3"):
            next(pairs)

    def test_external_solver_closed_when_run_fails(self, data_file, tmp_path):
        marker = tmp_path / "closed"
        helper = tmp_path / "helper.py"
        helper.write_text("import sys\n"
                          "for line in sys.stdin:\n"
                          "    pass\n"
                          f"open({str(marker)!r}, 'w').close()\n")
        # demogen fails in prepare: the data holds no train split
        data = tmp_path / "no_train.jsonl"
        data.write_text("".join(line + "\n" for line in data_file.read_text().splitlines()
                                if json.loads(line)["split"] != "train"))
        code = run(["gen-supports", "--data", str(data), "--strategy", "demogen",
                    "--seed", "3", "--splits", "h", "--limit", "1", "--solver", "external",
                    "--solver-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(helper))}",
                    "--out", str(tmp_path / "x.jsonl")])
        assert code == EXIT_DATA
        assert marker.exists()

    def test_external_solver_closed_when_decode_fails(self, data_file, tmp_path):
        """The child starts before the data is read, and a bad line still
        closes it."""
        marker = tmp_path / "closed"
        helper = tmp_path / "helper.py"
        helper.write_text("import sys\n"
                          "for line in sys.stdin:\n"
                          "    pass\n"
                          f"open({str(marker)!r}, 'w').close()\n")
        data = tmp_path / "bad.jsonl"
        data.write_text(data_file.read_text().splitlines()[0] + "\n{}\n")
        code = run(["gen-supports", "--data", str(data), "--strategy", "random",
                    "--seed", "3", "--splits", "h", "--solver", "external",
                    "--solver-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(helper))}",
                    "--out", str(tmp_path / "x.jsonl")])
        assert code == EXIT_DATA
        assert marker.exists()

    def test_unknown_split_is_usage_error_before_any_solver(self, data_file, tmp_path):
        marker = tmp_path / "started"
        helper = tmp_path / "helper.py"
        helper.write_text(f"open({str(marker)!r}, 'w').close()\n")
        with pytest.raises(SystemExit) as exc:
            run(["gen-supports", "--data", str(data_file), "--strategy", "random",
                 "--seed", "3", "--splits", "h,zz", "--solver", "external",
                 "--solver-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(helper))}",
                 "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2
        assert not marker.exists()

    @pytest.mark.parametrize("flags", [
        ["--n", "0"], ["--k", "0"], ["--cells", "0"], ["--probes", "0"],
        ["--pca-dim", "0"], ["--pca-dim", "-5"], ["--limit", "-1"], ["--cells", "many"],
        ["--mask-rate", "1.5"], ["--mask-rate", "-0.1"], ["--mask-rate", "nan"],
        ["--solver-timeout", "0"], ["--solver-timeout", "-1"], ["--solver-timeout", "inf"],
        ["--alpha", "nan"], ["--alpha", "inf"], ["--alpha", "-3"],
        ["--strategy", "gandr", "--alpha", "nan"], ["--strategy", "gandr", "--alpha", "inf"],
        ["--strategy", "gandr", "--alpha", "-3"], ["--splits", ","], ["--splits", ""],
        ["--seed", "-1"],
    ], ids=" ".join)
    def test_out_of_range_is_usage_error_before_decode(self, data_file, tmp_path,
                                                       monkeypatch, flags):
        import supportgen.cli

        def no_decode(path):
            raise AssertionError("the data file was decoded")

        monkeypatch.setattr(supportgen.cli, "import_dataset", no_decode)
        with pytest.raises(SystemExit) as exc:
            run(["gen-supports", "--data", str(data_file), "--strategy", "covr",
                 "--seed", "3", "--splits", "h", *flags, "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("child, timeout", [
        # answers the first request, then exits
        ("line = sys.stdin.readline()\n"
         "print(json.dumps({'id': json.loads(line)['id'], 'actions': ['WALK']}), flush=True)\n",
         "30"),
        # reads every request and never answers
        ("for line in sys.stdin:\n    pass\n", "0.5"),
        # answers with a line that is not JSON
        ("sys.stdin.readline()\nprint('garbage', flush=True)\nsys.stdin.read()\n", "30"),
    ], ids=["exits-after-first-reply", "never-answers", "garbage-line"])
    def test_external_solver_fault_exits_4(self, data_file, tmp_path, child, timeout):
        """A dead, silent or garbling solver fails the command; only an
        in-band error reply marks a support unsolvable."""
        helper = tmp_path / "child.py"
        helper.write_text("import json, sys\n" + child)
        out = tmp_path / "x.jsonl"
        code = run(["gen-supports", "--data", str(data_file), "--strategy", "random",
                    "--seed", "5", "--splits", "h", "--limit", "1",
                    "--solver", "external", "--solver-timeout", timeout,
                    "--solver-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(helper))}",
                    "--out", str(out)])
        assert code == EXIT_EXTERNAL
        assert not out.exists()

    @pytest.mark.parametrize("reply_id", ["str(key)", "key + 0.4", "float(key)",
                                          "key == 1 if key < 2 else key"],
                             ids=["string", "fraction", "integral-float", "bool"])
    def test_reply_id_must_be_an_integer(self, data_file, tmp_path, capsys, reply_id):
        """A reply whose id is a JSON string, float or bool is a protocol
        violation, also when int() of it is an awaited id."""
        helper = tmp_path / "child.py"
        helper.write_text("import json, sys\n"
                          "for line in sys.stdin:\n"
                          "    key = json.loads(line)['id']\n"
                          f"    print(json.dumps({{'id': {reply_id}, 'actions': ['WALK']}}),"
                          " flush=True)\n")
        out = tmp_path / "x.jsonl"
        code = run(["gen-supports", "--data", str(data_file), "--strategy", "random",
                    "--seed", "5", "--splits", "h", "--limit", "1", "--solver", "external",
                    "--solver-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(helper))}",
                    "--out", str(out)])
        assert code == EXIT_EXTERNAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert "protocol violation: " in err and "field `id`: expected an integer, got " in err

    @pytest.mark.parametrize("existing", [False, True])
    def test_solver_death_mid_stream_leaves_no_partial_file(self, data_file, tmp_path,
                                                            monkeypatch, existing):
        """Support sets are written as they are built; a solver that dies
        after the first set is written still leaves the old output alone."""
        import supportgen.cli

        written = []
        to_record = supportgen.cli._support_to_record
        monkeypatch.setattr(supportgen.cli, "_support_to_record",
                            lambda support: written.append(support) or to_record(support))
        helper = tmp_path / "child.py"
        helper.write_text("import json, sys\n"
                          "for _ in range(20):\n"
                          "    key = json.loads(sys.stdin.readline())['id']\n"
                          "    print(json.dumps({'id': key, 'actions': ['WALK']}), flush=True)\n")
        out = tmp_path / "x.jsonl"
        manifest = tmp_path / "x.jsonl.manifest.json"
        if existing:
            out.write_text("earlier output\n")
            manifest.write_text("{}\n")
        code = run(["gen-supports", "--data", str(data_file), "--strategy", "random",
                    "--seed", "5", "--splits", "h", "--limit", "3", "--solver", "external",
                    "--solver-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(helper))}",
                    "--out", str(out)])
        assert code == EXIT_EXTERNAL
        assert len(written) == 16  # the first query's line, and no more
        names = ["child.py", "x.jsonl", "x.jsonl.manifest.json"] if existing else ["child.py"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        if existing:
            assert out.read_text() == "earlier output\n"
            assert manifest.read_text() == "{}\n"

    @pytest.mark.parametrize("flags", [[], ["--solver-cmd", ""], ["--solver-cmd", "  "]],
                             ids=["missing", "empty", "blank"])
    def test_no_solver_cmd_is_data_error(self, data_file, tmp_path, flags):
        out = tmp_path / "x.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "random",
                    "--seed", "5", "--splits", "h", "--solver", "external", *flags,
                    "--out", str(out)]) == EXIT_DATA
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [[], ["--solver", "oracle"]], ids=["default", "explicit"])
    def test_solver_cmd_without_external_solver_is_data_error(self, data_file, tmp_path,
                                                              monkeypatch, flags):
        """--solver-cmd under the oracle solver is rejected before the data
        is read or any process starts."""
        import subprocess

        import supportgen.cli

        def no_call(*args, **kwargs):
            raise AssertionError("a process was started or the data was read")

        monkeypatch.setattr(subprocess, "Popen", no_call)
        monkeypatch.setattr(supportgen.cli, "import_dataset", no_call)
        out = tmp_path / "x.jsonl"
        assert run(["gen-supports", "--data", str(data_file),
                    "--strategy", "random", "--seed", "5", *flags,
                    "--solver-cmd", "python -m supportgen.cli serve-oracle",
                    "--out", str(out)]) == EXIT_DATA
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [[], ["--solver", "oracle"]], ids=["default", "explicit"])
    def test_solver_timeout_without_external_solver_is_data_error(self, data_file, tmp_path,
                                                                  monkeypatch, capsys, flags):
        """--solver-timeout under the oracle solver, which would ignore it,
        is rejected before the data is read."""
        import supportgen.cli

        def no_decode(path):
            raise AssertionError("the data file was decoded")

        monkeypatch.setattr(supportgen.cli, "import_dataset", no_decode)
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
                    "--seed", "5", "--splits", "h", "--limit", "2", *flags,
                    "--solver-timeout", "0.001", "--out", str(tmp_path / "x.jsonl")]
                   ) == EXIT_DATA
        assert "--solver-timeout requires --solver external" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,timeout", [([], 30.0), (["--solver-timeout", "2.5"], 2.5)],
                             ids=["default", "given"])
    def test_external_solver_timeout(self, data_file, tmp_path, monkeypatch, flags, timeout):
        """The external solver waits 30 s per reply unless told otherwise."""
        import supportgen.cli
        from supportgen.engines import OracleSolver

        seen = []

        class Recording(OracleSolver):
            def __init__(self, command, timeout):
                seen.append(timeout)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                pass

        monkeypatch.setattr(supportgen.cli, "ExternalSolver", Recording)
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
                    "--seed", "5", "--splits", "h", "--limit", "2", "--solver", "external",
                    "--solver-cmd", "solver", *flags, "--out", str(tmp_path / "x.jsonl")]
                   ) == EXIT_OK
        assert seen == [timeout]

    @pytest.mark.parametrize("executable", [False, True], ids=["missing", "not-executable"])
    def test_unstartable_solver_exits_4(self, data_file, tmp_path, executable):
        """A solver command that cannot start fails like a solver that dies."""
        solver = tmp_path / "solver"
        if executable:
            solver.write_text("not a program\n")
            solver.chmod(0o644)
        out = tmp_path / "x.jsonl"
        assert run(["gen-supports", "--data", str(data_file), "--strategy", "random",
                    "--seed", "5", "--splits", "h", "--solver", "external",
                    "--solver-cmd", shlex.quote(str(solver)),
                    "--out", str(out)]) == EXIT_EXTERNAL
        assert not out.exists()
        assert list(tmp_path.iterdir()) == ([solver] if executable else [])

    def test_solver_cmd_path_with_space(self, data_file, tmp_path):
        folder = tmp_path / "oracle dir"
        folder.mkdir()
        script = folder / "serve.py"
        src = str(Path(supportgen.__file__).resolve().parents[1])
        script.write_text(f"import sys\nsys.path.insert(0, {src!r})\n"
                          "from supportgen.cli import main\n"
                          "sys.exit(main(['serve-oracle']))\n")
        base = ["gen-supports", "--data", str(data_file), "--strategy", "random",
                "--seed", "5", "--splits", "h", "--limit", "3"]
        oracle, external = tmp_path / "oracle.jsonl", tmp_path / "external.jsonl"
        assert run(base + ["--out", str(oracle)]) == EXIT_OK
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
        assert run(base + ["--solver", "external", "--solver-cmd", command,
                           "--out", str(external)]) == EXIT_OK
        assert all(json.loads(l)["supports"] for l in external.read_text().splitlines())
        assert digests(external) == digests(oracle)


@pytest.mark.pins
class TestOneExampleTrainSplit:
    """With one training example, every tf-idf row, the output rows and the
    centred one-hot row are zero."""

    @pytest.fixture(scope="class")
    def tiny(self, tmp_path_factory) -> Path:
        out = tmp_path_factory.mktemp("tiny") / "tiny.jsonl"
        assert run(["gen-data", "--seed", "3", "--train", "1", "--per-split", "2",
                    "--out", str(out)]) == EXIT_OK
        return out

    def test_covr_is_data_error_naming_zero_norm(self, tiny, tmp_path, capsys):
        out = tmp_path / "covr.jsonl"
        assert run(["gen-supports", "--data", str(tiny), "--strategy", "covr", "--seed", "1",
                    "--cells", "4", "--out", str(out)]) == EXIT_DATA
        assert "zero combined norm" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [[], ["--alpha", "1"]], ids=["default-alpha", "alpha-1"])
    def test_gandr_retrieves_from_zero_vectors(self, tiny, tmp_path, flags):
        """Every vector is zero at any alpha, so both runs retrieve the same
        support with score 0 and give the same bytes."""
        out = tmp_path / "gandr.jsonl"
        assert run(["gen-supports", "--data", str(tiny), "--strategy", "gandr", "--seed", "1",
                    "--cells", "4", *flags, "--out", str(out)]) == EXIT_OK
        # the train query's one candidate is itself; every test query gets it
        sizes = [len(json.loads(line)["supports"]) for line in out.read_text().splitlines()]
        assert sorted(sizes) == [0] + [1] * 16
        assert digests(out) == \
            "1b2cb4bfd4007707b64ea0f25c4476e0da7394585ab0acb9910b8cb604230db6"


class TestAnalyze:
    def test_pattern_ordering(self, data_file, tmp_path):
        report = tmp_path / "patterns.json"
        assert run(["analyze", "--data", str(data_file), "--pattern", "H",
                    "--permutations", "--split", "train",
                    "--out", str(report)]) == EXIT_OK
        h = json.loads(report.read_text())["pattern"]["H"]["fraction"]
        assert run(["analyze", "--data", str(data_file), "--pattern", "G",
                    "--permutations", "--split", "train",
                    "--out", str(report)]) == EXIT_OK
        g = json.loads(report.read_text())["pattern"]["G"]["fraction"]
        assert h > g

    def test_nn_profile_monotone(self, data_file, tmp_path):
        report = tmp_path / "nn.json"
        assert run(["analyze", "--data", str(data_file), "--nn-profile",
                    "--split", "h", "--ranks", "1,2,4,8,16,32",
                    "--sample", "10", "--out", str(report)]) == EXIT_OK
        profile = json.loads(report.read_text())["nn_profile"]
        values = [profile[str(r)] for r in (1, 2, 4, 8, 16, 32)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("pattern", ["WALK(99999999999)", "( WALK )(99999999999)"])
    def test_huge_repeat_count_is_data_error(self, data_file, tmp_path, pattern):
        report = tmp_path / "pattern.json"
        assert run(["analyze", "--data", str(data_file), "--pattern", pattern,
                    "--out", str(report)]) == EXIT_DATA
        assert not report.exists()

    def test_unknown_split_is_usage_error_before_decode(self, data_file, monkeypatch):
        import supportgen.cli

        def no_decode(path):
            raise AssertionError("the data file was decoded")

        monkeypatch.setattr(supportgen.cli, "import_dataset", no_decode)
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--data", str(data_file), "--nn-profile", "--split", "zz"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--sample", "0"], ["--sample", "-2"], ["--ranks", "0"], ["--ranks", "1,0,4"],
        ["--ranks", "-3"], ["--ranks", "1,x"], ["--ranks", ","], ["--seed", "-1"],
    ], ids=" ".join)
    def test_out_of_range_is_usage_error_before_decode(self, data_file, tmp_path,
                                                       monkeypatch, flags):
        import supportgen.cli

        def no_decode(path):
            raise AssertionError("the data file was decoded")

        monkeypatch.setattr(supportgen.cli, "import_dataset", no_decode)
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--data", str(data_file), "--nn-profile", *flags,
                 "--out", str(tmp_path / "nn.json")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_default_ranks_and_sample(self, data_file, tmp_path):
        """Without --ranks and --sample the report is nn_profile's own
        default profile."""
        from supportgen.dataset import Split, import_dataset
        from supportgen.metrics import nn_profile

        dataset = import_dataset(data_file)
        with pytest.warns(UserWarning):
            want = nn_profile([ex.state for ex in dataset.split(Split.H)],
                              [ex.state for ex in dataset.split(Split.TRAIN)])
        report = tmp_path / "nn.json"
        with pytest.warns(UserWarning):
            assert run(["analyze", "--data", str(data_file), "--nn-profile",
                        "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text())["nn_profile"] == \
            {str(r): round(v, 6) for r, v in want}

    def test_zipf_on_corpus_file(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(" ".join(
            ["the"] * 400 + ["of"] * 200 + ["and"] * 100 + ["to"] * 50 +
            ["a"] * 25 + ["in"] * 12 + ["is"] * 6 + ["it"] * 3 + ["on"]))
        report = tmp_path / "zipf.json"
        assert run(["analyze", "--zipf", str(corpus), "--out", str(report)]) == EXIT_OK
        fit = json.loads(report.read_text())["zipf"]
        assert fit["vocabulary"] == 9

    def test_zipf_on_dataset_commands(self, data_file, tmp_path):
        """The fit over every record's command tokens, in file order."""
        from supportgen.metrics import zipf_fit

        tokens = [token for line in data_file.read_text(encoding="utf-8").splitlines()
                  for token in json.loads(line)["command"].split(",")]
        fit = zipf_fit(tokens)
        report = tmp_path / "zipf.json"
        assert run(["analyze", "--data", str(data_file), "--zipf-commands",
                    "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text())["zipf"] == {
            "alpha": round(fit.alpha, 6), "rmse": round(fit.rmse, 6),
            "vocabulary": fit.vocabulary, "tokens": fit.tokens}

    def test_no_metric_requested_is_data_error(self, data_file):
        assert run(["analyze", "--data", str(data_file)]) == EXIT_DATA

    def test_validity_on_oracle_supports(self, data_file, tmp_path):
        sup = tmp_path / "sup.jsonl"
        run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
             "--seed", "3", "--splits", "b", "--out", str(sup)])
        report = tmp_path / "validity.json"
        assert run(["analyze", "--supports", str(sup), "--validity",
                    "--out", str(report)]) == EXIT_OK
        validity = json.loads(report.read_text())["validity"]
        assert validity["correct_given_valid"] == 1.0


class TestExportIclAndPermute:
    @pytest.mark.pins
    def test_export_icl_round_trip(self, data_file, tmp_path):
        sup = tmp_path / "sup.jsonl"
        run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
             "--seed", "3", "--splits", "h", "--limit", "3", "--out", str(sup)])
        icl = tmp_path / "icl.jsonl"
        assert run(["export-icl", "--supports", str(sup), "--policy", "permute",
                    "--seed", "11", "--out", str(icl)]) == EXIT_OK
        from supportgen.dataset import decode_icl_targets
        from supportgen.dataset import Example

        sup_records = [json.loads(l) for l in sup.read_text().splitlines()]
        for line, sup_rec in zip(icl.read_text().splitlines(), sup_records):
            record = json.loads(line)
            decoded = decode_icl_targets(record)
            query = Example.from_record(sup_rec["query"])
            assert decoded[-1] == tuple(int(a) for a in query.actions)

    def test_identity_policy(self, data_file, tmp_path):
        sup = tmp_path / "sup2.jsonl"
        run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
             "--seed", "3", "--splits", "h", "--limit", "2", "--out", str(sup)])
        icl = tmp_path / "icl2.jsonl"
        assert run(["export-icl", "--supports", str(sup), "--policy", "identity",
                    "--seed", "0", "--out", str(icl)]) == EXIT_OK
        for line in icl.read_text().splitlines():
            assert json.loads(line)["permutation"] == list(range(6))

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_export_leaves_no_partial_file(self, data_file, tmp_path, existing):
        sup = tmp_path / "sup.jsonl"
        run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
             "--seed", "3", "--splits", "h", "--limit", "4", "--out", str(sup)])
        lines = sup.read_text().splitlines()
        no_supports = json.loads(lines[2])
        no_supports["supports"] = []
        icl = tmp_path / "icl.jsonl"
        manifest = tmp_path / "icl.jsonl.manifest.json"
        if existing:
            icl.write_text("earlier output\n")
            manifest.write_text("{}\n")
        # line 3 fails after lines 1 and 2 are written: it holds no supports,
        # or it is not JSON
        for bad_line in (json.dumps(no_supports), "not json"):
            sup.write_text("\n".join(lines[:2] + [bad_line] + lines[3:]) + "\n")
            assert run(["export-icl", "--supports", str(sup), "--seed", "1",
                        "--out", str(icl)]) == EXIT_DATA
            if existing:
                assert icl.read_text() == "earlier output\n"
                assert manifest.read_text() == "{}\n"
                assert sorted(p.name for p in tmp_path.iterdir()) == [
                    "icl.jsonl", "icl.jsonl.manifest.json", "sup.jsonl",
                    "sup.jsonl.manifest.json"]
            else:
                assert sorted(p.name for p in tmp_path.iterdir()) == [
                    "sup.jsonl", "sup.jsonl.manifest.json"]

    @pytest.mark.parametrize("field,value", [("command", 5), ("target", 7)])
    @pytest.mark.parametrize("command", ["gen-supports", "permute", "export-icl", "analyze"])
    def test_non_string_field_is_data_error_naming_its_line(self, data_file, tmp_path,
                                                            capsys, command, field, value):
        """A number where a dataset or support line holds its command or
        target string is a data error that names the line."""
        if command in ("gen-supports", "permute"):
            bad = tmp_path / "data.jsonl"
            lines = data_file.read_text().splitlines()
            record = json.loads(lines[1])
            record[field] = value
        else:
            bad = tmp_path / "sup.jsonl"
            run(["gen-supports", "--data", str(data_file), "--strategy", "heuristic",
                 "--seed", "3", "--splits", "h", "--limit", "3", "--out", str(bad)])
            lines = bad.read_text().splitlines()
            record = json.loads(lines[1])
            record["supports"][0][field] = value
        bad.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
        out = str(tmp_path / "out.jsonl")
        argv = {
            "gen-supports": ["gen-supports", "--data", str(bad), "--strategy", "heuristic",
                             "--seed", "3", "--out", out],
            "permute": ["permute", "--data", str(bad), "--seed", "2", "--out", out],
            "export-icl": ["export-icl", "--supports", str(bad), "--seed", "1", "--out", out],
            "analyze": ["analyze", "--supports", str(bad), "--criteria", "--out", out],
        }[command]
        capsys.readouterr()
        assert run(argv) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.pins
    def test_permute_command_round_trip(self, data_file, tmp_path):
        out = tmp_path / "perm.jsonl"
        assert run(["permute", "--data", str(data_file), "--seed", "2",
                    "--out", str(out)]) == EXIT_OK
        from supportgen.permuter import Permutation, apply, invert

        for line in out.read_text().splitlines()[:40]:
            record = json.loads(line)
            perm = Permutation.from_codes(record["permutation"])
            assert list(apply(perm, record["target_codes"])) == record["permuted_codes"]
            assert list(apply(invert(perm), record["permuted_codes"])) == \
                record["target_codes"]


class TestParaphraseCli:
    def test_dry_run_writes_prompts(self, tmp_path):
        out = tmp_path / "prompts"
        assert run(["paraphrase", "--mode", "simple", "--query", "push a red square",
                    "--dry-run", "--out", str(out)]) == EXIT_OK
        files = list(out.glob("prompt_*.txt"))
        assert len(files) == 1
        assert "push a red square" in files[0].read_text()

    def test_live_mode_without_endpoint_is_external_error(self, tmp_path, monkeypatch):
        from supportgen.cli import EXIT_EXTERNAL
        from supportgen.paraphrase import ENDPOINT_ENV

        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        code = run(["paraphrase", "--query", "push a red square",
                    "--out", str(tmp_path / "p.jsonl")])
        assert code == EXIT_EXTERNAL

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_bad_workers_is_usage_error_before_any_request(self, tmp_path, monkeypatch,
                                                           workers):
        from supportgen.paraphrase import ENDPOINT_ENV

        monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:9/")
        with pytest.raises(SystemExit) as exc:
            run(["paraphrase", "--query", "push a red square", "--workers", workers,
                 "--out", str(tmp_path / "p.jsonl")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_cache_directory_is_data_error_before_any_request(self, tmp_path,
                                                                      monkeypatch):
        from supportgen.paraphrase import ENDPOINT_ENV, HttpTransport

        sent = []
        monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:9/")
        monkeypatch.setattr(HttpTransport, "complete",
                            lambda self, prompt: sent.append(prompt) or "1. Push a red square")
        code = run(["paraphrase", "--query", "push a red square",
                    "--cache", str(tmp_path / "no_dir" / "cache.json"),
                    "--out", str(tmp_path / "p.jsonl")])
        assert code == EXIT_DATA
        assert sent == []
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["paraphrase", "analyze"])
def test_failed_write_keeps_earlier_output(data_file, tmp_path, monkeypatch, command):
    """paraphrase and analyze --out write through the same temporary file
    as the JSONL outputs, in their own JSON layouts: when the final replace
    fails, the earlier output is unchanged and no temporary file is left."""
    import os

    from supportgen.paraphrase import ENDPOINT_ENV, HttpTransport

    monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:9/")
    monkeypatch.setattr(HttpTransport, "complete", lambda self, prompt: "1. Push a red square")
    queries = tmp_path / "queries.txt"
    queries.write_text("push a red square\npull a circle\n")
    out = tmp_path / "out.json"
    if command == "paraphrase":
        argv = ["paraphrase", "--input", str(queries), "--out", str(out)]
        layout = lambda text: "".join(json.dumps(json.loads(line), sort_keys=True) + "\n"
                                      for line in text.splitlines())
    else:
        argv = ["analyze", "--data", str(data_file), "--zipf-commands", "--out", str(out)]
        layout = lambda text: json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert run(argv) == EXIT_OK
    text = out.read_text()
    assert text == layout(text)
    assert len(text.splitlines()) > 1

    def fail(src, dst):
        raise OSError("no space left on device")

    out.write_text("earlier output\n")
    monkeypatch.setattr(os, "replace", fail)
    assert run(argv) == EXIT_DATA
    assert out.read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "queries.txt"]


def test_failed_cache_write_keeps_earlier_file(tmp_path, monkeypatch):
    """The paraphrase cache goes through the temp-then-replace writer too: it
    gains a trailing newline, and a failed replace leaves the earlier file
    and no temporary file behind."""
    import os

    from supportgen.paraphrase import ENDPOINT_ENV, HttpTransport

    monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:9/")
    monkeypatch.setattr(HttpTransport, "complete", lambda self, prompt: "1. Push a red square")
    queries = tmp_path / "queries.txt"
    queries.write_text("push a red square\n")
    path = tmp_path / "cache.json"
    argv = ["paraphrase", "--input", str(queries), "--cache", str(path),
            "--out", str(tmp_path / "p.jsonl")]
    assert run(argv) == EXIT_OK
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    real_replace = os.replace

    def fail_on_target(src, dst):
        if Path(dst) == path:
            raise OSError("no space left on device")
        real_replace(src, dst)

    queries.write_text("push a red square\npull a circle\n")  # one new cache entry
    earlier = path.read_text()
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(os, "replace", fail_on_target)
    assert run(argv) == EXIT_DATA
    assert path.read_text() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["permute", "gen-supports"])
def test_failed_manifest_write_removes_earlier_manifest(data_file, tmp_path, monkeypatch,
                                                        command):
    """A manifest write that fails after the output was replaced removes the
    earlier manifest, so no manifest names a sha256 that the output does not
    have; the command exits 3 and leaves no temporary file."""
    import os

    out = tmp_path / "out.jsonl"
    manifest = tmp_path / "out.jsonl.manifest.json"
    argv = {
        "permute": ["permute", "--data", str(data_file)],
        "gen-supports": ["gen-supports", "--data", str(data_file), "--strategy", "random",
                         "--splits", "h", "--limit", "2"],
    }[command] + ["--out", str(out), "--seed"]
    assert run(argv + ["2"]) == EXIT_OK
    text = manifest.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    earlier_output = digests(out)
    assert json.loads(text)["outputs"] == {"out.jsonl": earlier_output}

    real_replace = os.replace

    def fail_on_manifest(src, dst):
        if Path(dst) == manifest:
            raise OSError("no space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_manifest)
    assert run(argv + ["3"]) == EXIT_DATA
    assert digests(out) != earlier_output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


class TestServeOracle:
    def test_subprocess_smoke(self, s0):
        request = {"id": 0, "state": s0.to_record(),
                   "instruction": ["walk", "to", "a", "red", "circle"]}
        proc = subprocess.run(
            [sys.executable, "-m", "supportgen.cli", "serve-oracle"],
            input=json.dumps(request) + "\n", capture_output=True, text=True,
            timeout=30)
        response = json.loads(proc.stdout.strip())
        assert response == {"id": 0, "actions": ["WALK", "WALK"]}


def test_readme_commands_parse():
    """Every `supportgen` command of README's sh blocks, continuation lines
    joined, is accepted by the CLI parser, so the walkthrough names no
    removed flag."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("supportgen ")]
    assert {argv[1] for argv in commands} >= {
        "gen-data", "gen-supports", "analyze", "export-icl", "permute", "paraphrase"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command rejected: {' '.join(argv)}")
