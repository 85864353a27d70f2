"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a source checkout:  python3 bench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics the code reports.
2. Each workload, untraced and traced, passes its own checks (failed = 0)
   and reports every metric of its mode.
3. Each corruption of a pass's outputs (a flipped target, a swapped split, a
   dropped or replaced ICL permutation, a support equal to its query, a
   retrieved support absent from the train split, a rising nn-profile, bytes
   that differ from an earlier run) drives failed above 0.
Exits 0 only if every step holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

SEED = 3


def edit_first(predicate, change):
    """An edit of a JSONL file that applies `change` to the first record
    matching `predicate`."""

    def edit(path: Path) -> None:
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        change(next(r for r in records if predicate(r)))
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                        encoding="utf-8")

    return edit


def flip_target(record):
    record["target"] = "WALK," + record["target"] if record["target"] else "WALK"


def swap_split(record):
    record["split"] = "g"


def drop_permutation(record):
    del record["permutation"]


def identity_permutation(record):
    record["permutation"] = sorted(record["permutation"])


def flip_support_target(record):
    support = next(s for s in record["supports"] if s["target"])
    support["target"] = "STAY," + support["target"]


def support_is_query(record):
    support = record["supports"][0]
    for key in ("grid_size", "agent", "objects", "command", "target"):
        support[key] = record["query"][key]


def move_agent(record):
    agent = record["supports"][0]["agent"]
    agent["d"] = (agent["d"] + 1) % 4


def rising_profile(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    ranks = sorted(report["nn_profile"], key=int)
    report["nn_profile"][ranks[-1]] = 1.0
    path.write_text(json.dumps(report), encoding="utf-8")


CORRUPTIONS = {
    "gen-retrieval": [
        ("flip a target", "data.jsonl", edit_first(lambda r: True, flip_target)),
        ("swap a split", "data.jsonl", edit_first(lambda r: r["split"] == "h", swap_split)),
        ("move a retrieved support's agent", "covr.jsonl", edit_first(lambda r: True, move_agent)),
        ("flip a retrieved target", "gandr.jsonl",
         edit_first(lambda r: True, flip_support_target)),
        ("make the nn-profile rise", "nn.report.json", rising_profile),
    ],
    "same-state": [
        ("drop the ICL permutation", "icl.jsonl", edit_first(lambda r: True, drop_permutation)),
        ("replace the ICL permutation by the identity", "icl.jsonl",
         edit_first(lambda r: r["permutation"] != sorted(r["permutation"]),
                    identity_permutation)),
        ("flip a support target", "random.jsonl",
         edit_first(lambda r: True, flip_support_target)),
        ("make a support equal its query", "demogen.jsonl",
         edit_first(lambda r: True, support_is_query)),
    ],
}


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_manifest(failures: list[str]) -> None:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS", failures)
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER,
           "BENCHMARK.json per_layer matches layers.PER_LAYER", failures)
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END", failures)


def main() -> int:
    error = run.prepare()
    if error:
        return run.fail(error)
    import checks
    from layers import PER_LAYER
    from workloads import Sizes

    failures: list[str] = []
    check_manifest(failures)
    tiny = Sizes(train=300, per_split=6, limit=6)
    run.WORK.mkdir(exist_ok=True)
    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for workload, corruptions in CORRUPTIONS.items():
            traced_work = base / f"{workload}-traced"
            traced_work.mkdir(parents=True)
            traced = run.run_invocation(workload, SEED, 0, True, tiny, traced_work)
            expect(traced["failed"] == 0 and traced["correct"]
                   and list(traced["metrics"]) == [name for name, _ in PER_LAYER],
                   f"{workload}: traced pass is correct and reports every per-layer metric",
                   failures)

            work = base / workload
            work.mkdir(parents=True)
            result = run.run_invocation(workload, SEED, 0, False, tiny, work)
            expect(result["failed"] == 0 and result["correct"]
                   and list(result["metrics"]) == list(run.END_TO_END),
                   f"{workload}: untraced pass is correct and reports every end-to-end metric",
                   failures)
            fixture = work / "fixture" / "data.jsonl"
            for what, name, edit in corruptions:
                bad = base / f"{workload}-bad"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(work / "pass0", bad)
                edit(bad / name)
                tally = checks.Tally()
                run.check_pass(tally, workload, bad, fixture, tiny)
                expect(tally.failed > 0, f"{workload}: '{what}' drives failed above 0 "
                       f"({tally.failed}/{tally.attempted})", failures)

        tally = checks.Tally()
        key = {"workload": "selftest", "seed": SEED}
        run.compare_with_ledger(tally, key, {"out.jsonl": "a" * 64}, "selftest")
        run.compare_with_ledger(tally, key, {"out.jsonl": "b" * 64}, "selftest")
        expect(tally.failed > 0, "bytes that differ from an earlier run of the same code "
               "drive failed above 0", failures)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        ledger = run.WORK / "ledger.jsonl"
        if ledger.exists():
            kept = [line for line in ledger.read_text(encoding="utf-8").splitlines()
                    if json.loads(line)["key"].get("workload") != "selftest"]
            ledger.write_text("".join(line + "\n" for line in kept), encoding="utf-8")

    print(f"{'all checks passed' if not failures else f'{len(failures)} check(s) failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
