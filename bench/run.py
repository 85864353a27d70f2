"""supportgen pipeline benchmark.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is gen-retrieval or same-state; `all` runs both in turn and prints one
report and one JSON line for each.

Drives the real pipeline through `supportgen.cli.main` argv, each pass of a
workload in a fresh interpreter (bench/worker.py), closed loop with one
caller. The dataset fixture a workload reads is built once per invocation,
before timing. With --trace 0 it repeats the workload's whole command
sequence for S seconds and reports the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass and reports the per-layer metrics.
Every pass's outputs are checked, hashed and compared with the other passes
and with earlier runs of the same code and seed (ledger in .bench_work/).
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Every invocation must end well within 180 s.
DEADLINE_S = 165.0
#: Extra fresh interpreters started only to time setup_s.
SETUP_SPAWNS = 8
#: The --trace 0 metrics and their units, in the order of BENCHMARK.json.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "valid_frac": "ratio"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts every child in its own session and kills what is left of the
    session when the child returns, so no solver server outlives a pass."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = work / "children.log"

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str], stdout=None) -> int:
        with open(self.log, "a", encoding="utf-8") as log:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=stdout or log, stderr=log,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                code = -signal.SIGKILL
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        return code

    def cli(self, argv: list[str]) -> int:
        return self.run([sys.executable, "-m", "supportgen.cli", *argv])

    def setup_seconds(self) -> float | None:
        """Time from starting a fresh interpreter until supportgen.cli is ready."""
        ready = self.work / "ready.txt"
        with open(ready, "w", encoding="utf-8") as out:
            t0 = time.monotonic()
            code = self.run([sys.executable, "-c",
                             "import time, supportgen.cli; print(time.monotonic())"],
                            stdout=out)
        if code != 0:
            return None
        return float(ready.read_text(encoding="utf-8")) - t0

    def workload_pass(self, commands: list, trace: bool, tag: str) -> dict | None:
        spec = self.work / f"{tag}.spec.json"
        result = self.work / f"{tag}.result.json"
        spec.write_text(json.dumps({"commands": commands, "trace": trace,
                                    "result": str(result)}), encoding="utf-8")
        t0 = time.monotonic()
        code = self.run([sys.executable, str(BENCH_DIR / "worker.py"), str(spec)])
        if code != 0 or not result.exists():
            return None
        out = json.loads(result.read_text(encoding="utf-8"))
        out["setup_s"] = out["ready"] - t0
        return out


# ---------------------------------------------------------------------------
# bytes and environment
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(directory: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "supportgen").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(seed: int, fixture_sha: str | None) -> dict:
    import numpy as np
    import supportgen

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "supportgen_version": supportgen.__version__,
        "src_sha256": source_digest(),
        "seed": seed,
        "fixture_sha256": fixture_sha,
    }


def compare_with_ledger(tally, key: dict, outputs: dict[str, str], version: str) -> None:
    """Flag any earlier run of the same code, workload and seed whose output
    bytes differ, then record this run."""
    ledger = WORK / "ledger.jsonl"
    if ledger.exists():
        for line in ledger.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if entry["key"] != key:
                continue
            common = set(entry["outputs"]) & set(outputs)
            tally.check(all(entry["outputs"][n] == outputs[n] for n in common),
                        "output bytes differ from an earlier run of the same code and seed")
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": key, "outputs": outputs, "version": version},
                            sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------

def check_pass(tally, workload: str, out: Path, fixture: Path | None, sizes) -> dict:
    """Output checks of one pass; returns the quality figures. A missing
    output file is one failed operation."""
    try:
        return _check_outputs(tally, workload, out, fixture, sizes)
    except OSError as exc:
        tally.check(False, f"cannot read an output: {exc}")
        return {"valid": (0, 0), "crit8": (0.0, 0)}


def _check_outputs(tally, workload: str, out: Path, fixture: Path | None, sizes) -> dict:
    import checks

    same_state = workload == "same-state"
    if same_state:
        files, train = ("demogen", "random"), None
    else:
        checks.check_dataset(tally, out / "data.jsonl", sizes.train, sizes.per_split)
        files, train = ("covr", "gandr"), checks.train_keys(out / "data.jsonl")
    correct = total = queries = 0
    crit8 = 0.0
    for name in files:
        c, t = checks.check_supports(tally, out / f"{name}.jsonl", sizes.limit,
                                     same_state=same_state, train=train)
        c8, q = checks.check_report(tally, out / f"{name}.report.json", c, t, sizes.limit)
        correct, total, crit8, queries = correct + c, total + t, crit8 + c8, queries + q
    if same_state:
        checks.check_icl(tally, out / "icl.jsonl", out / "demogen.jsonl")
    else:
        checks.check_nn_profile(tally, out / "nn.report.json")
    return {"valid": (correct, total), "crit8": (crit8, queries)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_invocation(workload: str, seed: int, seconds: float, trace: bool, sizes,
                   work: Path) -> dict:
    """Everything but the printing; returns the result and its report lines."""
    import checks
    import workloads
    from layers import PER_LAYER

    start = time.monotonic()
    runner = Runner(work, start + DEADLINE_S)
    tally = checks.Tally()
    report: list[str] = []

    runner.setup_seconds()  # first import in a fresh checkout compiles bytecode
    fixture = None
    fixture_sha = None
    if workload in workloads.NEEDS_FIXTURE:
        fixture = work / "fixture" / "data.jsonl"
        fixture.parent.mkdir()
        tally.check(runner.cli(workloads.gen_data_argv(seed, fixture, sizes)) == 0,
                    "fixture gen-data failed")
        fixture_sha = sha256(fixture) if fixture.exists() else None

    def one_pass(index: int, traced: bool) -> tuple[Path, dict | None]:
        out = work / f"pass{index}"
        out.mkdir()
        commands = workloads.commands(workload, seed, fixture, out, sizes)
        result = runner.workload_pass(commands, traced, f"pass{index}")
        if result is None:
            tally.check(False, f"pass {index} did not finish")
        else:
            for cmd in result["commands"]:
                tally.check(cmd["rc"] == 0, f"pass {index}: {cmd['label']} exited {cmd['rc']}")
        return out, result

    passes: list[tuple[Path, dict | None]] = []
    setup = []
    if trace:
        passes.append(one_pass(0, False))
        passes.append(one_pass(1, True))
    else:
        setup = [s for s in (runner.setup_seconds() for _ in range(SETUP_SPAWNS))
                 if s is not None]
        loop_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(one_pass(len(passes), False))
            elapsed = time.monotonic() - loop_start
            if elapsed >= seconds or runner.remaining() < 2 * (time.monotonic() - t0) + 15:
                break

    first_out = passes[0][0]
    quality = check_pass(tally, workload, first_out, fixture, sizes)
    outputs = digests(first_out)
    for out, _ in passes[1:]:
        tally.check(digests(out) == outputs, f"{out.name} bytes differ from pass0")

    if workload == "same-state":
        diff = work / "differential"
        diff.mkdir()
        code = runner.cli(workloads.differential_argv(seed, fixture, diff / "random.jsonl",
                                                      sizes))
        same = code == 0 and sha256(diff / "random.jsonl") == outputs.get("random.jsonl")
        tally.check(same, "external-solver output differs from the oracle's")

    ledger_outputs = dict(outputs)
    if fixture_sha:
        ledger_outputs["fixture/data.jsonl"] = fixture_sha
    env = environment(seed, fixture_sha)
    compare_with_ledger(tally, {"workload": workload, "seed": seed, "sizes": asdict(sizes),
                                "src": env["src_sha256"]},
                        ledger_outputs, env["supportgen_version"])

    done = [r for _, r in passes if r is not None]
    valid_correct, valid_total = quality["valid"]
    crit8_sum, crit8_queries = quality["crit8"]
    valid_frac = valid_correct / valid_total if valid_total else 0.0
    crit8_frac = crit8_sum / crit8_queries if crit8_queries else 0.0

    report.append(f"workload {workload} seed {seed} trace {int(trace)}: "
                  f"{len(passes)} pass(es), closed loop, one caller")
    metrics: dict[str, dict] = {}
    if trace:
        if len(done) == 2:
            plain, traced = done
            layer = dict(traced["layers"])
            for label, _ in PER_LAYER:
                if label.startswith("cli."):
                    layer[label] = sum(c["s"] for c in plain["commands"]
                                       if f"cli.{c['label']}.s" == label)
            layer["metrics.crit8_frac"] = crit8_frac
            layer["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
            metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                       for name, unit in PER_LAYER}
            dump = WORK / f"trace-{workload}-{seed}.json"
            dump.write_text(json.dumps({"wrapped": traced["wrapped"], "env": env,
                                        "spans": traced["spans"]}, indent=1) + "\n",
                            encoding="utf-8")
            report.append(f"untraced wall_s {plain['wall_s']:.4f} s, traced "
                          f"{traced['wall_s']:.4f} s, {traced['wrapped']} callables wrapped, "
                          f"span table in {dump.relative_to(ROOT)}")
    elif done:
        series = {
            "wall_s": [r["wall_s"] for r in done],
            "setup_s": setup + [r["setup_s"] for r in done],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in done],
            "valid_frac": [valid_frac],
        }
        for name, unit in END_TO_END.items():
            q1, med, q3 = quartiles(series[name])
            metrics[name] = {"value": med, "unit": unit}
            if name != "valid_frac":
                report.append(f"{name:12s} median {med:.4f} {unit}  q1 {q1:.4f}  "
                              f"q3 {q3:.4f}  n={len(series[name])}")
        for label in dict.fromkeys(c["label"] for c in done[0]["commands"]):
            values = [sum(c["s"] for c in r["commands"] if c["label"] == label) for r in done]
            report.append(f"  cli.{label}.s median {statistics.median(values):.4f} s")
        report.append("wall_s of each pass: " + " ".join(f"{v:.4f}" for v in series["wall_s"]))
    report.append(f"valid_frac   {valid_frac:.6f} ratio ({valid_correct}/{valid_total} "
                  f"support targets equal the oracle's)")
    report.append(f"crit8_frac   {crit8_frac:.6f} ratio (criterion (8) over "
                  f"{crit8_queries} queries)")
    report.append(f"failed_frac  {tally.failed / max(tally.attempted, 1):.6f} ratio "
                  f"({tally.failed}/{tally.attempted} operations)")
    report.extend(f"  failed: {p}" for p in tally.problems)
    report.append("outputs " + json.dumps(ledger_outputs, sort_keys=True))
    report.append("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
        "report": report,
    }


def prepare() -> str | None:
    """Make the checkout's own source importable; returns an error or None."""
    if not (SRC / "supportgen" / "__init__.py").is_file():
        return f"no supportgen source under {SRC}; run from the root of a checkout"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import supportgen

    if Path(supportgen.__file__).resolve().parent != (SRC / "supportgen").resolve():
        return f"imported supportgen from {supportgen.__file__}, not from {SRC}"
    return None


def run_one(workload: str, args: argparse.Namespace) -> int:
    """One workload: print its report, then its result as one JSON line."""
    import workloads

    work = WORK / f"run-{workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        result = run_invocation(workload, args.seed, args.seconds, bool(args.trace),
                                workloads.Sizes(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result["metrics"]:
        print("\n".join(result["report"]), file=sys.stderr)
        return fail(f"no pass of {workload} finished; nothing to report")
    print("\n".join(result.pop("report")))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="gen-retrieval, same-state, or all (each in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error:
        return fail(error)
    import workloads

    if args.workload == "all":
        chosen = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        chosen = [args.workload]
    else:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)} or all")
    WORK.mkdir(exist_ok=True)
    return max(run_one(workload, args) for workload in chosen)


if __name__ == "__main__":
    sys.exit(main())
