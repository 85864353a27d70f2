"""The benchmark's workloads: the CLI command sequence each one runs.

Every workload is a closed loop with one caller: each command starts after
the previous one ends, all in one process. Sizes are scaled so that one pass
takes 4 to 8 s on 2 shared CPUs and a run holds several passes; the commands
keep the CLI defaults (n=16, k=2048, probes=10, split H) except the IVF cell
count, which is scaled with the train size.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Sizes:
    #: The dataset gen-retrieval writes and the fixture same-state reads.
    train: int = 5000
    per_split: int = 50
    limit: int = 50
    #: IVF cells for CovR and GandR: ~39 train points per cell, as with the
    #: CLI default of 512 cells over 20,000 examples.
    cells: int = 128


#: Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = ("gen-retrieval", "same-state")

#: Workloads that read a dataset fixture built before timing starts.
NEEDS_FIXTURE = frozenset({"same-state"})


def gen_data_argv(seed: int, out: Path, sizes: Sizes) -> list[str]:
    return ["gen-data", "--seed", str(seed), "--train", str(sizes.train),
            "--per-split", str(sizes.per_split), "--out", str(out)]


def serve_oracle_cmd() -> str:
    return f"{sys.executable} -m supportgen.cli serve-oracle"


def supports_argv(strategy: str, seed: int, data: Path, out: Path, sizes: Sizes,
                  *extra: str) -> list[str]:
    return ["gen-supports", "--data", str(data), "--strategy", strategy,
            "--seed", str(seed), "--splits", "h", "--limit", str(sizes.limit),
            "--out", str(out), *extra]


def analyze_argv(supports: Path, out: Path) -> list[str]:
    return ["analyze", "--supports", str(supports), "--criteria", "--validity",
            "--out", str(out)]


def commands(workload: str, seed: int, fixture: Path | None, out: Path, sizes: Sizes
             ) -> list[tuple[str, list[str]]]:
    """(cli metric label, argv) for each command of one pass, writing into `out`."""
    if workload == "same-state":
        data = fixture
        return [
            ("gen-supports.demogen",
             supports_argv("demogen", seed, data, out / "demogen.jsonl", sizes)),
            ("gen-supports.random-external",
             supports_argv("random", seed, data, out / "random.jsonl", sizes,
                           "--solver", "external", "--solver-cmd", serve_oracle_cmd())),
            ("analyze.criteria-validity",
             analyze_argv(out / "demogen.jsonl", out / "demogen.report.json")),
            ("analyze.criteria-validity",
             analyze_argv(out / "random.jsonl", out / "random.report.json")),
            ("export-icl",
             ["export-icl", "--supports", str(out / "demogen.jsonl"), "--policy", "permute",
              "--seed", str(seed), "--out", str(out / "icl.jsonl")]),
        ]
    if workload == "gen-retrieval":
        data = out / "data.jsonl"
        return [
            ("gen-data", gen_data_argv(seed, data, sizes)),
            ("gen-supports.covr", supports_argv("covr", seed, data, out / "covr.jsonl", sizes,
                                                "--cells", str(sizes.cells))),
            ("gen-supports.gandr", supports_argv("gandr", seed, data, out / "gandr.jsonl", sizes,
                                                 "--cells", str(sizes.cells))),
            ("analyze.criteria-validity",
             analyze_argv(out / "covr.jsonl", out / "covr.report.json")),
            ("analyze.criteria-validity",
             analyze_argv(out / "gandr.jsonl", out / "gandr.report.json")),
            ("analyze.nn-profile",
             ["analyze", "--data", str(data), "--nn-profile", "--split", "h",
              "--out", str(out / "nn.report.json")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def differential_argv(seed: int, data: Path, out: Path, sizes: Sizes) -> list[str]:
    """The same-state external-solver command with the in-process oracle."""
    return supports_argv("random", seed, data, out, sizes, "--solver", "oracle")
