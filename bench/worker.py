"""One pass of a workload's command sequence in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

SPEC holds {"commands": [[label, argv], ...], "trace": bool, "result": path}.
Each argv goes through `supportgen.cli.main`, one after the other in this
process. The result file gets the moment `supportgen.cli` was ready
(time.monotonic, which is system-wide on Linux), the wall time of the whole
sequence and of each command, each exit code, and the peak RSS. With
"trace" the package is wrapped by `tracer.Tracer` first and the result also
carries the per-layer metrics of the pass.
"""

import time

import supportgen.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_commands(commands: list) -> tuple[float, list[dict]]:
    done = []
    start = time.perf_counter()
    for label, argv in commands:
        t0 = time.perf_counter()
        try:
            code = supportgen.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a lost pass
            traceback.print_exc()
            code = 1
        done.append({"label": label, "rc": code, "s": time.perf_counter() - t0})
    return time.perf_counter() - start, done


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result: dict = {"ready": READY}
    probe = None
    if spec["trace"]:
        import layers

        probe = layers.LayerProbe()
        result["wrapped"] = probe.tracer.install()
    result["wall_s"], result["commands"] = run_commands(spec["commands"])
    if probe is not None:
        result["layers"] = probe.metrics()
        result["spans"] = probe.tracer.dump()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
