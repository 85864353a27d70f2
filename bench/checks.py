"""Checks on the files a workload pass writes.

Every record checked is one attempted operation; a record that fails any of
its conditions is one failed operation. The checks use the library's own
parsers and the in-process oracle, never the files' own claims.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from supportgen.dataset import (TEST_SPLITS, Example, Split, classify,
                                decode_icl_targets)
from supportgen.engines import OracleSolver
from supportgen.errors import SolverError, SupportgenError
from supportgen.grammar import parse_command_string
from supportgen.world import ACTION_TABLE_SIZE, Action, WorldState

#: What a malformed record can raise on the way through the parsers.
RECORD_ERRORS = (SupportgenError, ValueError, KeyError, TypeError, AttributeError)

#: Slack for float32 cosines in the nn-profile.
COSINE_TOLERANCE = 1e-6


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def state_key(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("grid_size", "agent", "objects")},
                      sort_keys=True, separators=(",", ":"))


def _lines(path: Path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def _oracle_target(solver: OracleSolver, record: dict) -> str | None:
    state = WorldState.from_record(record)
    instruction = parse_command_string(record["command"])
    try:
        return ",".join(a.name for a in solver.solve(state, instruction))
    except SolverError:
        return None


def check_dataset(tally: Tally, path: Path, train: int, per_split: int) -> None:
    """Each record re-parses, its classify set matches its split, its target
    equals the oracle's, and the split counts match the request."""
    solver = OracleSolver()
    counts: Counter = Counter()
    for lineno, line in _lines(path):
        try:
            record = json.loads(line)
            example = Example.from_record(record)
            counts[example.split] += 1
            want = (frozenset() if example.split in (Split.TRAIN, Split.A)
                    else frozenset({example.split}))
            ok = (_oracle_target(solver, record) == record["target"]
                  and classify(example.state, example.instruction) == want)
        except RECORD_ERRORS:
            ok = False
        tally.check(ok, f"{path.name}:{lineno} fails re-parse, classify or oracle target")
    expected = {Split.TRAIN: train, **{s: per_split for s in TEST_SPLITS}}
    tally.check(+counts == {s: c for s, c in expected.items() if c},
                f"{path.name}: split counts {dict(counts)} differ from the request")


def train_keys(fixture: Path) -> set[tuple]:
    keys = set()
    for _, line in _lines(fixture):
        record = json.loads(line)
        if record["split"] == Split.TRAIN.value:
            keys.add((state_key(record), record["command"], record["target"]))
    return keys


def check_supports(tally: Tally, path: Path, queries: int, *, same_state: bool,
                   train: set | None = None) -> tuple[int, int]:
    """No support equals its query pair, stored targets match the oracle
    (a null target only where the oracle fails too), same-state supports keep
    the query state and retrieved ones exist in the train split. Returns
    (supports whose target equals the oracle's, supports)."""
    solver = OracleSolver()
    correct = total = lines = 0
    for lineno, line in _lines(path):
        lines += 1
        try:
            record = json.loads(line)
            query = record["query"]
            Example.from_record(query)
            tally.check(query["split"] == Split.H.value and record["supports"],
                        f"{path.name}:{lineno} query is not split h or has no supports")
            supports = record["supports"]
        except RECORD_ERRORS:
            tally.check(False, f"{path.name}:{lineno} query does not parse")
            continue
        qkey = (state_key(query), query["command"])
        for i, support in enumerate(supports):
            total += 1
            try:
                skey = (state_key(support), support["command"])
                expected = _oracle_target(solver, support)
                matches = support["target"] == expected
                ok = skey != qkey and (matches or support["target"] is None and not support["valid"])
                if same_state:
                    ok = ok and skey[0] == qkey[0]
                if train is not None:
                    ok = ok and (skey[0], skey[1], support["target"]) in train
                correct += matches and expected is not None
            except RECORD_ERRORS:
                ok = False
            tally.check(ok, f"{path.name}:{lineno} support {i} fails a check")
    tally.check(lines == queries, f"{path.name}: {lines} queries, expected {queries}")
    return correct, total


def check_report(tally: Tally, path: Path, correct: int, total: int, queries: int
                 ) -> tuple[float, int]:
    """The analyze report agrees with the checked supports. Returns
    (criterion (8) summed over queries, queries)."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        validity, criteria = report["validity"], report["criteria"]
        crit8 = float(criteria["(8) (6) & (7)"])
        ok = (validity["total"] == total and criteria["queries"] == queries
              and abs(validity["correct"] - correct / max(total, 1)) <= 1e-6
              and 0.0 <= crit8 <= 1.0)
    except RECORD_ERRORS + (OSError,):
        crit8, ok = 0.0, False
    tally.check(ok, f"{path.name} disagrees with its support file")
    return crit8 * queries, queries


def _codes(target: str | None) -> tuple[int, ...] | None:
    if target is None:
        return None
    return tuple(int(Action[name]) for name in target.split(",") if name)


def check_icl(tally: Tally, icl: Path, supports: Path) -> None:
    """Every ICL record decodes back to its support file line's targets."""
    icl_lines = [line for _, line in _lines(icl)]
    support_lines = [line for _, line in _lines(supports)]
    tally.check(len(icl_lines) == len(support_lines),
                f"{icl.name}: {len(icl_lines)} records for {len(support_lines)} queries")
    for i, (icl_line, support_line) in enumerate(zip(icl_lines, support_lines)):
        try:
            record, source = json.loads(icl_line), json.loads(support_line)
            expected = [_codes(s["target"]) for s in source["supports"]]
            expected.append(_codes(source["query"]["target"]))
            decoded = [None if t is None else tuple(t) for t in decode_icl_targets(record)]
            ok = (decoded == expected and record["split"] == source["query"]["split"]
                  and sorted(record["permutation"]) == list(range(ACTION_TABLE_SIZE)))
        except RECORD_ERRORS:
            ok = False
        tally.check(ok, f"{icl.name}: record {i} does not decode to its supports")


def check_nn_profile(tally: Tally, path: Path) -> None:
    """Similarity by rank is non-increasing and within [0, 1]."""
    try:
        profile = json.loads(path.read_text(encoding="utf-8"))["nn_profile"]
        values = [profile[r] for r in sorted(profile, key=int)]
        ok = bool(values) and all(
            -COSINE_TOLERANCE <= v <= 1.0 + COSINE_TOLERANCE for v in values
        ) and all(b <= a + COSINE_TOLERANCE for a, b in zip(values, values[1:]))
    except RECORD_ERRORS + (OSError,):
        ok = False
    tally.check(ok, f"{path.name}: nn-profile is not a non-increasing profile in [0, 1]")
