"""Command-line pipeline: gen-data, gen-supports, analyze, export-icl,
permute, paraphrase, plus serve-oracle (the line-protocol solver server).

Every generating command takes a mandatory --seed and writes a manifest
(config digest, seed, library version, output digests) next to its outputs,
so reruns are byte-comparable. Exit codes: 0 success, 2 usage, 3 data error,
4 external-service error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shlex
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dataset import (
    DatasetConfig,
    Example,
    Split,
    SupportSet,
    TEST_SPLITS,
    _read_jsonl,
    _support_pair_from_record,
    _write_jsonl,
    _write_lines,
    export_dataset,
    export_icl_records,
    generate_dataset,
    import_dataset,
    read_queries,
    read_support_file,
    write_support_file,
)
from .engines import (
    DEFAULT_MASK_RATE,
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_SOLVER_TIMEOUT,
    DEFAULT_SUPPORT_COUNT,
    ExternalSolver,
    OracleSolver,
    build_covr_retriever,
    build_gandr_retriever,
    build_instruction_index,
    covr_supports,
    demogen_supports,
    gandr_supports,
    heuristic_supports,
    other_states_supports,
    random_supports,
    serve_solver,
)
from .errors import DataFormatError, ExternalServiceError, SupportgenError
from .grammar import realize
from .index import DEFAULT_CELLS, DEFAULT_PCA_DIM, DEFAULT_PROBES
from .instruction_model import fit as fit_instruction_model
from .metrics import (
    DEFAULT_NN_SAMPLE,
    DEFAULT_RANKS,
    NAMED_PATTERNS,
    compile_pattern,
    nn_profile,
    pattern_frequency,
    support_criteria,
    validity_correctness,
    zipf_fit,
)
from .permuter import apply as apply_permutation
from .permuter import sample_permutation
from .world import ACTION_TABLE_SIZE

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EXTERNAL = 4


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(command: str, config: dict, seed: int | None, out: Path) -> dict:
    """Write `<out>.manifest.json` beside the command's output file `out`,
    first removing the earlier one, which names the output `out` replaced."""
    config_digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    manifest = {
        "command": command,
        "config": config,
        "config_digest": config_digest,
        "seed": seed,
        "version": __version__,
        "outputs": {out.name: _sha256(out)},
    }
    path = out.with_suffix(out.suffix + ".manifest.json")
    path.unlink(missing_ok=True)
    _write_lines(path, [json.dumps(manifest, sort_keys=True, indent=2)])
    return manifest


def _checked(convert: Callable[[str], object], accept: Callable[[object], bool],
             expected: str) -> Callable[[str], object]:
    """An argparse type: `convert` of the argument, which `accept` must
    hold for; `expected` describes such a value in the error."""
    def parse(spec: str):
        try:
            value = convert(spec)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {spec!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {spec!r}")
        return value
    return parse


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least `low`."""
    return _checked(int, lambda value: value >= low, f"an integer >= {low}")


# argparse types of a rate in [0, 1], of a finite duration above 0 and of a
# finite weight of at least 0
_unit_rate = _checked(float, lambda value: 0.0 <= value <= 1.0, "a number in [0, 1]")
_positive_seconds = _checked(float, lambda value: 0.0 < value < math.inf,
                             "a finite number > 0")
_finite_weight = _checked(float, lambda value: 0.0 <= value < math.inf, "a finite number >= 0")


def _parse_ranks(spec: str) -> tuple[int, ...]:
    """'1,2,4' -> (1, 2, 4); every rank is at least 1."""
    rank = _int_at_least(1)
    ranks = tuple(rank(part) for part in spec.split(",") if part.strip())
    if not ranks:
        raise argparse.ArgumentTypeError(f"expected a comma list of ranks, got {spec!r}")
    return ranks


def _parse_object_range(spec: str) -> tuple[int, int]:
    """'3..10' -> (3, 10); '4' -> (4, 4). Counts start at 1; the capacity of
    the grid is checked by DatasetConfig."""
    lo, sep, hi = spec.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad object range {spec!r}, expected e.g. 3..10")
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad object range {spec!r}, expected 1 <= lo <= hi")
    return lo, hi


def _parse_split_counts(spec: str) -> dict[Split, int]:
    """'h=100,c=50' -> per-split counts; only test splits a-h may be named."""
    names = {s.value: s for s in TEST_SPLITS}
    try:
        pairs = [part.split("=") for part in spec.split(",") if part.strip()]
        return {names[name.strip().lower()]: _int_at_least(0)(count) for name, count in pairs}
    except (KeyError, ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"bad split counts {spec!r}, expected e.g. 'h=100,c=50' over splits a-h")


def _parse_split(spec: str) -> Split:
    name = spec.strip().lower()
    try:
        return Split(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown split {name!r}")


def _parse_split_list(spec: str) -> list[Split]:
    """'h,c' -> [Split.H, Split.C]; 'all' -> every split; names at least one."""
    if spec == "all":
        return [Split.TRAIN, *TEST_SPLITS]
    splits = [_parse_split(part) for part in spec.split(",") if part.strip()]
    if not splits:
        raise argparse.ArgumentTypeError(f"expected a comma list of splits or 'all', got {spec!r}")
    return splits


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def cmd_gen_data(args: argparse.Namespace) -> int:
    lo, hi = args.objects
    config = DatasetConfig(
        seed=args.seed,
        train_count=args.train,
        split_counts={s: args.per_split for s in TEST_SPLITS} | args.split_counts,
        grid_size=args.grid,
        min_objects=lo,
        max_objects=hi,
    )
    dataset = generate_dataset(config)
    out = Path(args.out)
    export_dataset(dataset, out)
    write_manifest("gen-data", config.to_dict(), args.seed, out)
    counts = {s.value: len(dataset.split(s)) for s in (Split.TRAIN, *TEST_SPLITS)}
    print(f"wrote {len(dataset)} examples to {out} {json.dumps(counts, sort_keys=True)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-supports
# ---------------------------------------------------------------------------

def _alpha(args: argparse.Namespace) -> dict:
    """--alpha when given; otherwise each retriever's own default applies."""
    return {} if args.alpha is None else {"alpha": args.alpha}


# Each prepare(train, args, solver) builds the strategy's model or index once
# from what the strategy reads of each train record (see _Strategy.train) and
# returns run(query, rng) -> SupportSet. The engines functions are called
# through their module-level names at call time, never stored, so wrappers
# installed on this module's names (span tracing) see every call.

def _prepare_demogen(train, args, solver):
    if not train:
        raise DataFormatError("demogen needs a train split in the data file")
    model = fit_instruction_model(train)
    return lambda query, rng: demogen_supports(
        query, model, solver, rng, k=args.k, n=args.n, mask_rate=args.mask_rate,
        keep_invalid=not args.replace_invalid)


def _prepare_covr(train, args, solver):
    covr = build_covr_retriever(train, cells=args.cells, pca_dim=args.pca_dim,
                                rng=args.seed, **_alpha(args))
    return lambda query, rng: covr_supports(query, covr, n=args.n, probes=args.probes)


def _prepare_gandr(train, args, solver):
    gandr = build_gandr_retriever(train, cells=args.cells, rng=args.seed, **_alpha(args))
    return lambda query, rng: gandr_supports(query, solver, gandr, n=args.n,
                                             probes=args.probes)


def _prepare_heuristic(train, args, solver):
    return lambda query, rng: heuristic_supports(query, solver, n=args.n)


def _prepare_random(train, args, solver):
    return lambda query, rng: random_supports(query, solver, rng, n=args.n)


def _prepare_other_states(train, args, solver):
    train_index = build_instruction_index(train)
    return lambda query, rng: other_states_supports(query, train_index, rng, n=args.n)


class _Strategy(NamedTuple):
    aliases: tuple[str, ...]
    prepare: Callable  # (train, args, solver) -> run(query, rng) -> SupportSet
    #: what prepare reads of each train record: "examples", its Example;
    #: "commands", the Instruction of its command; None, nothing
    train: str | None = None
    solves: bool = True  # False: run never calls the solver


#: The six support strategies by canonical name (the `strategy` of their
#: support sets and manifests). Names and aliases match case-insensitively.
STRATEGIES = {
    "demogen": _Strategy(("dg",), _prepare_demogen, train="commands"),
    "covr": _Strategy(("cr",), _prepare_covr, train="examples", solves=False),
    "gandr": _Strategy(("gr",), _prepare_gandr, train="examples"),
    "heuristic": _Strategy((), _prepare_heuristic),
    "random": _Strategy(("rd", "rand-instrs"), _prepare_random),
    "other_states": _Strategy(("other-states", "os"), _prepare_other_states,
                              train="examples", solves=False),
}
_STRATEGY_NAMES = {alias: name for name, strategy in STRATEGIES.items()
                   for alias in (name, *strategy.aliases)}
#: 'demogen/dg, covr/cr, ...': each canonical name followed by its aliases.
STRATEGY_LIST = ", ".join("/".join((name, *s.aliases)) for name, s in STRATEGIES.items())


def cmd_gen_supports(args: argparse.Namespace) -> int:
    strategy = _STRATEGY_NAMES.get(args.strategy.lower())
    if strategy is None:
        raise DataFormatError(f"unknown strategy {args.strategy!r}")
    wanted = set(args.splits)
    solver_cmd = shlex.split(args.solver_cmd or "")
    if args.solver == "external" and not solver_cmd:
        raise DataFormatError("--solver external requires --solver-cmd")
    if args.solver == "oracle" and args.solver_cmd is not None:
        raise DataFormatError("--solver-cmd requires --solver external")
    if args.solver == "oracle" and args.solver_timeout is not None:
        raise DataFormatError("--solver-timeout requires --solver external")
    if args.solver == "external" and not STRATEGIES[strategy].solves:
        raise DataFormatError(f"--solver external: strategy {strategy} calls no solver")
    # The solver child starts before the data is read, so its interpreter
    # start-up overlaps the decode. The data file is read in one pass that
    # decodes only the queries and what the strategy reads of train. Each
    # support set is written as soon as it is built, so only one is held at
    # a time.
    out = Path(args.out)
    with (ExternalSolver(solver_cmd, timeout=args.solver_timeout or DEFAULT_SOLVER_TIMEOUT)
          if args.solver == "external" else nullcontext(OracleSolver())) as solver:
        queries, train = read_queries(args.data, wanted, args.limit, STRATEGIES[strategy].train)
        run = STRATEGIES[strategy].prepare(train, args, solver)
        count = write_support_file(out, (
            (query, run(query, np.random.default_rng([args.seed, idx])))
            for idx, query in enumerate(queries)))
    config = {
        "strategy": strategy, "n": args.n, "k": args.k, "mask_rate": args.mask_rate,
        "alpha": args.alpha, "cells": args.cells, "probes": args.probes,
        "pca_dim": args.pca_dim, "replace_invalid": args.replace_invalid,
        "splits": sorted(s.value for s in wanted), "limit": args.limit,
        "solver": args.solver, "data": Path(args.data).name,
    }
    write_manifest("gen-supports", config, args.seed, out)
    print(f"wrote supports for {count} queries to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    # check every input before the first read: a failed check prints nothing
    needs_data = args.nn_profile or args.pattern or args.zipf_commands
    if (args.criteria or args.validity) and not args.supports:
        raise DataFormatError("--criteria/--validity need --supports FILE")
    if needs_data and not args.data:
        raise DataFormatError("this metric needs --data FILE")
    if not (args.criteria or args.validity or needs_data or args.zipf):
        raise DataFormatError("no metric requested")
    if args.pattern:
        compile_pattern(args.pattern)  # a bad pattern fails before any read
    report: dict = {}
    if args.criteria or args.validity:
        pairs = list(read_support_file(args.supports))  # read twice below
        if args.criteria:
            crit = support_criteria(pairs)
            report["criteria"] = {name: round(value, 6) for name, value in crit.as_row_list()}
            report["criteria"]["queries"] = crit.queries
            report["criteria"]["supports"] = crit.supports
            for name, value in crit.as_row_list():
                print(f"{name:24s} {value:.2f}")
        if args.validity:
            rep = validity_correctness(pairs, OracleSolver())
            report["validity"] = {
                "valid": round(rep.valid, 6), "correct": round(rep.correct, 6),
                "correct_and_valid": round(rep.correct_and_valid, 6),
                "correct_given_valid": round(rep.correct_given_valid, 6),
                "total": rep.total,
            }
            print(f"valid {rep.valid:.2f}  correct {rep.correct:.2f}  "
                  f"C&V {rep.correct_and_valid:.2f}  C|V {rep.correct_given_valid:.2f}")

    dataset = import_dataset(args.data) if needs_data else None

    if args.nn_profile:
        train_states = [ex.state for ex in dataset.split(Split.TRAIN)]
        split_states = [ex.state for ex in dataset.split(args.split)]
        profile = nn_profile(split_states, train_states, ranks=args.ranks,
                             sample=args.sample, rng=args.seed)
        report["nn_profile"] = {str(r): round(v, 6) for r, v in profile}
        print("rank " + " ".join(f"{r}:{v:.3f}" for r, v in profile))

    if args.pattern:
        sequences = [[int(a) for a in ex.actions] for ex in dataset.split(args.split)]
        rep = pattern_frequency(sequences, args.pattern,
                                over_permutations=args.permutations)
        report.setdefault("pattern", {})[args.pattern] = {
            "fraction": rep.fraction, "matched": rep.matched, "total": rep.total,
            "over_permutations": rep.over_permutations,
        }
        print(f"pattern {args.pattern!r} on split {args.split.value}: "
              f"{rep.matched}/{rep.total} = {rep.fraction:.6f}"
              f"{' (any permutation)' if rep.over_permutations else ''}")

    corpus_tokens: list[str] | None = None
    if args.zipf:
        corpus_tokens = Path(args.zipf).read_text(encoding="utf-8").split()
    elif args.zipf_commands:
        corpus_tokens = [token for ex in dataset.examples for token in realize(ex.instruction)]
    if corpus_tokens is not None:
        fit = zipf_fit(corpus_tokens)
        report["zipf"] = {"alpha": round(fit.alpha, 6), "rmse": round(fit.rmse, 6),
                          "vocabulary": fit.vocabulary, "tokens": fit.tokens}
        print(f"zipf alpha {fit.alpha:.3f} rmse {fit.rmse:.4f} "
              f"vocab {fit.vocabulary} tokens {fit.tokens}")

    if args.out:
        _write_lines(args.out, [json.dumps(report, sort_keys=True, indent=2)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-icl / permute
# ---------------------------------------------------------------------------

def _nonempty_support_pair(rec: dict) -> tuple[Example, SupportSet]:
    """The query and support set of one support-file line. An empty set is
    refused inside the read, so the error names its file line."""
    query, sset = _support_pair_from_record(rec)
    if not sset.supports:
        raise DataFormatError("query has no supports")
    return query, sset


def cmd_export_icl(args: argparse.Namespace) -> int:
    entries = _read_jsonl(args.supports, _nonempty_support_pair)
    out = Path(args.out)
    count = _write_jsonl(out, export_icl_records(entries, policy=args.policy, seed=args.seed,
                                                 permute_words=args.permute_words))
    config = {"policy": args.policy, "permute_words": args.permute_words,
              "supports": Path(args.supports).name}
    write_manifest("export-icl", config, args.seed, out)
    print(f"wrote {count} icl records to {out}")
    return EXIT_OK


def cmd_permute(args: argparse.Namespace) -> int:
    def record(idx: int, ex: Example) -> dict:
        perm = sample_permutation(np.random.default_rng([args.seed, idx]), ACTION_TABLE_SIZE)
        codes = [int(a) for a in ex.actions]
        return {
            "target_codes": codes,
            "permuted_codes": list(apply_permutation(perm, codes)),
            "permutation": perm.to_codes(),
            "split": ex.split.value,
        }

    dataset = import_dataset(args.data)
    out = Path(args.out)
    _write_jsonl(out, (record(idx, ex) for idx, ex in enumerate(dataset.examples)))
    write_manifest("permute", {"data": Path(args.data).name}, args.seed, out)
    print(f"wrote {len(dataset)} permuted records to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# paraphrase / serve-oracle
# ---------------------------------------------------------------------------

def cmd_paraphrase(args: argparse.Namespace) -> int:
    from .paraphrase import HttpTransport, ParaphraseClient, build_prompt

    queries = []
    if args.query:
        queries.append(args.query)
    if args.input:
        queries.extend(line.strip() for line in
                       Path(args.input).read_text(encoding="utf-8").splitlines()
                       if line.strip())
    if not queries:
        raise DataFormatError("paraphrase needs --query or --input")

    if args.dry_run:
        out_dir = Path(args.out or "prompts")
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, query in enumerate(queries):
            prompt = build_prompt(args.mode, query, template_mode=args.template)
            (out_dir / f"prompt_{i:05d}.txt").write_text(prompt, encoding="utf-8")
        print(f"wrote {len(queries)} prompts to {out_dir}")
        return EXIT_OK

    client = ParaphraseClient(HttpTransport(), cache_path=args.cache,
                              max_workers=args.workers)
    records = client.paraphrase_many(args.mode, queries, template_mode=args.template)
    out = Path(args.out or "paraphrases.jsonl")
    _write_jsonl(out, (rec.to_dict() for rec in records))
    retained = sum(sum(r.retained) for r in records)
    total = sum(len(r.retained) for r in records)
    print(f"wrote {len(records)} records to {out}; retention {retained}/{total}")
    return EXIT_OK


def cmd_serve_oracle(args: argparse.Namespace) -> int:
    serve_solver(OracleSolver(), sys.stdin, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supportgen",
        description="Grid-world instruction dataset and support-set toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset with compositional splits")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--train", type=_int_at_least(0), default=50_000)
    p.add_argument("--per-split", type=_int_at_least(0), default=2_000)
    p.add_argument("--split-counts", type=_parse_split_counts, default={},
                   help="override per-split counts of test splits a-h, e.g. 'h=100,c=50'")
    p.add_argument("--grid", type=_int_at_least(1), default=6)
    p.add_argument("--objects", type=_parse_object_range, default=(3, 10),
                   help="object count range, e.g. 3..10")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-supports", help="attach support sets to dataset examples")
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", required=True,
                   help=f"one of {STRATEGY_LIST} (name/aliases, any case)")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--splits", type=_parse_split_list, default="all",
                   help="comma list of splits or 'all'")
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   metavar="N", help="the first N queries per split, in file order")
    p.add_argument("--n", type=_int_at_least(1), default=DEFAULT_SUPPORT_COUNT)
    p.add_argument("--k", type=_int_at_least(1), default=DEFAULT_SAMPLE_COUNT)
    p.add_argument("--mask-rate", type=_unit_rate, default=DEFAULT_MASK_RATE)
    p.add_argument("--alpha", type=_finite_weight, default=None,
                   help="hybrid weight (default: the retriever's own)")
    p.add_argument("--cells", type=_int_at_least(1), default=DEFAULT_CELLS)
    p.add_argument("--probes", type=_int_at_least(1), default=DEFAULT_PROBES)
    p.add_argument("--pca-dim", type=_int_at_least(1), default=DEFAULT_PCA_DIM)
    p.add_argument("--solver", choices=("oracle", "external"), default="oracle")
    p.add_argument("--solver-cmd", default=None)
    p.add_argument("--solver-timeout", type=_positive_seconds, default=None)
    p.add_argument("--replace-invalid", action="store_true",
                   help="replace unsolvable demogen candidates instead of keeping them")
    p.set_defaults(func=cmd_gen_supports)

    p = sub.add_parser("analyze", help="run metrics over datasets or support files")
    p.add_argument("--data", default=None)
    p.add_argument("--supports", default=None)
    p.add_argument("--criteria", action="store_true")
    p.add_argument("--validity", action="store_true")
    p.add_argument("--nn-profile", action="store_true")
    p.add_argument("--ranks", type=_parse_ranks, default=DEFAULT_RANKS,
                   help="comma list of neighbour ranks, each >= 1")
    p.add_argument("--sample", type=_int_at_least(1), default=DEFAULT_NN_SAMPLE)
    p.add_argument("--split", type=_parse_split, default="h")
    p.add_argument("--pattern", default=None,
                   help=f"named pattern ({', '.join(NAMED_PATTERNS)}) or expression")
    p.add_argument("--permutations", action="store_true")
    zipf = p.add_mutually_exclusive_group()
    zipf.add_argument("--zipf", default=None, help="token corpus file")
    zipf.add_argument("--zipf-commands", action="store_true",
                      help="fit the zipf law on the dataset's command tokens")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export-icl", help="serialize (supports, query) records")
    p.add_argument("--supports", required=True)
    p.add_argument("--policy", choices=("permute", "identity"), default="permute")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--permute-words", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_icl)

    p = sub.add_parser("permute", help="relabel dataset targets per record")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser("paraphrase", help="build prompts / call a paraphrase endpoint")
    p.add_argument("--mode", default="simple",
                   choices=("simple", "adverb", "relational", "reascan-style"))
    p.add_argument("--query", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--template", action="store_true")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--cache", default=None)
    p.add_argument("--workers", type=_int_at_least(1), default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_paraphrase)

    p = sub.add_parser("serve-oracle", help="serve the oracle over the line protocol")
    p.set_defaults(func=cmd_serve_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExternalServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except (SupportgenError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
