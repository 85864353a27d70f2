"""Per-layer metrics of one traced pass, named by supportgen module.

`PER_LAYER` is the full list the benchmark reports with --trace 1, in the
order of BENCHMARK.json. `LayerProbe` installs the tracer plus observers that
read counters from the values the functions return (DemoGen's sampled and
unique counts, GandR's helper flag, IVF hits), and turns the spans into the
metrics of the list. The `cli.*`, `metrics.crit8_frac` and `trace.overhead`
entries come from bench/run.py, which sees the untraced pass and the
analyze reports. A layer a workload bypasses reports 0 calls and 0 s.
"""

from __future__ import annotations

import inspect

import numpy as np

from tracer import Tracer

CLI_LABELS = (
    "gen-data",
    "gen-supports.demogen",
    "gen-supports.random-external",
    "analyze.criteria-validity",
    "export-icl",
    "gen-supports.covr",
    "gen-supports.gandr",
    "analyze.nn-profile",
)

PER_LAYER = [(f"cli.{label}.s", "s") for label in CLI_LABELS] + [
    ("dataset.generate_example.calls", "count"),
    ("dataset.generate_example.self_s", "s"),
    ("dataset.states_per_example", "ratio"),
    ("dataset.export_dataset.s", "s"),
    ("dataset.import_dataset.s", "s"),
    ("dataset.import_dataset.self_s", "s"),
    ("dataset.export_icl_records.s", "s"),
    ("grammar.resolve_target.calls", "count"),
    ("grammar.resolve_target.self_s", "s"),
    ("grammar.resolve_target.unique_frac", "ratio"),
    ("grammar.parse.self_s", "s"),
    ("planner.solve.calls", "count"),
    ("planner.solve.self_s", "s"),
    ("planner.solve.total_s", "s"),
    ("world.new_random_state.self_s", "s"),
    ("world.encode_one_hot.calls", "count"),
    ("world.encode_one_hot.self_s", "s"),
    ("instruction_model.sample_infill.calls", "count"),
    ("instruction_model.sample_infill.self_s", "s"),
    ("instruction_model.score.calls", "count"),
    ("instruction_model.score.self_s", "s"),
    ("instruction_model.fit.s", "s"),
    ("engines.demogen_supports.ms_per_query", "ms"),
    ("engines.demogen.unique_frac", "ratio"),
    ("engines.demogen.invalid_frac", "ratio"),
    ("engines.random_supports.ms_per_query", "ms"),
    ("engines.ExternalSolver.solve.calls", "count"),
    ("engines.ExternalSolver.solve.ms_p50", "ms"),
    ("engines.ExternalSolver.solve.ms_p99", "ms"),
    ("engines.ExternalSolver.solve.errors", "count"),
    ("engines.build_covr_retriever.s", "s"),
    ("engines.build_gandr_retriever.s", "s"),
    ("engines.covr_supports.ms_per_query", "ms"),
    ("engines.gandr_supports.ms_per_query", "ms"),
    ("engines.gandr.helper_failed", "count"),
    ("index.kmeans.covr.s", "s"),
    ("index.kmeans.gandr.s", "s"),
    ("index.pca_fit.s", "s"),
    ("index.tfidf_encode.calls", "count"),
    ("index.tfidf_encode.self_s", "s"),
    ("index.hybrid_encode.self_s", "s"),
    ("index.ivf_build.self_s", "s"),
    ("index.ivf_query.calls", "count"),
    ("index.ivf_query.ms_p50", "ms"),
    ("index.ivf_recall", "ratio"),
    ("metrics.support_criteria.s", "s"),
    ("metrics.validity_correctness.s", "s"),
    ("metrics.nn_profile.s", "s"),
    ("metrics.crit8_frac", "ratio"),
    ("permuter.sample_permutation.calls", "count"),
    ("permuter.apply.calls", "count"),
    ("permuter.apply.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
]

#: recall@RECALL_K of the IVF answers against exact search.
RECALL_K = 128


class LayerProbe:
    def __init__(self) -> None:
        self.tracer = Tracer()
        self.demogen = {"sampled": 0, "unique": 0, "supports": 0, "invalid": 0}
        self.helper_failed = 0
        self.resolve_keys: set[int] = set()
        self.ivf_answers: list = []
        self.tracer.observers.update({
            "engines.demogen_supports": self._on_demogen,
            "engines.gandr_supports": self._on_gandr,
            "grammar.resolve_target": self._on_resolve,
            "index.ivf_query": self._on_ivf_query,
        })
        self._ivf_signature = None

    def _on_demogen(self, args, kwargs, result) -> None:
        self.demogen["sampled"] += result.meta["sampled"]
        self.demogen["unique"] += result.meta["unique"]
        self.demogen["supports"] += len(result.supports)
        self.demogen["invalid"] += sum(s.actions is None for s in result.supports)

    def _on_gandr(self, args, kwargs, result) -> None:
        self.helper_failed += bool(result.meta.get("helper_failed"))

    def _on_resolve(self, args, kwargs, result) -> None:
        self.resolve_keys.add(hash((args, tuple(sorted(kwargs.items())))))

    def _on_ivf_query(self, args, kwargs, result) -> None:
        if self._ivf_signature is None:
            import supportgen.index

            self._ivf_signature = inspect.signature(supportgen.index.ivf_query.__wrapped__)
        bound = self._ivf_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        call = bound.arguments
        if call["k"] >= RECALL_K:
            self.ivf_answers.append((call["index"], np.array(call["query"]),
                                     [idx for idx, _ in result[:RECALL_K]]))

    def ivf_recall(self) -> float:
        """Mean recall@RECALL_K of the recorded IVF answers against
        brute_force_query over the index's own stored vectors."""
        if not self.ivf_answers:
            return 0.0
        import supportgen.index

        exact_query = getattr(supportgen.index.brute_force_query, "__wrapped__",
                              supportgen.index.brute_force_query)
        flat: dict[int, tuple] = {}
        recalls = []
        for index, query, approx in self.ivf_answers:
            if id(index) not in flat:
                flat[id(index)] = (np.concatenate(index.cell_vectors),
                                   np.concatenate(index.cell_ids))
            vectors, ids = flat[id(index)]
            exact = {idx for idx, _ in exact_query(vectors, ids, query, RECALL_K)}
            recalls.append(len(exact.intersection(approx)) / len(exact))
        return float(np.mean(recalls))

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER value this process can see."""
        t = self.tracer.by_name()
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}

        def row(name: str) -> dict:
            return t.get(name, zero)

        def per_call_ms(name: str) -> float:
            r = row(name)
            return 1000.0 * r["s"] / r["calls"] if r["calls"] else 0.0

        def ms_quantile(name: str, q: float) -> float:
            samples = self.tracer.samples[name]
            return 1000.0 * float(np.quantile(samples, q)) if samples else 0.0

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        gen = row("dataset.generate_example")
        resolve = row("grammar.resolve_target")
        dg = self.demogen
        out = {
            "dataset.generate_example.calls": gen["calls"],
            "dataset.generate_example.self_s": gen["self_s"],
            "dataset.states_per_example": share(row("world.new_random_state")["calls"],
                                                gen["calls"]),
            "dataset.export_dataset.s": row("dataset.export_dataset")["s"],
            "dataset.import_dataset.s": row("dataset.import_dataset")["s"],
            "dataset.import_dataset.self_s": row("dataset.import_dataset")["self_s"],
            "dataset.export_icl_records.s": row("dataset.export_icl_records")["s"],
            "grammar.resolve_target.calls": resolve["calls"],
            "grammar.resolve_target.self_s": resolve["self_s"],
            "grammar.resolve_target.unique_frac": share(len(self.resolve_keys),
                                                        resolve["calls"]),
            "grammar.parse.self_s": row("grammar.parse")["self_s"],
            "planner.solve.calls": row("planner.solve")["calls"],
            "planner.solve.self_s": row("planner.solve")["self_s"],
            "planner.solve.total_s": row("planner.solve")["s"],
            "world.new_random_state.self_s": row("world.new_random_state")["self_s"],
            "world.encode_one_hot.calls": row("world.encode_one_hot")["calls"],
            "world.encode_one_hot.self_s": row("world.encode_one_hot")["self_s"],
            "instruction_model.sample_infill.calls": row("instruction_model.sample_infill")["calls"],
            "instruction_model.sample_infill.self_s": row("instruction_model.sample_infill")["self_s"],
            "instruction_model.score.calls": row("instruction_model.score")["calls"],
            "instruction_model.score.self_s": row("instruction_model.score")["self_s"],
            "instruction_model.fit.s": row("instruction_model.fit")["s"],
            "engines.demogen_supports.ms_per_query": per_call_ms("engines.demogen_supports"),
            "engines.demogen.unique_frac": share(dg["unique"], dg["sampled"]),
            "engines.demogen.invalid_frac": share(dg["invalid"], dg["supports"]),
            "engines.random_supports.ms_per_query": per_call_ms("engines.random_supports"),
            "engines.ExternalSolver.solve.calls": row("engines.ExternalSolver.solve")["calls"],
            "engines.ExternalSolver.solve.ms_p50": ms_quantile("engines.ExternalSolver.solve", 0.5),
            "engines.ExternalSolver.solve.ms_p99": ms_quantile("engines.ExternalSolver.solve", 0.99),
            "engines.ExternalSolver.solve.errors": row("engines.ExternalSolver.solve")["errors"],
            "engines.build_covr_retriever.s": row("engines.build_covr_retriever")["s"],
            "engines.build_gandr_retriever.s": row("engines.build_gandr_retriever")["s"],
            "engines.covr_supports.ms_per_query": per_call_ms("engines.covr_supports"),
            "engines.gandr_supports.ms_per_query": per_call_ms("engines.gandr_supports"),
            "engines.gandr.helper_failed": self.helper_failed,
            "index.kmeans.covr.s": self.tracer.inclusive_under(
                "index.kmeans", "engines.build_covr_retriever"),
            "index.kmeans.gandr.s": self.tracer.inclusive_under(
                "index.kmeans", "engines.build_gandr_retriever"),
            "index.pca_fit.s": row("index.pca_fit")["s"],
            "index.tfidf_encode.calls": row("index.tfidf_encode")["calls"],
            "index.tfidf_encode.self_s": row("index.tfidf_encode")["self_s"],
            "index.hybrid_encode.self_s": row("index.hybrid_encode")["self_s"],
            "index.ivf_build.self_s": row("index.ivf_build")["self_s"],
            "index.ivf_query.calls": row("index.ivf_query")["calls"],
            "index.ivf_query.ms_p50": ms_quantile("index.ivf_query", 0.5),
            "metrics.support_criteria.s": row("metrics.support_criteria")["s"],
            "metrics.validity_correctness.s": row("metrics.validity_correctness")["s"],
            "metrics.nn_profile.s": row("metrics.nn_profile")["s"],
            "permuter.sample_permutation.calls": row("permuter.sample_permutation")["calls"],
            "permuter.apply.calls": row("permuter.apply")["calls"],
            "permuter.apply.self_s": row("permuter.apply")["self_s"],
            "trace.spans": self.tracer.spans,
        }
        out["index.ivf_recall"] = self.ivf_recall()
        return out
