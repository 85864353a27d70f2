"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured values they assert over.
"""

import hashlib
import json
import re
import sys
from collections import Counter

import numpy as np
import pytest

from supportgen.cli import main as cli_main
from supportgen.dataset import DatasetConfig, Split, generate_dataset
from supportgen.engines import ExternalSolver, OracleSolver, demogen_supports, heuristic_supports
from supportgen.errors import UnresolvableError
from supportgen.grammar import INSTRUCTIONS, realize
from supportgen.instruction_model import fit as fit_model
from supportgen.metrics import (
    CRITERIA_ROWS,
    nn_profile,
    pattern_frequency,
    support_criteria,
    validity_correctness,
    zipf_fit,
)
from supportgen.permuter import Permutation, apply, compress_notation, expand_notation
from supportgen.planner import goal_satisfied, solve
from supportgen.world import Action, new_random_state, simulate

from conftest import zeta_sample
from test_paraphrase import HESITANT_CIRCLE_PARAPHRASES

# Two further canned 25-paraphrase lists; together with the hesitant-circle
# list they form the natural-language-style corpus fixture.
YELLOW_CYLINDER_PARAPHRASES = [
    "Walk hesitantly to a small yellow cylinder",
    "Approach a small yellow cylinder with hesitation",
    "Take cautious steps towards a small yellow cylinder",
    "Walk slowly towards a small yellow cylinder",
    "Move towards a small yellow cylinder with caution",
    "Walk towards a small yellow cylinder carefully",
    "Take hesitant steps towards a small yellow cylinder",
    "Approach a small yellow cylinder slowly and hesitantly",
    "Walk towards a small yellow cylinder with apprehension",
    "Move towards a small yellow cylinder hesitantly",
    "Walk to a small yellow cylinder with reluctance",
    "Take tentative steps towards a small yellow cylinder",
    "Walk towards a small yellow cylinder with uncertainty",
    "Approach a small yellow cylinder with trepidation",
    "Walk towards a small yellow cylinder with reservation",
    "Take hesitant strides towards a small yellow cylinder",
    "Walk to a small yellow cylinder with caution",
    "Move towards a small yellow cylinder with unease",
    "Walk towards a small yellow cylinder with doubt",
    "Approach a small yellow cylinder with timidity",
    "Walk towards a small yellow cylinder with hesitance",
    "Take slow steps towards a small yellow cylinder",
    "Walk towards a small yellow cylinder with wariness",
    "Move towards a small yellow cylinder with hesitancy",
    "Walk towards a small yellow cylinder with reluctance and caution",
]

ZIGZAG_CIRCLE_PARAPHRASES = [
    "Zigzag while pulling a circle",
    "Pull a circle in a zigzag pattern",
    "Carefully pull a circle while zigzagging",
    "Zigzag and pull a circle simultaneously",
    "Pull a circle while moving in a zigzag motion",
    "With caution, pull a circle while zigzagging",
    "Zigzag your way to the circle and pull it",
    "Pull a circle while making zigzag movements",
    "Zigzag and pull the circle with care",
    "Pull a circle while navigating in a zigzag direction",
    "Move in a zigzag pattern while pulling a circle",
    "Pull a circle while making a zigzag path",
    "Zigzag towards the circle and pull it",
    "Pull a circle while making zigzag turns",
    "Carefully zigzag and pull the circle",
    "Zigzag and carefully pull the circle",
    "Pull a circle while making sharp zigzag movements",
    "Zigzag and pull the circle with caution",
    "Pull a circle while making quick zigzag motions",
    "Zigzag and pull the circle slowly",
    "Pull a circle while zigzagging in a controlled manner",
    "Zigzag and pull the circle with precision",
    "Pull a circle while making small zigzag movements",
    "Zigzag and pull the circle with care and attention",
    "Pull a circle while zigzagging smoothly",
]


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def train50k():
    config = DatasetConfig(seed=424242, train_count=50_000, split_counts={})
    return generate_dataset(config)


@pytest.fixture(scope="module")
def h1000():
    config = DatasetConfig(seed=31337, train_count=0,
                           split_counts={Split.H: 1000})
    return generate_dataset(config).split(Split.H)


def test_criterion_1_permuter_fixtures():
    def encode(notation):
        return [Action[name].value for name in expand_notation(notation)]

    def perm(mapping):
        codes = [0] * 6
        for name, dst in mapping.items():
            codes[Action[name].value] = dst
        return Permutation(tuple(codes))

    first = compress_notation(apply(
        perm({"PULL": 0, "PUSH": 5, "STAY": 2, "LTURN": 1, "RTURN": 3, "WALK": 4}),
        encode("WALK(5) RTURN WALK(5)")))
    last = compress_notation(apply(
        perm({"PULL": 1, "PUSH": 0, "STAY": 5, "LTURN": 3, "RTURN": 4, "WALK": 2}),
        encode("LTURN WALK(2) PUSH")))
    ok = first == "4(5) 3 4(5)" and last == "3 2(2) 0"
    report(1, ok, f"permuter fixtures byte-exact: {first!r}, {last!r}")


def test_criterion_2_heuristic_criteria(h1000):
    solver = OracleSolver()
    pairs = [(ex, heuristic_supports(ex, solver)) for ex in h1000]
    rep = support_criteria(pairs)
    values = [float(rep.values[row]) for row in CRITERIA_ROWS]
    ok = len(pairs) >= 1000 and all(v == 1.0 for v in values)
    report(2, ok, f"heuristic criteria over {len(pairs)} split-H queries: "
                  f"{[round(v, 4) for v in values]}")


def test_criterion_3_oracle_soundness(h1000):
    rng = np.random.default_rng(8080)
    instructions = list(INSTRUCTIONS)
    combos = Counter()
    checked = failures = 0
    while checked < 1000:
        state = new_random_state(rng, 6, int(rng.integers(3, 11)))
        instr = instructions[int(rng.integers(len(instructions)))]
        try:
            actions = solve(state, instr)
        except UnresolvableError:
            continue
        final = simulate(state, actions)
        if not goal_satisfied(state, instr, final):
            failures += 1
        combos[(instr.verb, instr.adverb)] += 1
        checked += 1

    fragment = (Action.LTURN,) * 4 + (Action.PULL,)
    missing = 0
    for ex in h1000:
        flat = tuple(ex.actions)
        if not any(flat[i:i + 5] == fragment for i in range(len(flat) - 4)):
            missing += 1

    ok = failures == 0 and missing == 0 and len(combos) == 15
    report(3, ok, f"{checked} oracle-solved pairs, {failures} goal failures, "
                  f"{len(combos)}/15 verb-adverb combos, "
                  f"{missing}/1000 split-H targets missing the spin-pull fragment")


def test_criterion_4_pattern_frequency_ordering(train50k):
    sequences = [[int(a) for a in ex.actions] for ex in train50k.examples]
    h = pattern_frequency(sequences, "H", over_permutations=True).fraction
    d = pattern_frequency(sequences, "D", over_permutations=True).fraction
    g = pattern_frequency(sequences, "G", over_permutations=True).fraction
    ok = h > d > g
    report(4, ok, f"pattern frequencies on 50k train (any permutation): "
                  f"H={h:.4%} > D={d:.4%} > G={g:.4%}")


def test_criterion_5_retrieval_correctness():
    from supportgen.index import brute_force_query, ivf_build, ivf_query

    rng = np.random.default_rng(606)
    exact_ok = True
    for n in (1_000, 10_000, 50_000):
        x = rng.standard_normal((n, 6))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        cells = 512 if n >= 10_000 else 64
        index = ivf_build(x, cells=cells, rng=1)
        for qi in range(0, 50):
            q = x[int(rng.integers(n))]
            got = [i for i, _ in ivf_query(index, q, k=16, probes=cells)]
            want = [i for i, _ in brute_force_query(x, None, q, k=16)]
            exact_ok = exact_ok and got == want

    x = rng.standard_normal((50_000, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    queries = rng.standard_normal((200, 6))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    index = ivf_build(x, cells=512, rng=2)
    recall = 0.0
    for q in queries:
        want = {i for i, _ in brute_force_query(x, None, q, k=16)}
        got = {i for i, _ in ivf_query(index, q, k=16, probes=10)}
        recall += len(want & got) / 16
    recall /= len(queries)
    ok = exact_ok and recall >= 0.95
    report(5, ok, f"probes=cells exact on 1k/10k/50k: {exact_ok}; "
                  f"recall@16 with 10/512 probes on 50k unit vectors: {recall:.4f}")


def test_criterion_6_demogen_oracle_validity(h1000, train50k):
    model = fit_model(ex.instruction for ex in train50k.examples)
    oracle = OracleSolver()
    supports = []
    for idx, query in enumerate(h1000[:500]):
        sset = demogen_supports(query, model, oracle,
                                rng=np.random.default_rng([9001, idx]))
        supports.extend(sset.supports)
    rep = validity_correctness(supports, oracle)
    ok = rep.correct_given_valid == 1.0
    report(6, ok, f"demogen-with-oracle over 500 queries ({rep.total} supports): "
                  f"valid={rep.valid:.3f} correct={rep.correct:.3f} "
                  f"C&V={rep.correct_and_valid:.3f} C|V={rep.correct_given_valid:.3f}")


def test_criterion_7_zipf_estimator(train50k):
    rng = np.random.default_rng(99)
    freqs = zeta_sample(1.3, 100_000, rng)
    synthetic_sample = Counter({f"w{i}": int(x) for i, x in enumerate(freqs)})
    recovered = zipf_fit(synthetic_sample, x_min=1).alpha

    grammar_tokens = []
    for ex in train50k.examples:
        grammar_tokens.extend(realize(ex.instruction))
    nl_tokens = []
    for sentence in (HESITANT_CIRCLE_PARAPHRASES + YELLOW_CYLINDER_PARAPHRASES +
                     ZIGZAG_CIRCLE_PARAPHRASES):
        nl_tokens.extend(re.findall(r"[a-z]+", sentence.lower()))
    synthetic = zipf_fit(grammar_tokens)
    natural = zipf_fit(nl_tokens)
    ok = (abs(recovered - 1.3) <= 0.05
          and synthetic.alpha > natural.alpha
          and synthetic.rmse > natural.rmse)
    report(7, ok, f"zipf MLE on 1e5 zeta draws: {recovered:.4f} (target 1.3 +- 0.05); "
                  f"grammar corpus alpha={synthetic.alpha:.2f} rmse={synthetic.rmse:.3f} vs "
                  f"NL-like alpha={natural.alpha:.2f} rmse={natural.rmse:.3f}")


def test_criterion_8_nn_profile(train50k):
    states = [ex.state for ex in train50k.examples]
    ranks = [2 ** i for i in range(14)]
    profile = nn_profile(states, states, ranks=ranks, sample=1000, rng=7)
    values = [v for _, v in profile]
    rank1 = values[0]
    monotone = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # float32 accumulation bounds self-similarity within ~1e-7 of exact 1.0
    ok = rank1 == pytest.approx(1.0, abs=1e-6) and monotone and len(values) == 14
    report(8, ok, f"train-vs-train rank-1 mean similarity {rank1:.6f}; "
                  f"monotone over ranks 1..8192 ({values[0]:.3f} -> {values[-1]:.3f})")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.jsonl"
        code = cli_main(["gen-data", "--seed", "7", "--train", "1000",
                         "--per-split", "100", "--out", str(out)])
        assert code == 0
        manifest = json.loads(out.with_suffix(".jsonl.manifest.json").read_text())
        outputs.append((hashlib.sha256(out.read_bytes()).hexdigest(),
                        manifest["outputs"][out.name], manifest["config_digest"]))
    ok = (outputs[0][0] == outputs[1][0]
          and outputs[0][1] == outputs[1][1]
          and outputs[0][2] == outputs[1][2]
          and outputs[0][0] == outputs[0][1])
    report(9, ok, f"rerun digest equality: {outputs[0][0][:16]}... == {outputs[1][0][:16]}...")


def test_criterion_10_differential_solver():
    rng = np.random.default_rng(1234)
    oracle = OracleSolver()
    instructions = list(INSTRUCTIONS)
    mismatches = 0
    with ExternalSolver([sys.executable, "-m", "supportgen.cli", "serve-oracle"],
                        timeout=30.0) as external:
        checked = 0
        while checked < 100:
            state = new_random_state(rng, 6, int(rng.integers(3, 11)))
            instr = instructions[int(rng.integers(len(instructions)))]
            try:
                expected = oracle.solve(state, instr)
            except Exception:
                continue
            got = external.solve(state, instr)
            if got != expected:
                mismatches += 1
            checked += 1
    ok = mismatches == 0
    report(10, ok, f"external oracle vs in-process oracle: {mismatches}/100 mismatches")
