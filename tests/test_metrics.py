import math
import warnings
from collections import Counter

import numpy as np
import pytest

from supportgen.dataset import DatasetConfig, Example, Split, TEST_SPLITS, generate_dataset
from supportgen.engines import OracleSolver, Support, SupportSet, heuristic_supports
from supportgen.errors import FitError, PatternError
from supportgen.grammar import parse
from supportgen.metrics import (
    CRITERIA_ROWS,
    NAMED_PATTERNS,
    compile_pattern,
    nn_profile,
    pattern_frequency,
    support_criteria,
    validity_correctness,
    zipf_fit,
)
from supportgen.planner import solve
from supportgen.world import Action, AgentPose, Heading, ObjectSpec, Position, WorldState

import generation_reference
from conftest import zeta_sample


@pytest.fixture(scope="module")
def corpus():
    config = DatasetConfig(seed=33, train_count=150,
                           split_counts={s: 8 for s in TEST_SPLITS})
    return generate_dataset(config)


def example_with_duplicate_support():
    state = WorldState(6, AgentPose(Position(0, 2), Heading.EAST),
                       (ObjectSpec("circle", "red", 2, Position(4, 2)),))
    instr = parse("pull a red circle while spinning".split())
    query = Example(state, instr, solve(state, instr), Split.H)
    duplicate = Support(state, instr, query.actions)
    return query, SupportSet("handmade", [duplicate])


class TestSupportCriteria:
    def test_exact_duplicate_support_is_all_ones(self):
        query, sset = example_with_duplicate_support()
        report = support_criteria([(query, sset)])
        assert all(report.values[row] == 1.0 for row in CRITERIA_ROWS)

    def test_heuristic_sets_all_ones(self, corpus):
        solver = OracleSolver()
        pairs = [(ex, heuristic_supports(ex, solver)) for ex in corpus.split(Split.H)]
        report = support_criteria(pairs)
        for row in CRITERIA_ROWS:
            assert report.values[row] == 1.0, row

    def test_unresolvable_supports_count_as_non_matching(self):
        query, sset = example_with_duplicate_support()
        bad = Support(query.state, parse("push a blue cylinder".split()), None)
        report = support_criteria([(query, SupportSet("x", [bad]))])
        assert report.values["(1) described object"] == 0.0
        assert report.values["(2) agent position"] == 1.0  # same state still
        for row in CRITERIA_ROWS[2:]:
            assert report.values[row] == 0.0

    def test_rows_6_to_9_are_set_level_indicators(self):
        # one support shows the verb, another the adverb; no single support
        # shows both, yet rows (6)-(9) are all satisfied
        state = WorldState(6, AgentPose(Position(0, 2), Heading.EAST),
                           (ObjectSpec("circle", "red", 2, Position(4, 2)),))
        instr = parse("pull a red circle while spinning".split())
        query = Example(state, instr, solve(state, instr), Split.H)
        verb_only = parse("pull a red circle".split())
        adverb_only = parse("walk to a red circle while spinning".split())
        sset = SupportSet("x", [
            Support(state, verb_only, solve(state, verb_only)),
            Support(state, adverb_only, solve(state, adverb_only)),
        ])
        report = support_criteria([(query, sset)])
        assert report.values["(6) verb & (5)"] == 1.0
        assert report.values["(7) adverb & (5)"] == 1.0
        assert report.values["(8) (6) & (7)"] == 1.0
        assert report.values["(9) (4) & (8)"] == 1.0

    def test_other_state_supports_fail_agent_position(self, corpus):
        query, sset = example_with_duplicate_support()
        donor = corpus.split(Split.TRAIN)[0]
        moved = Support(donor.state, query.instruction, donor.actions)
        report = support_criteria([(query, SupportSet("x", [moved]))])
        assert report.values["(2) agent position"] == 0.0

    def test_other_states_agent_position_near_chance(self):
        # different-state supports share the agent cell only by chance
        # (about 1/36 on a 6x6 grid); needs a train corpus big enough that
        # most heuristic candidates are found
        from supportgen.engines import build_instruction_index, other_states_supports

        config = DatasetConfig(seed=44, train_count=1200,
                               split_counts={Split.A: 10, Split.F: 10})
        big = generate_dataset(config)
        index = build_instruction_index(big.split(Split.TRAIN))
        pairs = []
        for i, ex in enumerate(big.split(Split.A) + big.split(Split.F)):
            sset = other_states_supports(ex, index, rng=i)
            if sset.supports:
                pairs.append((ex, sset))
        report = support_criteria(pairs)
        assert report.supports >= 30
        assert report.values["(2) agent position"] < 0.15


class TestValidityCorrectness:
    def test_oracle_solved_supports(self, corpus):
        solver = OracleSolver()
        supports = []
        for ex in corpus.split(Split.H):
            supports.extend(heuristic_supports(ex, solver).supports)
        report = validity_correctness(supports, solver)
        assert report.valid == 1.0
        assert report.correct == 1.0
        assert report.correct_given_valid == 1.0

    def test_unresolvable_counts_invalid_and_incorrect(self):
        query, _ = example_with_duplicate_support()
        bad = Support(query.state, parse("push a blue cylinder".split()), None)
        report = validity_correctness([bad], OracleSolver())
        assert report.valid == 0.0 and report.correct == 0.0
        assert math.isnan(report.correct_given_valid)

    def test_corrupting_half_gives_exactly_half(self, corpus):
        solver = OracleSolver()
        supports = []
        for ex in corpus.split(Split.TRAIN)[:100]:
            supports.append(Support(ex.state, ex.instruction, ex.actions))
        for s in supports[:50]:
            flipped = Action.STAY if (not s.actions or s.actions[0] != Action.STAY) \
                else Action.WALK
            s.actions = (flipped,) + tuple(s.actions[1:])
        report = validity_correctness(supports, solver)
        assert report.valid == 1.0
        assert report.correct == 0.5
        assert report.correct_and_valid == 0.5
        assert report.correct_given_valid == 0.5

    def test_correct_never_exceeds_valid(self, corpus):
        solver = OracleSolver()
        supports = [Support(ex.state, ex.instruction, ex.actions)
                    for ex in corpus.split(Split.TRAIN)[:40]]
        supports.append(Support(supports[0].state,
                                parse("push a blue cylinder".split()), None))
        report = validity_correctness(supports, solver)
        assert report.correct_and_valid <= min(report.valid, report.correct) + 1e-12


class TestNnProfile:
    def test_train_vs_train_rank_one(self, corpus):
        states = [ex.state for ex in corpus.split(Split.TRAIN)]
        profile = nn_profile(states, states, ranks=(1, 2, 4), sample=50, rng=0)
        assert profile[0] == (1, pytest.approx(1.0))

    def test_monotone_non_increasing(self, corpus):
        train = [ex.state for ex in corpus.split(Split.TRAIN)]
        split = [ex.state for ex in corpus.split(Split.H)]
        profile = nn_profile(split, train, ranks=(1, 2, 4, 8, 16, 32, 64, 128),
                             sample=100, rng=1)
        values = [v for _, v in profile]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_rank_truncation_warns(self, corpus):
        train = [ex.state for ex in corpus.split(Split.TRAIN)][:10]
        split = [ex.state for ex in corpus.split(Split.H)]
        with pytest.warns(UserWarning, match="truncated"):
            profile = nn_profile(split, train, ranks=(1, 8192), sample=10, rng=0)
        assert [r for r, _ in profile] == [1]

    def test_matches_brute_force_on_5k_corpus(self):
        # exact nn_profile against an independent full-sort implementation
        rng = np.random.default_rng(5)
        from conftest import random_state

        train = [random_state(rng) for _ in range(5000)]
        queries = [random_state(rng) for _ in range(64)]
        ranks = (1, 4, 16, 64, 256, 1024, 4096)
        profile = dict(nn_profile(queries, train, ranks=ranks, sample=64, rng=2))

        from supportgen.world import encode_states
        train_mat = encode_states(train, np.float64)
        sums = {r: 0.0 for r in ranks}
        for q in queries:
            sims = np.sort(train_mat @ encode_states([q], np.float64)[0])[::-1]
            for r in ranks:
                sums[r] += sims[r - 1]
        for r in ranks:
            assert profile[r] == pytest.approx(sums[r] / len(queries), abs=1e-5)


@pytest.mark.pins
@pytest.mark.parametrize("train_size, split_size, sample", [
    (40, 12, 12), (1024, 300, 200), (1025, 50, 50), (1100, 1, 1), (2500, 140, 1000),
    (3000, 129, 129),
])
def test_nn_profile_equals_reference(train_size, split_size, sample):
    """nn_profile, which encodes the train states in fixed blocks, equals the
    one-matrix profile it replaced (tests/generation_reference.py) exactly,
    with train sizes below, at and across the block size and split blocks
    of one row."""
    from conftest import random_state

    rng = np.random.default_rng([train_size, split_size])
    train = [random_state(rng) for _ in range(train_size)]
    split = [random_state(rng) for _ in range(split_size)]
    ranks = (1, 2, 8, 64, 512, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = nn_profile(split, train, ranks=ranks, sample=sample, rng=3)
        want = generation_reference.nn_profile(split, train, ranks=ranks, sample=sample, rng=3)
    assert got == want


class TestZipfFit:
    def test_recovers_alpha(self):
        rng = np.random.default_rng(99)
        freqs = zeta_sample(1.3, 100_000, rng)
        tokens = Counter({f"w{i}": int(x) for i, x in enumerate(freqs)})
        fit = zipf_fit(tokens, x_min=1)
        assert fit.alpha == pytest.approx(1.3, abs=0.05)

    def test_duplication_leaves_alpha_unchanged(self):
        # the -1/2 offset in the estimator does not scale with the counts, so
        # exact invariance holds only asymptotically; large counts pin it down
        counts = {"a": 4000, "b": 1200, "c": 500, "d": 200, "e": 100}
        once = zipf_fit(Counter(counts))
        twice = zipf_fit(Counter({w: 2 * c for w, c in counts.items()}))
        assert twice.alpha == pytest.approx(once.alpha, abs=0.01)
        assert twice.vocabulary == once.vocabulary

    def test_uniform_is_worse_fit_than_zipfian(self):
        zipfish = (["the"] * 64 + ["of"] * 32 + ["and"] * 16 + ["to"] * 8 +
                   ["a"] * 4 + ["in"] * 2 + ["is"])
        uniform = [f"w{i}" for i in range(7) for _ in range(18)]
        assert zipf_fit(uniform).rmse > zipf_fit(zipfish).rmse

    def test_degenerate_corpus(self):
        with pytest.raises(FitError):
            zipf_fit(["only"])

    def test_counter_and_token_inputs_agree(self):
        tokens = ["x"] * 5 + ["y"] * 2 + ["z"]
        assert zipf_fit(tokens) == zipf_fit(Counter(tokens))


class TestPatternFrequency:
    def test_empty_pattern_matches_everything(self):
        rep = pattern_frequency([[0, 1], [5]], "", over_permutations=False)
        assert rep.fraction == 1.0

    def test_literal_match_fraction(self):
        sequences = [[5, 5], [5, 4], [0, 1], [5, 5, 5]]
        rep = pattern_frequency(sequences, "WALK(2)")
        assert rep.fraction == pytest.approx(1 / 4)

    def test_variable_repeat_requires_equal_counts(self):
        ok = [Action.LTURN, Action.LTURN, Action.WALK, Action.WALK,
              Action.LTURN, Action.WALK, Action.WALK]
        bad = [Action.LTURN, Action.LTURN, Action.WALK, Action.WALK,
               Action.LTURN, Action.WALK]
        rep = pattern_frequency([ok, bad], "D")
        assert rep.matched == 1

    def test_group_repeat(self):
        cautious = [3, 4, 4, 4, 3, 5] * 3
        rep = pattern_frequency([cautious, [5, 5]], "G")
        assert rep.matched == 1

    def test_contains_under_permutation(self):
        # WALK x4 then RTURN matches LTURN(4) PULL under a relabeling
        seq = [5, 5, 5, 5, 4]
        none = pattern_frequency([seq], "H", over_permutations=False)
        some = pattern_frequency([seq], "H", over_permutations=True)
        assert none.matched == 0
        assert some.matched == 1

    def test_spin_pull_matches_h_literal(self):
        seq = [3, 3, 3, 3, 0, 3, 3, 3, 3, 0]
        rep = pattern_frequency([seq], "H")
        assert rep.matched == 1

    def test_malformed_pattern(self):
        """A repeat count too large for re is malformed too."""
        for pattern in ("WALK((", "FLY(2)", "WALK(99999999999)", "( WALK )(99999999999)"):
            with pytest.raises(PatternError):
                pattern_frequency([[0]], pattern)

    def test_variable_across_symbols_rejected(self):
        with pytest.raises(PatternError):
            compile_pattern("WALK(n) STAY(n)").regex_for({"WALK": 5, "STAY": 2})

    def test_ordering_on_generated_train(self, corpus):
        sequences = [[int(a) for a in ex.actions] for ex in corpus.split(Split.TRAIN)]
        h = pattern_frequency(sequences, "H", over_permutations=True).fraction
        d = pattern_frequency(sequences, "D", over_permutations=True).fraction
        g = pattern_frequency(sequences, "G", over_permutations=True).fraction
        assert h > d >= g


# assignments of action codes the pattern tests compare regexes under: the
# default codes and three relabelings of them
_ASSIGNMENTS = [{a.name: perm[a.value] for a in Action}
                for perm in ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0),
                             (1, 2, 3, 4, 5, 0), (3, 5, 0, 4, 1, 2))]


def _code_strings() -> list[str]:
    """Every code string of length 0-2, and seeded strings of 1-6 runs of
    1-5 equal codes."""
    digits = "012345"
    strings = ["", *digits, *(a + b for a in digits for b in digits)]
    rng = np.random.default_rng(29)
    for _ in range(120):
        runs = rng.integers(1, 7)
        strings.append("".join(digits[rng.integers(6)] * int(rng.integers(1, 6))
                               for _ in range(runs)))
    return strings


_CODE_STRINGS = _code_strings()


def _pattern_outcome(compile_fn, text: str):
    """The exception class compile_fn raises on text, or the compiled
    symbols and the fullmatch of every code string under each assignment."""
    try:
        compiled = compile_fn(text)
        regexes = [compiled.regex_for(assignment) for assignment in _ASSIGNMENTS]
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    return compiled.symbols, [[rx.fullmatch(s) is not None for s in _CODE_STRINGS]
                              for rx in regexes]


class TestCompilePatternReference:
    """compile_pattern against the tree-building compiler it replaced
    (tests/generation_reference.py)."""

    def test_named_patterns_equal_reference(self):
        for name, text in NAMED_PATTERNS.items():
            for pattern in (name, text, text.lower(), f" {name} "):
                got = _pattern_outcome(compile_pattern, pattern)
                assert not isinstance(got, type)
                assert got == _pattern_outcome(generation_reference.compile_pattern, pattern)

    def test_random_token_strings_equal_reference(self):
        # single tokens plus fragments that make counts, variables and groups common
        vocabulary = ["..", "(", ")", "(n)", "(3)", "(0)", ")(n)", "(walk", "WALK", "LTURN",
                      "rturn", "Pull", "stay", "WALK(n)", "lturn(m)", "m", "0", "1", "4", "12",
                      "fly"]
        rng = np.random.default_rng(17)
        valid = 0
        for _ in range(20_000):
            tokens = [vocabulary[i] for i in rng.integers(len(vocabulary), size=rng.integers(9))]
            text = " ".join(tokens)
            got = _pattern_outcome(compile_pattern, text)
            assert got == _pattern_outcome(generation_reference.compile_pattern, text), text
            valid += not isinstance(got, type)
        assert valid >= 2_000
