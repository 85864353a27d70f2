import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from supportgen.errors import MappingError, PatternError
from supportgen.permuter import (
    Permutation,
    apply,
    compress_notation,
    expand_notation,
    identity_permutation,
    invert,
    sample_permutation,
)
from supportgen.world import Action


def encode(notation: str) -> list[int]:
    return [Action[name].value for name in expand_notation(notation)]


def perm_from_map(mapping: dict[str, int]) -> Permutation:
    codes = [0] * 6
    for name, dst in mapping.items():
        codes[Action[name].value] = dst
    return Permutation(tuple(codes))


# The seven reference rows: (original actions, symbol mapping, encoded form,
# permuted encoded form).
REFERENCE_ROWS = [
    ("WALK(5) RTURN WALK(5)",
     {"PULL": 0, "PUSH": 5, "STAY": 2, "LTURN": 1, "RTURN": 3, "WALK": 4},
     "5(5) 4 5(5)", "4(5) 3 4(5)"),
    ("RTURN WALK(3)",
     {"PULL": 0, "PUSH": 2, "STAY": 3, "LTURN": 5, "RTURN": 4, "WALK": 1},
     "4 5(3)", "4 1(3)"),
    ("LTURN(4) WALK LTURN(4) WALK LTURN(5) WALK LTURN(4) WALK LTURN(4) WALK "
     "LTURN(4) WALK LTURN(4) WALK",
     {"PULL": 4, "PUSH": 5, "STAY": 0, "LTURN": 2, "RTURN": 3, "WALK": 1},
     "3(4) 5 3(4) 5 3(5) 5 3(4) 5 3(4) 5 3(4) 5 3(4) 5",
     "2(4) 1 2(4) 1 2(5) 1 2(4) 1 2(4) 1 2(4) 1 2(4) 1"),
    ("LTURN WALK STAY WALK STAY WALK STAY WALK STAY",
     {"PULL": 3, "PUSH": 0, "STAY": 2, "LTURN": 5, "RTURN": 4, "WALK": 1},
     "3 5 2 5 2 5 2 5 2", "5 1 2 1 2 1 2 1 2"),
    ("LTURN WALK STAY WALK STAY",
     {"PULL": 0, "PUSH": 3, "STAY": 4, "LTURN": 5, "RTURN": 2, "WALK": 1},
     "3 5 2 5 2", "5 1 4 1 4"),
    ("LTURN(4) WALK LTURN(4) WALK LTURN(4) WALK LTURN(4) RTURN WALK LTURN(4) "
     "WALK LTURN(4) WALK LTURN(4) WALK LTURN(4) WALK",
     {"PULL": 0, "PUSH": 4, "STAY": 5, "LTURN": 1, "RTURN": 3, "WALK": 2},
     "3(4) 5 3(4) 5 3(4) 5 3(4) 4 5 3(4) 5 3(4) 5 3(4) 5 3(4) 5",
     "1(4) 2 1(4) 2 1(4) 2 1(4) 3 2 1(4) 2 1(4) 2 1(4) 2 1(4) 2"),
    ("LTURN WALK(2) PUSH",
     {"PULL": 1, "PUSH": 0, "STAY": 5, "LTURN": 3, "RTURN": 4, "WALK": 2},
     "3 5(2) 1", "3 2(2) 0"),
]


class TestReferenceRows:
    @pytest.mark.parametrize("original,mapping,encoded,permuted", REFERENCE_ROWS)
    def test_row_reproduces_byte_exactly(self, original, mapping, encoded, permuted):
        codes = encode(original)
        assert compress_notation(codes) == encoded
        perm = perm_from_map(mapping)
        assert compress_notation(apply(perm, codes)) == permuted


class TestSamplePermutation:
    def test_table_of_size_one(self):
        assert sample_permutation(3, 1).mapping == (0,)

    def test_deterministic(self):
        assert sample_permutation(42, 6) == sample_permutation(42, 6)

    def test_uniform_over_720(self):
        # chi-square on counts over all 720 permutations of the 6-symbol table
        from collections import Counter
        from itertools import permutations

        rng = np.random.default_rng(2024)
        n = 72_000
        counts = Counter(sample_permutation(rng, 6).mapping for _ in range(n))
        assert len(counts) == 720
        observed = np.array([counts[p] for p in permutations(range(6))])
        expected = n / 720
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        critical = stats.chi2.ppf(0.999, df=719)
        assert chi2 < critical


class TestApplyInvert:
    def test_identity(self):
        seq = encode("WALK(3) PUSH STAY")
        assert apply(identity_permutation(6), seq) == tuple(seq)

    def test_out_of_domain(self):
        with pytest.raises(MappingError):
            apply(identity_permutation(6), [7])

    def test_invert_identity(self):
        assert invert(identity_permutation(6)) == identity_permutation(6)

    def test_not_a_bijection_rejected(self):
        with pytest.raises(MappingError):
            Permutation((0, 0, 1, 2, 3, 4))

    @given(st.integers(0, 10_000), st.lists(st.integers(0, 5), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, seed, seq):
        perm = sample_permutation(seed, 6)
        assert apply(invert(perm), apply(perm, seq)) == tuple(seq)
        assert invert(invert(perm)) == perm


class TestPermutedPatternFraction:
    def test_literal_spin_pull_rare_after_permutation(self):
        # fraction of per-record permuted train targets that literally read
        # "PULL then LTURN x4" stays small; the value is reported, not pinned
        from supportgen.dataset import DatasetConfig, generate_dataset
        from supportgen.metrics import pattern_frequency

        config = DatasetConfig(seed=17, train_count=400, split_counts={})
        dataset = generate_dataset(config)
        permuted = []
        for idx, ex in enumerate(dataset.examples):
            perm = sample_permutation(np.random.default_rng([3, idx]), 6)
            permuted.append(apply(perm, [int(a) for a in ex.actions]))
        rep = pattern_frequency(permuted, ".. PULL(n) LTURN(4) ..",
                                over_permutations=False)
        print(f"permuted literal pull-then-spin fraction: {rep.fraction:.4f}")
        assert rep.fraction < 0.05


class TestNotation:
    def test_expand_groups(self):
        assert expand_notation("(WALK STAY)(2) PULL") == [
            "WALK", "STAY", "WALK", "STAY", "PULL"]

    def test_expand_nested(self):
        assert expand_notation("((LTURN)(2) WALK)(2)") == [
            "LTURN", "LTURN", "WALK", "LTURN", "LTURN", "WALK"]

    def test_unbalanced(self):
        with pytest.raises(PatternError):
            expand_notation("(WALK STAY")

    def test_compress_round_trip(self):
        seq = ["WALK"] * 5 + ["RTURN"] + ["WALK"] * 5
        assert compress_notation(seq) == "WALK(5) RTURN WALK(5)"
        assert expand_notation(compress_notation(seq)) == seq

    @pytest.mark.parametrize("seq,want", [
        ([], ""),
        ([2, 2, 2, 0, 1, 1, 2], "2(3) 0 1(2) 2"),
        ([5], "5"),
    ], ids=["empty", "int-runs", "single"])
    def test_compress_edge_cases(self, seq, want):
        assert compress_notation(seq) == want
