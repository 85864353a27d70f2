import itertools
import math

import numpy as np
import pytest

from supportgen.errors import FitError
from supportgen.grammar import INSTRUCTION_ROW, Instruction, parse, realize
from supportgen.instruction_model import (
    INSTRUCTIONS,
    SLOT_DOMAINS,
    fit,
    infill_distribution,
)


def brute_force_score(corpus: list[Instruction], k: float, instr: Instruction) -> float:
    """Independent likelihood computation: explicit enumeration over all 675
    tuples with add-k smoothing, chain rule left to right."""
    def values(i: Instruction) -> tuple:
        return (i.verb, i.size_word, i.color_word, i.shape_word, i.adverb)

    unique = {values(i) for i in corpus}
    weight = {}
    for tup in itertools.product(*SLOT_DOMAINS):
        weight[tup] = (1.0 if tup in unique else 0.0) + k

    target = values(instr)
    total = 0.0
    for slot in range(5):
        prefix = target[:slot]
        num = sum(w for tup, w in weight.items()
                  if tup[:slot] == prefix and tup[slot] == target[slot])
        den = sum(w for tup, w in weight.items() if tup[:slot] == prefix)
        total += math.log(num / den)
    return total / 5.0


def brute_force_infill(corpus: list[Instruction], k: float, query: Instruction,
                       mask_rate: float) -> dict[tuple, float]:
    """Independent infill distribution: enumerate the 32 masks, and for each
    fill the masked slots left to right with explicit conditionals that sum
    the add-k weights over every tuple agreeing with the fixed slots."""
    def values(i: Instruction) -> tuple:
        return (i.verb, i.size_word, i.color_word, i.shape_word, i.adverb)

    unique = {values(i) for i in corpus}
    tuples = list(itertools.product(*SLOT_DOMAINS))
    weight = {tup: (1.0 if tup in unique else 0.0) + k for tup in tuples}

    def conditional(slot: int, fixed: tuple) -> dict:
        agree = [tup for tup in tuples
                 if all(f is None or tup[i] == f[0] for i, f in enumerate(fixed))]
        den = sum(weight[tup] for tup in agree)
        return {v: sum(weight[tup] for tup in agree if tup[slot] == v) / den
                for v in SLOT_DOMAINS[slot]}

    target = values(query)
    dist = {tup: 0.0 for tup in tuples}
    for mask in itertools.product((False, True), repeat=5):
        p_mask = math.prod(mask_rate if m else 1.0 - mask_rate for m in mask)
        if p_mask == 0.0:
            continue
        # partial fills: (fixed slots as 1-tuples or None, probability)
        fills = [(tuple(None if m else (v,) for m, v in zip(mask, target)), p_mask)]
        for slot in range(5):
            if not mask[slot]:
                continue
            grown = []
            for fixed, p in fills:
                for v, q in conditional(slot, fixed).items():
                    grown.append((fixed[:slot] + ((v,),) + fixed[slot + 1:], p * q))
            fills = grown
        for fixed, p in fills:
            dist[tuple(f[0] for f in fixed)] += p
    return dist


class TestFit:
    def test_empty_corpus(self):
        with pytest.raises(FitError):
            fit([])

    def test_balancing(self):
        x = parse("walk to a circle".split())
        y = parse("push a square".split())
        skewed = fit([x] * 99 + [y])
        flat = fit([x, y])
        assert np.array_equal(skewed.counts, flat.counts)

    def test_single_instruction_is_sampling_mode(self):
        # with smoothing on, the one observed form is still the unique mode
        x = parse("pull a small yellow cylinder while spinning".split())
        dist = infill_distribution(fit([x], k=0.1), x, 1.0)
        first, second = np.sort(dist)[::-1][:2]
        assert INSTRUCTIONS[int(np.argmax(dist))] == x
        assert first > second


def draw(model, query: Instruction, mask_rate: float, rng, size: int) -> list[Instruction]:
    """`size` infills of `query` drawn from `infill_distribution`, as
    DemoGen draws its candidates."""
    probs = infill_distribution(model, query, mask_rate)
    return [INSTRUCTIONS[row] for row in rng.choice(len(INSTRUCTIONS), size=size, p=probs)]


class TestSampleInfill:
    """Draws from `infill_distribution`."""

    def test_mask_rate_zero_returns_query(self):
        model = fit(INSTRUCTIONS)
        query = parse("push a big blue cylinder while spinning".split())
        dist = infill_distribution(model, query, 0.0)
        assert dist[INSTRUCTION_ROW[query]] == 1.0
        assert np.count_nonzero(dist) == 1

    def test_fully_masked_single_corpus(self):
        x = parse("walk to a red circle".split())
        dist = infill_distribution(fit([x], k=0.0), parse("push a square".split()), 1.0)
        assert dist[INSTRUCTION_ROW[x]] == 1.0
        assert np.count_nonzero(dist) == 1

    def test_determinism_per_seed(self):
        model = fit(INSTRUCTIONS)
        query = parse("pull a small yellow cylinder while spinning".split())
        assert np.array_equal(infill_distribution(model, query, 0.2),
                              infill_distribution(model, query, 0.2))
        a = draw(model, query, 0.2, np.random.default_rng(3), 50)
        b = draw(model, query, 0.2, np.random.default_rng(3), 50)
        assert a == b

    def test_neighbour_spread(self):
        # samples concentrate near the query: most share >= 3 slots with it
        model = fit(INSTRUCTIONS)
        query = parse("pull a small yellow cylinder while spinning".split())
        overlaps = np.asarray([
            sum(a == b for a, b in zip(
                (got.verb, got.size_word, got.color_word, got.shape_word, got.adverb),
                (query.verb, query.size_word, query.color_word, query.shape_word,
                 query.adverb)))
            for got in draw(model, query, 0.2, np.random.default_rng(7), 2048)])
        assert (overlaps >= 3).mean() > 0.9
        assert (overlaps == 5).mean() > 0.3  # unmasked or resampled to itself
        assert any(o < 5 for o in overlaps)

    def test_empirical_frequencies_match_conditionals(self):
        # fully masked sampling follows the verb marginal within 3 sigma
        corpus = [i for i in INSTRUCTIONS if i.verb != "pull"]
        corpus += [i for i in INSTRUCTIONS if i.verb == "pull"][:20]
        model = fit(corpus)
        verb_weights = model.smoothed.sum(axis=(1, 2, 3, 4))
        expected = verb_weights / verb_weights.sum()
        n = 20_000
        counts = np.zeros(len(expected))
        query = parse("walk to a circle".split())
        for got in draw(model, query, 1.0, np.random.default_rng(12), n):
            counts[SLOT_DOMAINS[0].index(got.verb)] += 1
        for value, want in zip(counts / n, expected):
            sigma = math.sqrt(want * (1 - want) / n)
            assert abs(value - want) <= 3 * sigma + 1e-12


class TestInfillDistribution:
    @pytest.mark.parametrize("mask_rate", [0.0, 0.2, 1.0])
    def test_matches_brute_force(self, mask_rate):
        corpus = list(INSTRUCTIONS)[::7][:40]
        model = fit(corpus, k=0.1)
        query = parse("pull a small yellow cylinder while spinning".split())
        ours = infill_distribution(model, query, mask_rate)
        brute = brute_force_infill(corpus, 0.1, query, mask_rate)
        want = np.asarray([brute[tup] for tup in itertools.product(*SLOT_DOMAINS)])
        assert np.abs(ours - want).max() <= 1e-12
        assert abs(ours.sum() - 1.0) <= 1e-12

    def test_indexed_like_instructions(self):
        model = fit(INSTRUCTIONS)
        query = parse("push a big blue cylinder while spinning".split())
        dist = infill_distribution(model, query, 0.0)
        assert INSTRUCTIONS[int(np.argmax(dist))] == query
        assert dist.max() == 1.0

    def test_zero_mass_slice_raises(self):
        x = parse("walk to a red circle".split())
        model = fit([x], k=0.0)
        with pytest.raises(ValueError):
            infill_distribution(model, parse("push a square".split()), 0.2)

    def test_bad_mask_rate(self):
        model = fit(INSTRUCTIONS)
        with pytest.raises(ValueError):
            infill_distribution(model, parse("push a square".split()), 1.5)


class TestScore:
    def test_closed_form_exactly(self):
        model = fit(list(INSTRUCTIONS)[::3], k=0.1)
        table = model.smoothed
        for instr, joint in zip(INSTRUCTIONS, table.ravel()):
            assert (model.log_table[INSTRUCTION_ROW[instr]]
                    == float(np.log(joint / table.sum())) / 5)

    def test_equal_joint_means_equal_score(self):
        model = fit(list(INSTRUCTIONS)[::3], k=0.1)
        by_joint: dict[float, set] = {}
        for instr, joint in zip(INSTRUCTIONS, model.smoothed.ravel()):
            by_joint.setdefault(float(joint), set()).add(model.log_table[INSTRUCTION_ROW[instr]])
        assert len(by_joint) == 2
        assert all(len(scores) == 1 for scores in by_joint.values())

    def test_seen_beats_unseen(self):
        x = parse("walk to a red circle".split())
        model = fit([x])
        for other in list(INSTRUCTIONS)[::31]:
            if other != x:
                assert (model.log_table[INSTRUCTION_ROW[x]]
                        > model.log_table[INSTRUCTION_ROW[other]])

    def test_duplication_invariance(self):
        x = parse("walk to a red circle".split())
        y = parse("push a square hesitantly".split())
        once = fit([x, y])
        thrice = fit([x, y] * 3)
        probe = parse("pull a big circle".split())
        assert once.log_table[INSTRUCTION_ROW[probe]] == pytest.approx(
            thrice.log_table[INSTRUCTION_ROW[probe]])

    def test_monotone_in_observations(self):
        base = list(INSTRUCTIONS)[::13]
        probe = parse("pull a small yellow cylinder while spinning".split())
        without = fit([i for i in base if i != probe])
        with_it = fit([i for i in base if i != probe] + [probe])
        assert (with_it.log_table[INSTRUCTION_ROW[probe]]
                >= without.log_table[INSTRUCTION_ROW[probe]])

    def test_ranking_matches_brute_force(self):
        corpus = list(INSTRUCTIONS)[::7][:40]
        model = fit(corpus, k=0.1)
        probes = list(INSTRUCTIONS)[::33][:20]
        ours = sorted(probes, key=lambda i: (-round(model.log_table[INSTRUCTION_ROW[i]], 9),
                                             " ".join(realize(i))))
        brute = sorted(probes, key=lambda i: (-round(brute_force_score(corpus, 0.1, i), 9),
                                              " ".join(realize(i))))
        assert ours == brute
        for probe in probes:
            assert model.log_table[INSTRUCTION_ROW[probe]] == pytest.approx(
                brute_force_score(corpus, 0.1, probe), rel=1e-9)
