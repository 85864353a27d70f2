import io
import json
import sys
import warnings

import numpy as np
import pytest

from supportgen.dataset import DatasetConfig, Example, Split, TEST_SPLITS, generate_dataset
from supportgen.engines import (
    RETRIEVAL_POOL,
    ExternalSolver,
    OracleSolver,
    build_covr_retriever,
    build_gandr_retriever,
    build_instruction_index,
    covr_supports,
    demogen_supports,
    gandr_supports,
    heuristic_candidates,
    heuristic_supports,
    instruction_ngrams,
    other_states_supports,
    random_supports,
    serve_solver,
)
from supportgen.errors import EncodingError, ProtocolError, SolverError, SolverTimeout
from supportgen.grammar import INSTRUCTIONS, parse, realize
from supportgen.instruction_model import fit
from supportgen.planner import solve
from supportgen.world import (Action, AgentPose, Heading, ObjectSpec, Position, WorldState,
                              new_random_state)

import generation_reference


@pytest.fixture(scope="module")
def corpus():
    config = DatasetConfig(seed=21, train_count=200,
                           split_counts={s: 4 for s in TEST_SPLITS})
    return generate_dataset(config)


@pytest.fixture(scope="module")
def model(corpus):
    return fit(ex.instruction for ex in corpus.split(Split.TRAIN))


def h_query(**overrides) -> Example:
    state = WorldState(6, AgentPose(Position(0, 2), Heading.EAST), (
        ObjectSpec("circle", "green", 2, Position(4, 2)),
        ObjectSpec("circle", "yellow", 4, Position(1, 5)),
    ))
    instr = parse("pull a small green circle while spinning".split())
    return Example(state, instr, solve(state, instr), Split.H)


class TestHeuristic:
    def test_split_h_template_set(self):
        # the five templates for a pull + while-spinning query
        query = parse("pull a small green circle while spinning".split())
        got = {" ".join(realize(i)) for i in heuristic_candidates(query)}
        assert got == {
            "walk to a small green circle while spinning",
            "push a small green circle while spinning",
            "pull a small green circle while zigzagging",
            "pull a small green circle hesitantly",
            "pull a small green circle",
        }

    def test_no_adverb_walk_query_swaps_verbs_only(self):
        query = parse("walk to a red circle".split())
        got = heuristic_candidates(query)
        assert {i.verb for i in got} == {"push", "pull"}
        assert all(i.adverb is None for i in got)

    def test_spinning_blocks_walk_to_verb_swaps(self):
        query = parse("walk to a red circle while spinning".split())
        got = heuristic_candidates(query)
        assert all(i.verb == "walk_to" for i in got)
        assert {i.adverb for i in got} == {"hesitantly", "while_zigzagging", None}

    def test_push_blocks_adverb_swaps(self):
        query = parse("push a red circle while zigzagging".split())
        got = heuristic_candidates(query)
        assert {i.verb for i in got} == {"walk_to", "pull"}
        assert all(i.adverb == "while_zigzagging" for i in got)

    def test_candidates_equal_reference(self):
        # the if/elif templates they replaced (tests/generation_reference.py),
        # entry by entry and in order, on every instruction of the grammar
        assert len(INSTRUCTIONS) == 675
        for instr in INSTRUCTIONS:
            assert heuristic_candidates(instr) == generation_reference.heuristic_candidates(instr)

    def test_supports_solved_in_query_state(self):
        query = h_query()
        sset = heuristic_supports(query, OracleSolver())
        assert len(sset) == 5
        for support in sset.supports:
            assert support.state == query.state
            assert support.actions == solve(query.state, support.instruction)
            assert support.instruction != query.instruction

    def test_never_emits_query(self, corpus):
        oracle = OracleSolver()
        for ex in corpus.examples[::17]:
            for support in heuristic_supports(ex, oracle).supports:
                assert (support.state, support.instruction) != (ex.state, ex.instruction)


class TestRandomSupports:
    def test_single_object_state(self):
        state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST),
                           (ObjectSpec("circle", "red", 2, Position(3, 3)),))
        instr = parse("walk to a red circle".split())
        query = Example(state, instr, solve(state, instr), Split.A)
        sset = random_supports(query, OracleSolver(), rng=5)
        assert len(sset) > 0
        for support in sset.supports:
            assert support.instruction.shape_word == "circle"

    def test_deterministic(self):
        query = h_query()
        a = random_supports(query, OracleSolver(), rng=9)
        b = random_supports(query, OracleSolver(), rng=9)
        assert [s.instruction for s in a.supports] == [s.instruction for s in b.supports]

    def test_distinct_instructions(self):
        query = h_query()
        sset = random_supports(query, OracleSolver(), rng=11)
        instrs = [s.instruction for s in sset.supports]
        assert len(instrs) == len(set(instrs))

    def test_target_share_fraction(self):
        # supports describing the query's referent appear at roughly 1/#objects
        rng = np.random.default_rng(3)
        hits = total = 0
        for seed in range(40):
            state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST), tuple(
                ObjectSpec(shape, color, 2, Position(1 + i % 4, 1 + i // 4))
                for i, (shape, color) in enumerate(
                    [("circle", "red"), ("square", "green"),
                     ("cylinder", "blue"), ("circle", "yellow")])
            ))
            instr = parse("walk to a red circle".split())
            query = Example(state, instr, solve(state, instr), Split.A)
            sset = random_supports(query, OracleSolver(), rng=seed, n=16)
            from supportgen.grammar import resolve_target
            target = resolve_target(instr, state).object
            for s in sset.supports:
                total += 1
                hits += resolve_target(s.instruction, state).object.pos == target.pos
        assert 0.1 < hits / total < 0.45  # 4 objects -> around 1/4


class TestOtherStates:
    def test_missing_instruction_omitted(self, corpus):
        query = h_query()
        index = build_instruction_index(corpus.split(Split.TRAIN))
        sset = other_states_supports(query, index, rng=1)
        present = set(index)
        for support in sset.supports:
            assert support.instruction in present

    def test_states_differ_and_actions_verbatim(self, corpus):
        train = corpus.split(Split.TRAIN)
        index = build_instruction_index(train)
        # fabricate a query whose heuristic candidates exist in train
        donor = train[0]
        query = Example(h_query().state, donor.instruction,
                        solve(h_query().state, donor.instruction)
                        if _resolvable(donor.instruction, h_query().state) else donor.actions,
                        Split.A)
        sset = other_states_supports(query, index, rng=2)
        stored = {(ex.state, ex.instruction): ex.actions for ex in train}
        for support in sset.supports:
            assert support.state != query.state
            assert stored[(support.state, support.instruction)] == support.actions


def _resolvable(instr, state):
    from supportgen.errors import UnresolvableError
    from supportgen.grammar import resolve_target
    try:
        resolve_target(instr, state)
        return True
    except UnresolvableError:
        return False


class TestDemogen:
    def test_k1_mask0_is_empty(self, model):
        query = h_query()
        sset = demogen_supports(query, model, OracleSolver(), rng=0, k=1, mask_rate=0.0)
        assert len(sset) == 0

    def test_no_query_no_duplicates(self, model):
        query = h_query()
        sset = demogen_supports(query, model, OracleSolver(), rng=1, k=512)
        instrs = [s.instruction for s in sset.supports]
        assert query.instruction not in instrs
        assert len(instrs) == len(set(instrs))
        assert len(sset) <= 16

    def test_oracle_supports_all_correct_when_valid(self, model):
        oracle = OracleSolver()
        query = h_query()
        sset = demogen_supports(query, model, oracle, rng=2, k=512)
        for support in sset.supports:
            assert support.state == query.state  # same-state strategy
            if support.actions is not None:
                assert support.actions == oracle.solve(support.state, support.instruction)

    def test_keep_invalid_vs_replace(self, model):
        state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST),
                           (ObjectSpec("circle", "red", 2, Position(3, 3)),))
        instr = parse("pull a red circle while spinning".split())
        query = Example(state, instr, solve(state, instr), Split.H)
        kept = demogen_supports(query, model, OracleSolver(), rng=3, k=2048)
        assert any(s.actions is None for s in kept.supports)  # single-object state
        replaced = demogen_supports(query, model, OracleSolver(), rng=3, k=2048,
                                    keep_invalid=False)
        assert all(s.actions is not None for s in replaced.supports)

    def test_scores_sorted_descending(self, model):
        query = h_query()
        sset = demogen_supports(query, model, OracleSolver(), rng=4, k=512)
        scores = [s.meta["score"] for s in sset.supports]
        assert scores == sorted(scores, reverse=True)

    def test_determinism(self, model):
        query = h_query()
        a = demogen_supports(query, model, OracleSolver(), rng=7, k=256)
        b = demogen_supports(query, model, OracleSolver(), rng=7, k=256)
        assert [s.instruction for s in a.supports] == [s.instruction for s in b.supports]

    def test_ties_rank_on_realized_string(self, model):
        # n covers every unique candidate, so the whole ranking is returned
        joint = dict(zip(INSTRUCTIONS, model.smoothed.ravel()))
        query = h_query()
        full = demogen_supports(query, model, OracleSolver(), rng=5, k=2048, n=1000)
        instrs = [s.instruction for s in full.supports]
        assert len(instrs) == full.meta["unique"]
        assert len(set(joint[i] for i in instrs)) < len(instrs)  # a tie group exists
        assert instrs == sorted(instrs, key=lambda i: (-joint[i], " ".join(realize(i))))
        for a, b in zip(full.supports, full.supports[1:]):
            if joint[a.instruction] == joint[b.instruction]:
                assert a.meta["score"] == b.meta["score"]
        top = demogen_supports(query, model, OracleSolver(), rng=5, k=2048)
        assert [s.instruction for s in top.supports] == instrs[:16]


class ScriptedSolver:
    """Fails the pairs whose instruction is in `failing` and logs every pair
    it is asked to solve, and each solve_many batch."""

    def __init__(self, failing):
        self.failing = failing
        self.solved = []
        self.batches = []

    def solve(self, state, instruction):
        self.solved.append((state, instruction))
        if instruction in self.failing:
            raise SolverError("scripted failure")
        return (Action.WALK,) * (len(self.solved) % 3)

    def solve_many(self, pairs):
        self.batches.append(len(pairs))
        results = []
        for state, instruction in pairs:
            try:
                results.append(self.solve(state, instruction))
            except SolverError as exc:
                results.append(exc)
        return results


class FailingSolver:
    """Fails every pair."""

    def solve_many(self, pairs):
        return [SolverError("no guess") for _ in pairs]


def test_oracle_batch_errors_hold_no_frames(s0):
    """OracleSolver.solve_many answers an unsolvable pair with a SolverError
    that carries no traceback or chained error, so a batch of answers keeps
    no planner frames alive."""
    solvable = parse("walk to a red circle".split())
    unsolvable = parse("pull a blue cylinder".split())
    oracle = OracleSolver()
    got, failed = oracle.solve_many([(s0, solvable), (s0, unsolvable)])
    assert got == oracle.solve(s0, solvable)
    assert isinstance(failed, SolverError)
    assert str(failed) == "no object matches 'pull a blue cylinder'"
    assert (failed.__traceback__, failed.__cause__, failed.__context__) == (None, None, None)


@pytest.mark.pins
@pytest.mark.parametrize("keep_invalid", [False, True])
def test_batched_solve_loop_equals_one_by_one_reference(s0, keep_invalid):
    """The batched same-state loop gives the supports of the one-by-one loop
    it replaced (tests/generation_reference.py) and asks the solver for the
    same pairs in the same order, for seeded failure patterns."""
    from supportgen.engines import _solve_in_state

    query = Example(s0, INSTRUCTIONS[0], (), Split.H)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(0, 31))
        rows = rng.choice(len(INSTRUCTIONS), size=count, replace=False)
        candidates = [(INSTRUCTIONS[row], {"rank": i}) for i, row in enumerate(rows)]
        fail_rate = (0.0, 0.3, 0.7, 1.0)[seed % 4]
        failing = {instr for instr, _ in candidates if rng.random() < fail_rate}
        for n in range(21):
            batched, one_by_one = ScriptedSolver(failing), ScriptedSolver(failing)
            got = _solve_in_state(query, iter(candidates), batched, n, keep_invalid)
            want = generation_reference._solve_in_state(query, iter(candidates),
                                                        one_by_one, n, keep_invalid)
            assert got == want
            assert batched.solved == one_by_one.solved
            assert 0 not in batched.batches
            if keep_invalid:
                assert len(batched.batches) <= 1


@pytest.fixture(scope="module")
def covr_retriever(corpus):
    return build_covr_retriever(corpus.split(Split.TRAIN), cells=16, pca_dim=64, rng=0)


@pytest.fixture(scope="module")
def gandr_retriever(corpus):
    return build_gandr_retriever(corpus.split(Split.TRAIN), cells=16, rng=0)


class TestCovr:
    def test_duplicate_of_query_excluded(self, corpus, covr_retriever):
        query = corpus.split(Split.TRAIN)[3]
        sset = covr_supports(query, covr_retriever, probes=16)
        for support in sset.supports:
            assert (support.state, support.instruction) != (query.state, query.instruction)

    def test_greedy_covers_at_least_best_single(self, corpus, covr_retriever):
        for query in corpus.split(Split.H)[:3]:
            sset = covr_supports(query, covr_retriever, probes=16)
            grams = instruction_ngrams(query.instruction)
            covered = set()
            for support in sset.supports:
                covered |= instruction_ngrams(support.instruction) & grams
            best_single = max(
                (len(instruction_ngrams(s.instruction) & grams) for s in sset.supports),
                default=0)
            assert len(covered) >= best_single

    def test_matches_brute_force_oracle(self, corpus, covr_retriever):
        # independent reimplementation: dense one-hot rows projected with the
        # fitted PCA, exact scan, same sort keys, same greedy
        from supportgen.index import hybrid_encode, tfidf_encode
        from generation_reference import encode_states

        pca = covr_retriever.pca

        def encode_one_hot(state):
            return encode_states([state], np.float64)[0]

        def pca_project(vec):
            return (vec - pca.mean) @ pca.components.T

        def hybrid(state_vec, instr):
            out = np.concatenate([state_vec, np.empty(len(instr))])
            return hybrid_encode(instr, covr_retriever.alpha, out)

        train = corpus.split(Split.TRAIN)
        for query in corpus.split(Split.H)[:4] + corpus.split(Split.C)[:2]:
            state_vec = encode_one_hot(query.state)
            instr = tfidf_encode(covr_retriever.tfidf, [realize(query.instruction)])[0]
            qvec = hybrid(pca_project(state_vec), instr)
            scores = []
            for idx, ex in enumerate(train):
                vec = hybrid(pca_project(encode_one_hot(ex.state)),
                             tfidf_encode(covr_retriever.tfidf, [realize(ex.instruction)])[0])
                scores.append((-float(vec @ qvec), idx))
            scores.sort()
            pool = [idx for _, idx in scores[:128]]
            qgrams = instruction_ngrams(query.instruction)
            ranked = []
            for rank, idx in enumerate(pool):
                ex = train[idx]
                if ex.state == query.state and ex.instruction == query.instruction:
                    continue
                sup_grams = instruction_ngrams(ex.instruction)
                two = sum(1 for g in sup_grams & qgrams if isinstance(g, tuple))
                one = sum(1 for g in sup_grams & qgrams if not isinstance(g, tuple))
                cos = round(float(encode_one_hot(ex.state) @ state_vec), 9)
                ranked.append(((-two, -one, -cos, rank), idx))
            ranked.sort(key=lambda r: r[0])
            uncovered = set(qgrams)
            picked = []
            for _, idx in ranked:
                if len(picked) >= 16:
                    break
                added = instruction_ngrams(train[idx].instruction) & uncovered
                if added:
                    uncovered -= added
                    picked.append(idx)
            for _, idx in ranked:
                if len(picked) >= 16:
                    break
                if idx not in picked:
                    picked.append(idx)

            expected = [(train[i].state, train[i].instruction) for i in sorted(picked[:16],
                        key=lambda i: pool.index(i))]
            got_set = covr_supports(query, covr_retriever, probes=covr_retriever.ivf.cells)
            got = [(s.state, s.instruction) for s in got_set.supports]
            assert sorted(map(repr, got)) == sorted(map(repr, expected))


    @pytest.mark.parametrize("grid", [5, 7])
    def test_query_on_another_grid_is_dimension_error(self, corpus, covr_retriever, grid):
        from supportgen.errors import DimensionError

        query = corpus.split(Split.H)[0]
        state = WorldState(grid, AgentPose(Position(4, 4), Heading.EAST), ())
        with pytest.raises(DimensionError, match="grid sizes differ"):
            covr_supports(Example(state, query.instruction, query.actions, Split.H),
                          covr_retriever)

    @pytest.mark.pins
    def test_empty_pool_gives_empty_sets(self, corpus):
        """Two train examples in two cells, one probe: each query is a train
        example alone in its cell, so its pool is empty once the query pair
        is dropped, and so is its support set."""
        train = corpus.split(Split.TRAIN)[:2]
        covr = build_covr_retriever(train, cells=2, pca_dim=64, rng=0)
        assert [len(covr_supports(ex, covr, probes=1).supports) for ex in train] == [0, 0]

    def test_build_holds_one_one_hot_matrix(self):
        """Traced peak of the build over 3,000 states, in units of one float64
        one-hot matrix: 2.69 when PCA centred a second copy of the samples
        beside them, 1.58 with the in-place fit, 0.83 from cell codes, where
        no one-hot matrix is built and the hybrid matrix the index keeps is
        about half of one. The bound sits just above."""
        import tracemalloc

        from supportgen.world import CELL_WIDTH

        examples = random_examples(3000)
        one_hot_bytes = len(examples) * 36 * CELL_WIDTH * 8
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            build_covr_retriever(examples, cells=64, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (peak - base) / one_hot_bytes < 0.9


@pytest.mark.parametrize("n", [0, 1])
def test_support_count_caps_every_strategy(corpus, model, covr_retriever, gandr_retriever, n):
    """No strategy returns more than n supports, n = 0 included."""
    index = build_instruction_index(corpus.split(Split.TRAIN))
    oracle = OracleSolver()
    queries = [h_query(), *corpus.split(Split.TRAIN)[:5], *corpus.split(Split.H)]
    for query in queries:
        ssets = [
            heuristic_supports(query, oracle, n=n),
            random_supports(query, oracle, rng=0, n=n),
            other_states_supports(query, index, rng=0, n=n),
            demogen_supports(query, model, oracle, rng=0, n=n),
            covr_supports(query, covr_retriever, n=n, probes=16),
            gandr_supports(query, oracle, gandr_retriever, n=n, probes=16),
        ]
        for sset in ssets:
            assert len(sset.supports) <= n, sset.strategy


class _Unread:
    def __iter__(self):
        raise AssertionError("the examples were read")


@pytest.mark.parametrize("build", [build_covr_retriever, build_gandr_retriever],
                         ids=["covr", "gandr"])
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "-1"])
def test_retriever_rejects_alpha_that_is_not_a_finite_weight(corpus, build, alpha):
    """Such an alpha would build NaN vectors; it is refused before the
    examples are read, and no numpy warning is raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for examples in (corpus.split(Split.TRAIN), _Unread()):
            with pytest.raises(EncodingError, match="alpha must be a finite number >= 0"):
                build(examples, cells=16, alpha=alpha, rng=0)


class TestGandr:
    def test_output_weight_zero_is_instruction_only(self, corpus):
        train = corpus.split(Split.TRAIN)
        zero = build_gandr_retriever(train, cells=16, alpha=0.0, rng=0)
        query = corpus.split(Split.A)[0]

        with_helper = gandr_supports(query, OracleSolver(), zero, probes=16)
        without = gandr_supports(query, FailingSolver(), zero, probes=16)
        assert [s.instruction for s in with_helper.supports] == \
            [s.instruction for s in without.supports]
        assert without.meta["helper_failed"]

    def test_helper_failure_ranks_by_instruction_above_alpha_one(self, corpus):
        """Above alpha 1 the index's instruction block has a negative weight.
        A failed helper's query carries the same weight, so its nearest
        neighbours still share instruction words with it."""
        above = build_gandr_retriever(corpus.split(Split.TRAIN), cells=16, alpha=2.0, rng=0)
        for query in corpus.split(Split.H):
            sset = gandr_supports(query, FailingSolver(), above, probes=16)
            assert max(s.meta["retrieval"] for s in sset.supports) > 0.0

    def test_helper_failure_at_alpha_one_retrieves_by_train_id(self, corpus):
        """At alpha 1 the instruction block weighs 0 and a failed helper's
        guess is empty, so the query vector is zero: every candidate scores
        0.0, and the supports come from the lowest train ids of the first
        probed cells, in id order. Below alpha 1 the instruction still
        ranks them."""
        train = corpus.split(Split.TRAIN)
        one = build_gandr_retriever(train, cells=8, alpha=1.0, rng=0)
        half = build_gandr_retriever(train, cells=8, alpha=0.5, rng=0)
        pool = np.sort(np.concatenate(one.ivf.cell_ids[:2]))[:RETRIEVAL_POOL].tolist()
        train_id = {(ex.state, ex.instruction): idx for idx, ex in enumerate(train)}
        for query in corpus.split(Split.H):
            sset = gandr_supports(query, FailingSolver(), one, n=16, probes=2)
            assert sset.meta["helper_failed"]
            assert len(sset) == 16
            assert all(s.meta["retrieval"] == 0.0 for s in sset.supports)
            ids = [train_id[s.state, s.instruction] for s in sset.supports]
            assert ids == sorted(ids) and set(ids) <= set(pool)
            ranked = gandr_supports(query, FailingSolver(), half, n=16, probes=2)
            assert max(s.meta["retrieval"] for s in ranked.supports) > 0.0

    def test_helper_failure_flagged(self, corpus, gandr_retriever):
        query = corpus.split(Split.A)[0]
        sset = gandr_supports(query, FailingSolver(), gandr_retriever, probes=16)
        assert sset.meta["helper_failed"]
        assert len(sset) > 0

    def test_neighbours_share_output_ngrams(self, corpus, gandr_retriever):
        # oracle-guessed outputs retrieve targets overlapping the true output
        # more than a fixed arbitrary sample of the corpus does
        train = corpus.split(Split.TRAIN)
        rng = np.random.default_rng(0)

        def bigrams(actions):
            names = [a.name for a in actions]
            return set(zip(names, names[1:])) | set(names)

        gains, baselines = [], []
        for query in corpus.split(Split.A)[:4]:
            sset = gandr_supports(query, OracleSolver(), gandr_retriever, probes=16)
            true = bigrams(query.actions)
            overlaps = [len(bigrams(s.actions) & true) / max(len(true), 1)
                        for s in sset.supports if s.actions]
            gains.append(np.mean(overlaps))
            sample = rng.choice(len(train), size=16, replace=False)
            baselines.append(np.mean([
                len(bigrams(train[int(i)].actions) & true) / max(len(true), 1)
                for i in sample]))
        assert np.mean(gains) > np.mean(baselines)



@pytest.fixture(scope="module")
def grid4_corpus():
    return generate_dataset(DatasetConfig(seed=4, train_count=150, grid_size=4,
                                          min_objects=1, max_objects=15,
                                          split_counts={s: 2 for s in TEST_SPLITS}))


def retrieval_corpus(case, corpus, grid4_corpus):
    """Training examples and queries for the reference comparison.
    'one-instruction' gives every example the same instruction, so every
    tf-idf instruction row is zero and GandR at alpha 0 has only zero rows;
    every fourth example of 'some-empty-outputs' has no actions, so its
    output row is zero; 'single' is one example, whose tf-idf rows and
    centred one-hot row are all zero. The queries come from two test splits,
    plus the first training example."""
    source = grid4_corpus if case == "grid4" else corpus
    train = source.split(Split.TRAIN)
    if case == "one-instruction":
        train = [Example(ex.state, INSTRUCTIONS[7], ex.actions, ex.split) for ex in train[:90]]
    elif case == "some-empty-outputs":
        train = [Example(ex.state, ex.instruction, () if i % 4 == 0 else ex.actions, ex.split)
                 for i, ex in enumerate(train)]
    elif case == "single":
        train = train[:1]
    return train, source.split(Split.H)[:2] + source.split(Split.C)[:2] + train[:1]


@pytest.mark.pins
@pytest.mark.parametrize("alpha", [0.0, 0.125, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("case", ["fixture", "grid4", "one-instruction",
                                  "some-empty-outputs", "single"])
def test_row_matrix_builds_equal_per_row_reference(corpus, grid4_corpus, monkeypatch,
                                                   case, alpha):
    """The GandR build, and the query vectors it hands to ivf_query, equal
    the per-row encoders and build loop they replaced
    (tests/generation_reference.py) bit for bit, zero rows included. The
    CovR build is pinned by the tests below."""
    import supportgen.engines

    ref = generation_reference
    train, queries = retrieval_corpus(case, corpus, grid4_corpus)
    sent = []
    real_query = supportgen.engines.ivf_query
    monkeypatch.setattr(supportgen.engines, "ivf_query",
                        lambda index, query, **kw: sent.append(query) or
                        real_query(index, query, **kw))

    instr_tfidf, out_tfidf, vectors = ref.gandr_vectors(train, alpha)
    gandr = build_gandr_retriever(train, cells=8, alpha=alpha, rng=0)
    assert gandr.ivf.vectors.tobytes() == vectors.tobytes()
    for query in queries:
        for helper in (OracleSolver(), FailingSolver()):
            sent.clear()
            failed = gandr_supports(query, helper, gandr, probes=8).meta["helper_failed"]
            guess = () if failed else solve(query.state, query.instruction)
            weight = gandr.alpha
            want = ref.combine_io(ref.tfidf_encode(instr_tfidf, realize(query.instruction)),
                                  ref.tfidf_encode(out_tfidf, [a.name for a in guess]),
                                  weight)
            assert sent[0].tobytes() == want.tobytes()


def random_examples(count, seed=5):
    """Examples over random 6x6 states with random instructions."""
    from conftest import random_state

    rng = np.random.default_rng(seed)
    return [Example(random_state(rng), INSTRUCTIONS[int(rng.integers(len(INSTRUCTIONS)))],
                    (), Split.TRAIN) for _ in range(count)]


@pytest.mark.pins
@pytest.mark.parametrize("case", ["fixture", "grid4", "one-instruction", "single", "many"])
def test_covr_build_bytes_do_not_depend_on_block_size(corpus, grid4_corpus, monkeypatch, case):
    """Builds at block sizes 1, 7, the default and >= n give equal bytes:
    the PCA, the projection rows, the hybrid matrix, the index and the
    support sets; where one build raises the zero-norm EncodingError, all
    do."""
    import supportgen.engines
    from supportgen.errors import EncodingError

    if case == "many":
        train = random_examples(1300)
        queries = train[:3] + corpus.split(Split.H)[:2]
    else:
        train, queries = retrieval_corpus(case, corpus, grid4_corpus)
    outcomes = []
    for block in (1, 7, supportgen.engines._COVR_BLOCK_ROWS, len(train) + 1):
        monkeypatch.setattr(supportgen.engines, "_COVR_BLOCK_ROWS", block)
        try:
            covr = build_covr_retriever(train, cells=8, pca_dim=16, rng=0)
        except EncodingError as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append([
            covr.pca.mean.tobytes(), covr.pca.components.tobytes(),
            covr.pose_rows.tobytes(), covr.change_rows.tobytes(),
            covr.ivf.vectors.tobytes(), covr.ivf.centroids.tobytes(),
            [ids.tobytes() for ids in covr.ivf.cell_ids],
            [repr(covr_supports(query, covr, probes=8)) for query in queries
             if query.state.grid_size == train[0].state.grid_size],
        ])
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert (case == "single") == isinstance(outcomes[0], str)


@pytest.mark.pins
@pytest.mark.parametrize("case", ["fixture", "grid4", "one-instruction"])
def test_covr_query_vector_equals_its_build_row(corpus, grid4_corpus, monkeypatch, case):
    """The vector covr_supports hands to ivf_query for a train example is
    that example's row of the built matrix, bit for bit."""
    import supportgen.engines

    train, _ = retrieval_corpus(case, corpus, grid4_corpus)
    covr = build_covr_retriever(train, cells=8, pca_dim=16, rng=0)
    sent = []
    real_query = supportgen.engines.ivf_query
    monkeypatch.setattr(supportgen.engines, "ivf_query",
                        lambda index, query, **kw: sent.append(query) or
                        real_query(index, query, **kw))
    for row, example in enumerate(train):
        sent.clear()
        covr_supports(example, covr, probes=8)
        assert sent[0].tobytes() == covr.ivf.vectors[row].tobytes()


@pytest.mark.pins
def test_covr_cosines_equal_dense_dot_products(corpus, covr_retriever):
    """Every state cosine, k / active slots for k shared slots, is within
    1e-12 of the float64 one-hot dot product, and each support's cosine is
    that product rounded to 9 places."""
    from generation_reference import encode_states
    from supportgen.world import active_slots, shared_slot_counts, state_codes

    train = corpus.split(Split.TRAIN)
    dense = encode_states([ex.state for ex in train], np.float64)
    shared = np.empty((1, len(train)), dtype=np.float32)
    for query in corpus.split(Split.H) + corpus.split(Split.C) + train[:3]:
        state_vec = encode_states([query.state], np.float64)[0]
        shared_slot_counts(state_codes([query.state]), covr_retriever.codes, shared)
        # float32 counts divided in float32 would round off the float64 cosine
        cosines = shared[0].astype(np.int64) / active_slots(36)
        assert np.abs(cosines - dense @ state_vec).max() <= 1e-12
        for support in covr_supports(query, covr_retriever, probes=16).supports:
            want = float(encode_states([support.state], np.float64)[0] @ state_vec)
            assert support.meta["cosine"] == round(want, 9)


ECHO_SERVER = r"""
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    sys.stdout.write(json.dumps({"id": msg["id"], "actions": ["WALK", "WALK"]}) + "\n")
    sys.stdout.flush()
"""

GARBAGE_SERVER = r"""
import sys
for line in sys.stdin:
    sys.stdout.write("not json at all\n")
    sys.stdout.flush()
"""

ERROR_SERVER = r"""
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    sys.stdout.write(json.dumps({"id": msg["id"], "error": "cannot solve"}) + "\n")
    sys.stdout.flush()
"""


class TestExternalSolver:
    def test_echo_double(self, s0):
        """The client starts no thread, from construction through a batch to
        close()."""
        import threading

        from supportgen.world import Action

        threads = threading.active_count()
        with ExternalSolver([sys.executable, "-c", ECHO_SERVER]) as solver:
            got = solver.solve_many([(s0, parse("walk to a red circle".split()))])
            assert threading.active_count() == threads
        assert got == [(Action.WALK, Action.WALK)]
        assert threading.active_count() == threads

    def test_empty_command_raises_before_any_process(self, monkeypatch):
        import subprocess

        def no_start(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "Popen", no_start)
        with pytest.raises(ValueError, match="empty"):
            ExternalSolver([])

    def test_malformed_response(self, s0):
        with ExternalSolver([sys.executable, "-c", GARBAGE_SERVER]) as solver:
            with pytest.raises(ProtocolError):
                solver.solve_many([(s0, parse("walk to a red circle".split()))])

    def test_error_response(self, s0):
        with ExternalSolver([sys.executable, "-c", ERROR_SERVER]) as solver:
            (got,) = solver.solve_many([(s0, parse("walk to a red circle".split()))])
        assert isinstance(got, SolverError) and str(got) == "cannot solve"

    def test_timeout(self, s0):
        with ExternalSolver([sys.executable, "-c", "import time; time.sleep(60)"],
                            timeout=0.5) as solver:
            with pytest.raises((SolverTimeout, ProtocolError)):
                solver.solve_many([(s0, parse("walk to a red circle".split()))])

    @pytest.mark.parametrize("killed", [False, True])
    def test_close_reaps_the_child_and_closes_its_output(self, monkeypatch, killed):
        """close() leaves no running child, no open pipe and no thread, also
        when the child ignores the end of its input and has to be killed
        once close()'s grace period (cut short here) runs out."""
        import signal
        import threading
        import time

        import supportgen.engines

        monkeypatch.setattr(supportgen.engines, "_CLOSE_SECONDS", 0.3)
        threads = threading.active_count()
        script = "import time; time.sleep(60)" if killed else ECHO_SERVER
        solver = ExternalSolver([sys.executable, "-c", script])
        proc = solver._proc
        start = time.monotonic()
        solver.close()
        assert time.monotonic() - start < 5
        assert proc.returncode == (-signal.SIGKILL if killed else 0)
        assert proc.stdin.closed and proc.stdout.closed
        assert threading.active_count() == threads

    def test_serve_solver_round_trip(self, s0):
        request = {"id": 3, "state": s0.to_record(),
                   "instruction": ["walk", "to", "a", "red", "circle"]}
        out = io.StringIO()
        serve_solver(OracleSolver(), [json.dumps(request)], out)
        response = json.loads(out.getvalue())
        assert response == {"id": 3, "actions": ["WALK", "WALK"]}

    @pytest.mark.pins
    def test_serve_solver_reports_errors_in_band(self, s0):
        request = {"id": 4, "state": s0.to_record(),
                   "instruction": ["pull", "a", "blue", "cylinder"]}
        out = io.StringIO()
        serve_solver(OracleSolver(), [json.dumps(request)], out)
        assert json.loads(out.getvalue()) == {
            "id": 4, "error": "SolverError: no object matches 'pull a blue cylinder'"}

    @pytest.mark.parametrize("path, value, field", [
        (("state", "objects", 0, "x"), 4.9, "state.objects[0].x"),
        (("state", "grid_size"), "6", "state.grid_size"),
        (("state", "agent", "d"), True, "state.agent.d"),
        (("state", "objects"), {}, "state.objects"),
        (("instruction", 3), 5, "instruction[3]"),
        (("instruction",), ["walk", "a", "circle"], "instruction"),
        (("instruction",), "walk to a red circle", "instruction"),
        (("state",), None, "state"),
    ], ids=["float-x", "string-grid", "bool-heading", "objects-map", "token-type", "grammar",
            "instruction-string", "null-state"])
    def test_serve_solver_error_names_the_field(self, s0, path, value, field):
        """serve-oracle answers a request outside the request shape with an
        in-band error naming the field."""
        request = {"id": 9, "state": s0.to_record(),
                   "instruction": ["walk", "to", "a", "red", "circle"]}
        parent = request
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out = io.StringIO()
        serve_solver(OracleSolver(), [json.dumps(request)], out)
        response = json.loads(out.getvalue())
        assert response["id"] == 9
        assert f"field `{field}`: " in response["error"], response["error"]

    def test_serve_solver_error_for_a_request_that_is_no_object(self):
        out = io.StringIO()
        serve_solver(OracleSolver(), ["[1, 2]"], out)
        assert json.loads(out.getvalue()) == {
            "id": None, "error": "DataFormatError: expected an object, got [1, 2]"}

    def test_reply_action_names_are_case_insensitive(self, s0):
        from supportgen.world import Action

        server = ECHO_SERVER.replace('["WALK", "WALK"]', '["walk", "Push"]')
        with ExternalSolver([sys.executable, "-c", server]) as solver:
            got = solver.solve_many([(s0, parse("walk to a red circle".split()))])
        assert got == [(Action.WALK, Action.PUSH)]

    def test_reply_that_is_not_utf8_is_a_protocol_violation(self, s0):
        """A reply line that is not valid UTF-8 ends the batch at once with a
        ProtocolError naming the line, not after the timeout."""
        import time

        server = r"""
import sys
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(b"\xff\xfe{}\n")
    sys.stdout.buffer.flush()
"""
        with ExternalSolver([sys.executable, "-c", server], timeout=30.0) as solver:
            start = time.monotonic()
            with pytest.raises(ProtocolError, match=r"b'\\xff\\xfe\{\}' is not valid UTF-8"):
                solver.solve_many([(s0, parse("walk to a red circle".split()))])
            assert time.monotonic() - start < 2

    def test_out_of_order_responses(self, s0):
        # the protocol allows responses in any order; a reply to an id that
        # no request awaits is dropped
        server = r"""
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    sys.stdout.write(json.dumps({"id": 7777, "actions": ["STAY"]}) + "\n")
    sys.stdout.write(json.dumps({"id": msg["id"], "actions": ["WALK"]}) + "\n")
    sys.stdout.flush()
"""
        from supportgen.world import Action

        with ExternalSolver([sys.executable, "-c", server]) as solver:
            got = solver.solve_many([(s0, parse("walk to a red circle".split()))])
        assert got == [(Action.WALK,)]


TEARING_CHECK_SERVER = r"""
import json, sys
for line in sys.stdin:
    try:
        msg = json.loads(line)
    except ValueError:
        sys.stdout.write("torn request line\n")
    else:
        sys.stdout.write(json.dumps({"id": msg["id"], "actions": ["WALK"]}) + "\n")
    sys.stdout.flush()
"""

LATE_FIRST_REPLY_SERVER = r"""
import json, sys, time
for line in sys.stdin:
    msg = json.loads(line)
    if msg["id"] == 0:
        time.sleep(0.6)
    sys.stdout.write(json.dumps({"id": msg["id"], "actions": ["WALK"]}) + "\n")
    sys.stdout.flush()
"""


REVERSING_SERVER = r"""
import json, sys
batch = []
for line in sys.stdin:
    batch.append(json.loads(line)["id"])
    if len(batch) == 5:
        for key in reversed(batch):
            reply = {"error": "odd"} if key == 2 else {"actions": ["WALK"] * (key + 1)}
            sys.stdout.write(json.dumps({"id": key, **reply}) + "\n")
        sys.stdout.flush()
        batch = []
"""

STALLING_SERVER = r"""
import json, sys, time
ids = [json.loads(sys.stdin.readline())["id"] for _ in range(4)]
for key in ids[:2]:
    print(json.dumps({"id": key, "actions": ["WALK"]}), flush=True)
time.sleep(1.0)
for key in ids[2:]:
    print(json.dumps({"id": key, "actions": ["WALK"]}), flush=True)
for line in sys.stdin:
    print(json.dumps({"id": json.loads(line)["id"], "actions": ["STAY"]}), flush=True)
"""

TRICKLING_SERVER = r"""
import json, sys, time
for line in sys.stdin:
    time.sleep(0.25)
    print(json.dumps({"id": json.loads(line)["id"], "actions": ["WALK"]}), flush=True)
"""


HALF_BATCH_THEN_EXIT_SERVER = r"""
import json, sys
for _ in range(2):
    msg = json.loads(sys.stdin.readline())
    print(json.dumps({"id": msg["id"], "actions": ["WALK"]}), flush=True)
"""


def large_batch() -> list:
    """320 (state, instruction) pairs whose request lines exceed 64 KiB."""
    rng = np.random.default_rng(8)
    pairs = [(new_random_state(rng, 6, 8), INSTRUCTIONS[int(rng.integers(len(INSTRUCTIONS)))])
             for _ in range(320)]
    size = sum(len(json.dumps({"id": i, "state": state.to_record(),
                               "instruction": realize(instr)})) + 1
               for i, (state, instr) in enumerate(pairs))
    assert size > 64 * 1024
    return pairs


def outcomes(results: list) -> list:
    """solve_many results with each SolverError read as "unsolvable"."""
    return ["unsolvable" if isinstance(r, SolverError) else r for r in results]


class TestExternalSolverFaults:
    def test_concurrent_requests_keep_lines_whole(self, s0, monkeypatch):
        """Concurrent callers' request lines stay whole when the child's
        input takes at most 7 bytes a write."""
        from concurrent.futures import ThreadPoolExecutor

        import supportgen.engines
        from supportgen.world import Action

        real_write = supportgen.engines.os.write
        instr = parse("walk to a red circle".split())
        with ExternalSolver([sys.executable, "-c", TEARING_CHECK_SERVER],
                            timeout=10.0) as solver:
            monkeypatch.setattr(supportgen.engines.os, "write",
                                lambda fd, data: real_write(fd, data[:7]))
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda _: solver.solve_many([(s0, instr)] * 2), range(8)))
        assert got == [[(Action.WALK,)] * 2] * 8

    def test_concurrent_batches_get_their_own_replies(self):
        """Six threads share one child; each batch, and the batch after them
        all, gets the oracle's answers to its own pairs."""
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(13)
        batches = [[(new_random_state(rng, 6, 5), INSTRUCTIONS[int(rng.integers(len(INSTRUCTIONS)))])
                    for _ in range(12)] for _ in range(24)]
        oracle = OracleSolver()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ExternalSolver([sys.executable, "-m", "supportgen.cli", "serve-oracle"],
                                timeout=30.0) as solver:
                with ThreadPoolExecutor(6) as pool:
                    got = list(pool.map(solver.solve_many, batches[1:]))
                got.append(solver.solve_many(batches[0]))
        finally:
            sys.setswitchinterval(interval)
        want = [outcomes(oracle.solve_many(b)) for b in batches[1:] + batches[:1]]
        assert [outcomes(r) for r in got] == want

    def test_late_reply_to_timed_out_request_is_dropped(self, s0):
        from supportgen.world import Action

        instr = parse("walk to a red circle".split())
        with ExternalSolver([sys.executable, "-c", LATE_FIRST_REPLY_SERVER],
                            timeout=0.2) as solver:
            with pytest.raises(SolverTimeout):
                solver.solve_many([(s0, instr)])
            solver.timeout = 10.0
            # the child answers request 0 late, then request 1
            assert solver.solve_many([(s0, instr)]) == [(Action.WALK,)]

    def test_batch_larger_than_a_pipe_buffer(self):
        """One batch of request lines larger than a pipe holds is written
        while the reader drains the replies, and equals the oracle's answers."""
        pairs = large_batch()
        with ExternalSolver([sys.executable, "-m", "supportgen.cli", "serve-oracle"],
                            timeout=30.0) as solver:
            got = solver.solve_many(pairs)
        want = OracleSolver().solve_many(pairs)
        assert outcomes(got) == outcomes(want)
        assert {type(r) for r in want} == {tuple, SolverError}

    def test_large_batch_to_a_child_that_stopped_reading_times_out(self):
        """The deadline holds while the request lines cannot all be written;
        the child, whose input would hold a torn line, is killed, and the
        session is over."""
        import time

        with ExternalSolver([sys.executable, "-c", "import time; time.sleep(60)"],
                            timeout=0.5) as solver:
            start = time.monotonic()
            with pytest.raises(SolverTimeout, match="request 0 "):
                solver.solve_many(large_batch())
            assert time.monotonic() - start < 5
            assert solver._proc.wait(timeout=5) is not None
            with pytest.raises(ProtocolError):
                solver.solve_many(large_batch()[:1])

    def test_batch_answered_in_reverse_order(self, s0):
        instr = parse("walk to a red circle".split())
        with ExternalSolver([sys.executable, "-c", REVERSING_SERVER], timeout=10.0) as solver:
            got = solver.solve_many([(s0, instr)] * 5)
        assert outcomes(got) == [(Action.WALK,), (Action.WALK,) * 2, "unsolvable",
                                 (Action.WALK,) * 4, (Action.WALK,) * 5]

    def test_stalled_batch_times_out_and_late_replies_are_dropped(self, s0):
        import time

        instr = parse("walk to a red circle".split())
        with ExternalSolver([sys.executable, "-c", STALLING_SERVER], timeout=0.3) as solver:
            start = time.monotonic()
            with pytest.raises(SolverTimeout, match="request 2 "):
                solver.solve_many([(s0, instr)] * 4)
            assert 0.3 <= time.monotonic() - start < 1.0
            solver.timeout = 10.0
            # the child answers requests 2 and 3 late, then request 4
            assert solver.solve_many([(s0, instr)]) == [(Action.STAY,)]

    def test_deadline_restarts_at_each_reply(self, s0):
        """A batch whose replies come 0.25 s apart outlasts a 1 s timeout:
        the deadline counts from the batch's latest reply."""
        instr = parse("walk to a red circle".split())
        with ExternalSolver([sys.executable, "-c", TRICKLING_SERVER], timeout=1.0) as solver:
            assert solver.solve_many([(s0, instr)] * 6) == [(Action.WALK,)] * 6

    def test_child_exiting_mid_batch_is_a_protocol_violation(self, s0):
        """A child that answers half a batch and exits ends it with a
        ProtocolError at once, not after the timeout."""
        import time

        instr = parse("walk to a red circle".split())
        with ExternalSolver([sys.executable, "-c", HALF_BATCH_THEN_EXIT_SERVER],
                            timeout=30.0) as solver:
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="closed its output|cannot write"):
                solver.solve_many([(s0, instr)] * 4)
            assert time.monotonic() - start < 5
