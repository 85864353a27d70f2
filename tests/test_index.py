import math

import numpy as np
import pytest

from supportgen.errors import EncodingError, FitError, QueryError
from supportgen.index import (
    _LLOYD_BLOCK_ROWS,
    _count_one_hot,
    _mean_and_cov,
    _row_sq_norms,
    brute_force_query,
    fixed_blocks,
    hybrid_encode,
    ivf_build,
    ivf_query,
    kmeans,
    pca_fit,
    tfidf_encode,
    tfidf_fit,
    unit_rows,
)


def project(p, vectors):
    """The projection a PcaProjector defines: (vectors - mean) @ components.T."""
    return (np.asarray(vectors, dtype=np.float64) - p.mean) @ p.components.T


def random_unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def parent_kmeans(points, cells, rng, iters=25):
    """The k-means of index 0.3.0, verbatim: k-means++ seeding through
    Generator.choice on difference-form distances, then a fixed number of
    Lloyd iterations. kmeans must match it bit for bit."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    cells = min(cells, n)
    gen = np.random.default_rng(rng)

    centroids = np.empty((cells, x.shape[1]), dtype=np.float64)
    centroids[0] = x[int(gen.integers(n))]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for i in range(1, cells):
        total = d2.sum()
        if total <= 0:
            centroids[i:] = x[gen.integers(n, size=cells - i)]
            break
        centroids[i] = x[int(gen.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((x - centroids[i]) ** 2, axis=1))

    sq = np.sum(x * x, axis=1)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dist = sq[:, None] - 2.0 * (x @ centroids.T) + np.sum(centroids ** 2, axis=1)
        labels = np.argmin(dist, axis=1)
        counts = np.bincount(labels, minlength=cells)
        for c in range(cells):
            if counts[c] > 0:
                centroids[c] = x[labels == c].mean(axis=0)
        for c in np.flatnonzero(counts == 0):
            big = int(np.argmax(counts))
            members = np.flatnonzero(labels == big)
            far = members[int(np.argmax(np.sum((x[members] - centroids[big]) ** 2, axis=1)))]
            centroids[c] = x[far]
            labels[far] = c
            counts[big] -= 1
            counts[c] += 1
    return centroids, labels


def one_hot_input(rows):
    """The pca_fit input (blocks, width, value) of the 0/1 rows `rows`, as
    one block, each active slot holding 1."""
    x = np.asarray(rows, dtype=np.float32)
    return [x], x.shape[1], 1.0


def random_state_input(rng, count, grid=6, block=None):
    """The pca_fit input (blocks, width, value) of `count` random states on a
    grid x grid board, in blocks of `block` rows, and the states' dense unit
    one-hot rows."""
    from generation_reference import encode_states
    from supportgen.world import CELL_WIDTH, one_hot_rows, slot_value, state_codes
    from conftest import random_state

    states = [random_state(rng, grid_size=grid, max_objects=grid * grid - 1)
              for _ in range(count)]
    coded = state_codes(states)
    block = block or count
    blocks = [one_hot_rows(*(a[lo:lo + block] for a in coded)) for lo in range(0, count, block)]
    return ((blocks, grid * grid * CELL_WIDTH, slot_value(grid * grid)),
            encode_states(states, np.float64))


class TestTfIdf:
    @pytest.mark.parametrize("docs", ["red", ["red", "circle"], [["red"], "circle"]],
                             ids=["string", "flat-token-list", "one-string-document"])
    def test_string_documents_rejected(self, docs):
        enc = tfidf_fit([["red", "circle"], ["blue", "square"]])
        with pytest.raises(EncodingError, match="not a string"):
            tfidf_encode(enc, docs)

    def test_identical_documents(self):
        enc = tfidf_fit([["red", "circle"], ["blue", "square"]])
        a = tfidf_encode(enc, [["red", "circle"]])[0]
        assert float(a @ a) == pytest.approx(1.0)

    def test_disjoint_vocabulary(self):
        enc = tfidf_fit([["red", "circle"], ["blue", "square"]])
        a = tfidf_encode(enc, [["red", "circle"]])[0]
        b = tfidf_encode(enc, [["blue", "square"]])[0]
        assert float(a @ b) == pytest.approx(0.0)

    def test_empty_text_is_zero_vector(self):
        enc = tfidf_fit([["red"], ["blue"]])
        assert not tfidf_encode(enc, [[]]).any()

    def test_unknown_tokens_ignored(self):
        enc = tfidf_fit([["red"], ["blue"]])
        assert not tfidf_encode(enc, [["green"]]).any()

    def test_five_document_hand_computed_table(self):
        # df: apple 3, banana 2, cherry 1; N = 5
        docs = [["apple", "banana"],
                ["apple", "banana", "banana"],
                ["apple"],
                ["cherry"],
                ["date"]]
        enc = tfidf_fit(docs)
        idf = {t: math.log(5 / df) for t, df in
               {"apple": 3, "banana": 2, "cherry": 1, "date": 1}.items()}
        # doc 2: tf(apple)=1, tf(banana)=2
        raw = np.zeros(len(enc.vocabulary))
        raw[enc.vocabulary["apple"]] = 1 * idf["apple"]
        raw[enc.vocabulary["banana"]] = 2 * idf["banana"]
        raw /= np.linalg.norm(raw)
        got = tfidf_encode(enc, [["apple", "banana", "banana"]])[0]
        assert np.allclose(got, raw)
        assert enc.idf[enc.vocabulary["cherry"]] == pytest.approx(math.log(5))

    def test_one_row_per_document(self):
        docs = [["apple", "banana"], [], ["banana", "banana", "kiwi"], ["date"], ["apple"]]
        enc = tfidf_fit([["banana", "kiwi"], ["apple", "cherry"], ["kiwi"]])
        rows = tfidf_encode(enc, docs)
        assert rows.shape == (5, enc.dim)
        for row, doc in zip(rows, docs):
            assert row.tobytes() == tfidf_encode(enc, [doc])[0].tobytes()
        assert not rows[[1, 3]].any()
        assert tfidf_encode(enc, []).shape == (0, enc.dim)

    def test_idf_nonnegative(self):
        enc = tfidf_fit([["a", "b"], ["a", "c"], ["a"]])
        assert (enc.idf >= 0).all()

    def test_empty_corpus(self):
        with pytest.raises(FitError):
            tfidf_fit([])


class TestUnitRows:
    def test_each_row_divided_by_its_own_norm(self):
        """Bit for bit the per-row division by np.linalg.norm that each
        encoder used to write; zero rows stay zero and read norm 0."""
        x = np.random.default_rng(3).standard_normal((40, 17)) * 5.0
        x[[3, 11]] = 0.0
        want = np.array([row / np.linalg.norm(row) if row.any() else row for row in x])
        norms = unit_rows(x)
        assert x.tobytes() == want.tobytes()
        assert norms.shape == (40,)
        assert np.flatnonzero(norms == 0).tolist() == [3, 11]

    def test_one_vector(self):
        v, z = np.array([3.0, 4.0]), np.zeros(3)
        assert unit_rows(v) == 5.0 and v.tolist() == [0.6, 0.8]
        assert unit_rows(z) == 0.0 and not z.any()


class TestPca:
    def test_line_in_3d(self):
        """Rows that take one of two 0/1 patterns in three columns lie on the
        line through them: one component along it, and the projection
        reconstructs every row."""
        rng = np.random.default_rng(0)
        a, b = np.array([1, 0, 1]), np.array([0, 1, 1])
        data = np.where(rng.integers(0, 2, (200, 1)) == 1, a, b).astype(np.float64)
        p = pca_fit(*one_hot_input(data), k=1)
        direction = (b - a) / np.linalg.norm(b - a)
        assert abs(float(p.components[0] @ direction)) == pytest.approx(1.0, abs=1e-9)
        recon = project(p, data) @ p.components + p.mean
        assert np.allclose(recon, data, atol=1e-9)

    def test_isotropic_explained_variance(self):
        """Independent fair 0/1 columns have equal variance along every
        component."""
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, (20_000, 6))
        p = pca_fit(*one_hot_input(data), k=6)
        variances = project(p, data).var(axis=0)
        assert variances.max() / variances.min() < 1.15

    def test_inner_products_preserved_on_low_rank_data(self):
        """Rows drawn from four patterns span at most three centred
        directions, all of which eight components keep."""
        rng = np.random.default_rng(2)
        patterns = rng.integers(0, 2, (4, 32))
        data = patterns[rng.integers(0, 4, 300)].astype(np.float64)
        p = pca_fit(*one_hot_input(data), k=8)
        projected = project(p, data)
        centered = data - data.mean(axis=0)
        assert np.allclose(projected @ projected.T, centered @ centered.T, atol=1e-8)

    def test_orthonormal_components(self):
        one_hot, _ = random_state_input(np.random.default_rng(3), 500)
        p = pca_fit(*one_hot, k=10)
        gram = p.components @ p.components.T
        assert np.allclose(gram, np.eye(p.components.shape[0]), atol=1e-6)

    def test_rank_retained_when_samples_scarce(self):
        one_hot, _ = random_state_input(np.random.default_rng(4), 5)
        p = pca_fit(*one_hot, k=320)
        assert 1 <= p.components.shape[0] <= 4  # five centred rows span four directions

    def test_sign_rule(self):
        """Each component's entry of largest magnitude is positive."""
        one_hot, _ = random_state_input(np.random.default_rng(10), 300)
        p = pca_fit(*one_hot, k=40)
        pivots = np.argmax(np.abs(p.components), axis=1)
        assert (p.components[np.arange(len(pivots)), pivots] > 0).all()

    def test_empty_input(self):
        with pytest.raises(FitError, match="at least one row"):
            pca_fit([], 3, 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        p = pca_fit(*one_hot_input(rng.integers(0, 2, (100, 8))), k=4)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        lhs = project(p, 2.0 * x + 3.0 * y + p.mean)
        rhs = (2.0 * project(p, x + p.mean) + 3.0 * project(p, y + p.mean))
        assert np.allclose(lhs, rhs, atol=1e-9)


@pytest.mark.pins
@pytest.mark.parametrize("grid, rows, block", [(6, 1, 1), (6, 700, 64), (4, 300, 7),
                                               (9, 250, 1000)])
def test_count_moments_equal_dense_moments(grid, rows, block):
    """The mean and covariance pca_fit takes from one-hot counts are within
    1e-12 of the dense float64 ones, at any count block size."""
    (blocks, width, value), dense = random_state_input(np.random.default_rng([grid, rows]),
                                                       rows, grid, block)
    counts, n = _count_one_hot(blocks, width)
    mean, cov = _mean_and_cov(counts, n, value)
    dense_mean = dense.mean(axis=0)
    centred = dense - dense_mean
    dense_cov = centred.T @ centred / max(1, rows - 1)
    assert n == rows
    assert np.abs(mean - dense_mean).max() <= 1e-12
    assert np.abs(cov - dense_cov).max() <= 1e-12


class TestKmeans:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 8))
        c1, l1 = kmeans(x, 16, rng=3)
        c2, l2 = kmeans(x, 16, rng=3)
        assert np.array_equal(c1, c2) and np.array_equal(l1, l2)

    def test_no_empty_cells(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 4))
        _, labels = kmeans(x, 32, rng=0)
        assert len(set(labels.tolist())) == 32

    def test_duplicate_points_force_reseed(self):
        # two distinct values, eight cells: empty cells get re-seeded from
        # the largest cell and every centroid stays live
        x = np.concatenate([np.zeros((40, 3)), np.ones((40, 3))])
        centroids, labels = kmeans(x, 8, rng=0)
        assert centroids.shape == (8, 3)
        assert np.isfinite(centroids).all()

    def test_more_cells_than_points_clamped(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        centroids, labels = kmeans(x, 64, rng=0)
        assert centroids.shape[0] == 4


    @pytest.mark.parametrize("cells", [0, -3])
    def test_cells_below_one_is_fit_error(self, cells):
        with pytest.raises(FitError, match="cells"):
            kmeans(np.ones((5, 2)), cells, rng=0)

    @pytest.mark.parametrize("case", [
        "gaussian", "unit-rows", "one-iteration", "no-iterations",
        "duplicates-reseed", "repeated-unit-rows", "more-cells-than-points",
        "one-hot-states",
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bitwise_equal_to_reference(self, case, seed):
        """Centroids and labels equal the reference's bit for bit, on the
        seeding draw, the d2-sums-to-zero draw, the empty-cell reseed, the
        cells > n clamp and the early stop."""
        rng = np.random.default_rng([seed, 99])
        cells, iters = 16, 25
        if case == "gaussian":
            x = rng.standard_normal((500, 8))
        elif case == "unit-rows":
            x, cells = random_unit_rows(rng, 1200, 40), 64
        elif case == "one-iteration":
            x, iters = random_unit_rows(rng, 300, 6), 1
        elif case == "no-iterations":
            x, iters = random_unit_rows(rng, 300, 6), 0
        elif case == "duplicates-reseed":
            x, cells = np.concatenate([np.zeros((40, 3)), np.ones((40, 3))]), 8
        elif case == "repeated-unit-rows":
            # five distinct points, twelve cells: d2 reaches an exact 0 sum
            x = np.repeat(random_unit_rows(rng, 5, 9), 20, axis=0)[rng.permutation(100)]
            cells = 12
        elif case == "more-cells-than-points":
            x, cells = rng.standard_normal((10, 3)), 64
        else:
            from generation_reference import encode_states
            from conftest import random_state

            x = encode_states([random_state(rng) for _ in range(400)], np.float64)
        got = kmeans(x, cells, rng=seed, iters=iters)
        want = parent_kmeans(x, cells, rng=seed, iters=iters)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.pins
    @pytest.mark.parametrize("block", [1000, _LLOYD_BLOCK_ROWS])
    @pytest.mark.parametrize("case", ["unit-rows", "one-hot-states"])
    def test_blocked_lloyd_equal_to_reference(self, monkeypatch, case, block):
        """Lloyd steps over fixed row blocks, the last one ending at the last
        row, equal the reference's one n x cells product bit for bit."""
        import supportgen.index

        rng = np.random.default_rng(11)
        if case == "unit-rows":
            x = random_unit_rows(rng, 2500, 40)
        else:
            from generation_reference import encode_states
            from conftest import random_state

            x = encode_states([random_state(rng) for _ in range(2100)], np.float64)
        monkeypatch.setattr(supportgen.index, "_LLOYD_BLOCK_ROWS", block)
        got = kmeans(x, 32, rng=5)
        want = parent_kmeans(x, 32, rng=5)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("n, size, want", [
        (5, 8, [(0, 5)]), (8, 8, [(0, 8)]), (9, 8, [(0, 8), (1, 9)]),
        (17, 8, [(0, 8), (8, 16), (9, 17)]), (16, 8, [(0, 8), (8, 16)]),
    ])
    def test_fixed_blocks_end_at_the_last_row(self, n, size, want):
        assert [(b.start, b.stop) for b in fixed_blocks(n, size)] == want

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1200])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocked_sq_norms_equal_one_pass(self, rows, order):
        x = np.asarray(random_unit_rows(np.random.default_rng(rows), rows, 338) * 3.7,
                       order=order)
        assert _row_sq_norms(x).tobytes() == np.sum(x * x, axis=1).tobytes()


class TestIvf:
    def test_query_indexed_vector_first(self):
        rng = np.random.default_rng(0)
        x = random_unit_rows(rng, 400, 8)
        index = ivf_build(x, cells=16, rng=1)
        hits = ivf_query(index, x[37], k=3, probes=4)
        assert hits[0][0] == 37
        assert hits[0][1] == pytest.approx(1.0)

    def test_probes_equal_cells_is_exact(self):
        rng = np.random.default_rng(1)
        x = random_unit_rows(rng, 1000, 6)
        index = ivf_build(x, cells=32, rng=2)
        for qi in range(0, 50, 7):
            exact = brute_force_query(x, None, x[qi], k=10)
            got = ivf_query(index, x[qi], k=10, probes=32)
            assert got == exact

    def test_one_matrix_matches_parent_cell_copies(self):
        """cell_vectors gathers from the kept matrix exactly the per-cell
        x[members] copies that index 0.4.0 stored."""
        rng = np.random.default_rng(6)
        x = random_unit_rows(rng, 900, 10)
        index = ivf_build(x, cells=24, rng=3)
        assert index.vectors is x and index.count == 900
        _, labels = kmeans(x, 24, rng=3)
        members = [np.flatnonzero(labels == c) for c in range(24)]
        assert [ids.tobytes() for ids in index.cell_ids] == [m.tobytes() for m in members]
        assert [v.tobytes() for v in index.cell_vectors] == [x[m].tobytes() for m in members]

    def test_bad_k(self):
        rng = np.random.default_rng(2)
        index = ivf_build(random_unit_rows(rng, 50, 4), cells=4, rng=0)
        with pytest.raises(QueryError):
            ivf_query(index, np.ones(4), k=0)

    @pytest.mark.parametrize("cells", [0, -3])
    def test_build_with_cells_below_one_is_fit_error(self, cells):
        with pytest.raises(FitError, match="cells"):
            ivf_build(random_unit_rows(np.random.default_rng(2), 50, 4), cells=cells)

    @pytest.mark.parametrize("probes", [0, -1])
    def test_probes_below_one_is_query_error(self, probes):
        x = random_unit_rows(np.random.default_rng(2), 200, 4)
        index = ivf_build(x, cells=8, rng=0)
        with pytest.raises(QueryError, match="probes"):
            ivf_query(index, x[0], k=200, probes=probes)

    def test_tie_break_by_id(self):
        # duplicate vectors: equal scores must rank by ascending id
        base = np.tile(np.array([[1.0, 0.0]]), (5, 1))
        index = ivf_build(base, cells=2, rng=0)
        hits = ivf_query(index, np.array([1.0, 0.0]), k=5, probes=2)
        assert [h[0] for h in hits] == [0, 1, 2, 3, 4]

    def test_recall_small_corpus(self):
        rng = np.random.default_rng(4)
        x = random_unit_rows(rng, 5000, 6)
        queries = random_unit_rows(rng, 50, 6)
        index = ivf_build(x, cells=64, rng=5)
        recall = 0.0
        for q in queries:
            exact = {i for i, _ in brute_force_query(x, None, q, k=16)}
            got = {i for i, _ in ivf_query(index, q, k=16, probes=8)}
            recall += len(exact & got) / 16
        assert recall / len(queries) >= 0.9


def hybrid(state, instr, alpha):
    """hybrid_encode of a fresh block whose leading columns hold `state`."""
    state, instr = np.asarray(state, dtype=np.float64), np.asarray(instr, dtype=np.float64)
    out = np.empty(state.shape[:-1] + (state.shape[-1] + instr.shape[-1],))
    out[..., :state.shape[-1]] = state
    return hybrid_encode(instr, alpha, out)


class TestHybridEncode:
    def test_alpha_zero_depends_only_on_state(self):
        state = np.array([1.0, 0.0])
        a = hybrid(state, np.array([0.3, 0.7]), alpha=0.0)
        b = hybrid(state, np.array([0.9, 0.1]), alpha=0.0)
        assert np.allclose(a, b)

    def test_large_alpha_dominated_by_instruction(self):
        state = np.array([1.0, 0.0])
        instr_a = np.array([1.0, 0.0])
        instr_b = np.array([0.0, 1.0])
        qa = hybrid(state, instr_a, alpha=1e9)
        qb = hybrid(state, instr_b, alpha=1e9)
        assert float(qa @ qb) == pytest.approx(0.0, abs=1e-6)

    def test_alpha_ordering_hand_computed(self):
        alpha = 0.125
        q = hybrid(np.array([1.0, 0.0]), np.array([1.0]), alpha)
        near_state = hybrid(np.array([1.0, 0.0]), np.array([-1.0]), alpha)
        near_instr = hybrid(np.array([0.0, 1.0]), np.array([1.0]), alpha)
        # hand inner products: state match beats instruction match at small alpha
        denom = 1.0 + alpha ** 2
        assert float(q @ near_state) == pytest.approx((1 - alpha ** 2) / denom)
        assert float(q @ near_instr) == pytest.approx(alpha ** 2 / denom)
        assert float(q @ near_state) > float(q @ near_instr)

    def test_zero_norm(self):
        with pytest.raises(EncodingError):
            hybrid(np.zeros(3), np.zeros(2), alpha=0.5)

    def test_rows_equal_single_vectors(self):
        rng = np.random.default_rng(6)
        states, instrs = rng.standard_normal((30, 5)), rng.standard_normal((30, 3))
        instrs[4] = 0.0
        for alpha in (0.0, 0.125, 3.0):
            rows = hybrid(states, instrs, alpha)
            for row, state, instr in zip(rows, states, instrs):
                assert row.tobytes() == hybrid(state, instr, alpha).tobytes()

    @pytest.mark.pins
    def test_in_place_rows_equal_the_allocated_rows(self):
        """Finished in `out`, whose leading columns already hold the state
        block, the rows equal the unit rows of a freshly allocated
        concatenation bit for bit."""
        rng = np.random.default_rng(7)
        states, instrs = rng.standard_normal((30, 5)), rng.standard_normal((30, 3))
        for alpha in (0.0, 0.125, 3.0):
            out = np.empty((30, 8))
            out[:, :5] = states
            assert hybrid_encode(instrs, alpha, out) is out
            fresh = np.concatenate([states, instrs * alpha], axis=1)
            unit_rows(fresh)
            assert out.tobytes() == fresh.tobytes()

    def test_one_zero_row_fails_the_matrix(self):
        states = np.eye(4)
        states[2] = 0.0
        with pytest.raises(EncodingError, match="zero combined norm"):
            hybrid(states, np.zeros((4, 2)), alpha=0.5)
        assert hybrid(states, np.ones((4, 2)), alpha=0.5).shape == (4, 6)
