"""Vectorization and approximate retrieval substrate.

TF-IDF text encoding, PCA projection, and an inverted-file (Voronoi) index
over an inner-product metric. Everything is seeded and deterministic: k-means
uses k-means++ initialization with a fixed iteration budget, queries break
ties by ascending id, and probing every cell reproduces brute-force search
exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EncodingError, FitError, QueryError, RetrievalError
from .world import RngLike, as_rng

#: Components pca_fit keeps by default.
DEFAULT_PCA_DIM = 320
#: Cells ivf_build partitions into by default.
DEFAULT_CELLS = 512
#: Cells ivf_query searches by default.
DEFAULT_PROBES = 10

# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

@dataclass
class TfIdfEncoder:
    vocabulary: dict[str, int]
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.vocabulary)


def tfidf_fit(corpus: Sequence[Sequence[str]]) -> TfIdfEncoder:
    """Classic tf-idf: idf(t) = ln(N / df(t)), so terms present in every
    document carry zero weight and idf is always >= 0."""
    docs = [list(doc) for doc in corpus]
    if not docs:
        raise FitError("cannot fit tf-idf on an empty corpus")
    df = Counter(term for doc in docs for term in set(doc))
    vocabulary = {term: i for i, term in enumerate(sorted(df))}
    idf = np.array([math.log(len(docs) / df[term]) for term in vocabulary], dtype=np.float64)
    return TfIdfEncoder(vocabulary=vocabulary, idf=idf)


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Divide each row of float64 `x` (or one vector) in place by its L2 norm,
    the row's dot product with itself; zero rows stay zero. Returns the norms."""
    norms = np.sqrt(np.matmul(x[..., None, :], x[..., :, None]))[..., 0]
    np.divide(x, norms, out=x, where=norms > 0)
    return norms[..., 0]


def tfidf_encode(encoder: TfIdfEncoder, docs: Sequence[Sequence[str]]) -> np.ndarray:
    """One unit tf-idf row per token list in `docs` (one document is
    `[tokens]`); unknown tokens are ignored and all-zero rows stay zero.
    A string, as `docs` or as one document, is an EncodingError: it would
    read as one-character tokens."""
    if isinstance(docs, str) or any(isinstance(doc, str) for doc in docs):
        raise EncodingError("tfidf_encode takes a list of token lists, not a string")
    dim, vocabulary = encoder.dim, encoder.vocabulary
    flat = [row * dim + vocabulary[term] for row, doc in enumerate(docs)
            for term in doc if term in vocabulary]
    counts = np.bincount(np.array(flat, dtype=np.int64), minlength=len(docs) * dim)
    x = counts.reshape(len(docs), dim) * encoder.idf
    unit_rows(x)
    return x


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PcaProjector:
    mean: np.ndarray
    components: np.ndarray  # (k, d) orthonormal rows

    @property
    def dim(self) -> int:
        return self.components.shape[0]


def _count_one_hot(blocks: Iterable[np.ndarray], width: int) -> tuple[np.ndarray, int]:
    """XᵀX of the 0/1 float32 row blocks X of `width` columns, as int64, so
    its diagonal holds the column sums, and the number of rows. A block
    under 2**24 rows has an exact float32 product, so the counts depend
    neither on the blocks nor on BLAS threads."""
    counts = np.zeros((width, width), dtype=np.int64)
    rows = 0
    for block in blocks:
        np.add(counts, block.T @ block, out=counts, casting="unsafe")
        rows += block.shape[0]
    return counts, rows


def _mean_and_cov(counts: np.ndarray, n: int, value: float) -> tuple[np.ndarray, np.ndarray]:
    """The mean and float64 covariance (divided by n - 1, or 1 for one row)
    of the n one-hot rows, whose active slots all hold `value`, that
    `counts` counts."""
    if n == 0:
        raise FitError("pca_fit needs at least one row")
    sums = np.diagonal(counts)
    cov = (n * counts - np.outer(sums, sums)).astype(np.float64)
    cov *= value ** 2 / (n * max(1, n - 1))
    return sums * (value / n), cov


def pca_fit(blocks: Iterable[np.ndarray], width: int, value: float,
            k: int = DEFAULT_PCA_DIM) -> PcaProjector:
    """Project one-hot rows onto their top-k covariance eigenvectors after
    mean-centering. The rows come as 0/1 float32 blocks of `width` columns,
    and each active slot holds `value`.

    From the exact counts C = XᵀX of the 0/1 pattern X, with column sums s
    over n rows, the covariance v² (C − s sᵀ/n) / (n − 1) takes one
    rounding, after the exact integer n C − s sᵀ. When fewer than k
    informative directions exist, the available rank is retained. Component
    signs are fixed for determinism: each component's entry of largest
    magnitude is positive."""
    # the blocks are counted in _count_one_hot's frame, so the last one is
    # freed before eigh; the counts are kept until eigh returns
    counts, n = _count_one_hot(blocks, width)
    mean, cov = _mean_and_cov(counts, n, value)
    eigvals, eigvecs = np.linalg.eigh(cov)
    del cov
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    tol = max(eigvals[0], 0.0) * 1e-12 + 1e-15
    rank = max(min(k, int((eigvals > tol).sum())), 1)
    components = eigvecs[:, order[:rank]].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaProjector(mean=mean, components=components)


# ---------------------------------------------------------------------------
# k-means and the IVF index
# ---------------------------------------------------------------------------

#: Rows per block of _row_sq_norms: bounds its x * x temporary.
_SQ_BLOCK_ROWS = 512
#: Rows per block of the Lloyd distances: bounds their block x cells buffer.
_LLOYD_BLOCK_ROWS = 1024


def fixed_blocks(n: int, size: int) -> Iterator[slice]:
    """Slices of `size` rows that cover rows 0..n, the last one ending at n
    and so overlapping its predecessor; one slice of all n rows when
    n <= size. Every product over them has one shape, so BLAS never gets a
    short tail, for which it may take other kernels that round differently,
    and a row's result does not depend on the block it falls in."""
    if n <= size:
        yield slice(0, n)
        return
    for lo in range(0, n - size, size):
        yield slice(lo, lo + size)
    yield slice(n - size, n)


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """np.sum(x * x, axis=1), one block of rows at a time. Each row is summed
    on its own, so the result does not depend on the block size."""
    sq = np.empty(x.shape[0], dtype=np.float64)
    for lo in range(0, x.shape[0], _SQ_BLOCK_ROWS):
        block = x[lo:lo + _SQ_BLOCK_ROWS]
        sq[lo:lo + _SQ_BLOCK_ROWS] = np.sum(block * block, axis=1)
    return sq


def _sq_dist_to_row(x: np.ndarray, sq: np.ndarray, j: int, tol: float) -> np.ndarray:
    """‖x − x[j]‖² for every row as sq − 2·x·x[j] + sq[j]. Rows within `tol`
    of x[j] are recomputed from their difference, so duplicates of x[j]
    read exactly 0 and no distance is negative."""
    d = x @ x[j]
    d *= -2.0
    d += sq
    d += sq[j]
    near = np.flatnonzero(d <= tol)
    d[near] = np.sum((x[near] - x[j]) ** 2, axis=1)
    return d


def kmeans(points: np.ndarray, cells: int, rng: RngLike, iters: int = 25
           ) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ with an iteration budget.

    Seeding draws each next centroid with probability proportional to d2,
    the squared distance to the nearest centroid so far; if d2 sums to 0 the
    remaining centroids are drawn uniformly. d2 comes from the expansion
    ‖x‖² − 2x·c + ‖c‖², which may differ from ‖x − c‖² in the last bits, so a
    draw that falls within that rounding of a boundary may pick the
    neighbouring point.

    Empty cells are re-seeded from the largest cell (its farthest member), so
    every centroid stays live. Iteration stops once an assignment repeats the
    previous one with no cell empty: the centroids are then that assignment's
    means, so every later iteration would repeat it exactly. Returns
    (centroids, labels)."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n == 0 or cells < 1:
        raise FitError(f"cannot cluster {n} points into {cells} cells")
    cells = min(cells, n)
    gen = as_rng(rng)
    sq = _row_sq_norms(x)
    # 1e-9 of the largest sq + sq[j] is far above the expansion's rounding
    # error, so points that coincide with a centroid always take the exact path
    tol = 1e-9 * 2.0 * float(sq.max())

    centroids = np.empty((cells, x.shape[1]), dtype=np.float64)
    pick = int(gen.integers(n))
    centroids[0] = x[pick]
    d2 = _sq_dist_to_row(x, sq, pick, tol)
    for i in range(1, cells):
        total = d2.sum()
        if total <= 0:
            centroids[i:] = x[gen.integers(n, size=cells - i)]
            break
        pick = int(gen.choice(n, p=d2 / total))
        centroids[i] = x[pick]
        np.minimum(d2, _sq_dist_to_row(x, sq, pick, tol), out=d2)

    labels = np.zeros(n, dtype=np.int64)
    previous = None
    # each row's distances and argmin, one fixed block of rows at a time
    dist = np.empty((min(n, _LLOYD_BLOCK_ROWS), cells), dtype=np.float64)
    for _ in range(iters):
        centroid_sq = np.sum(centroids ** 2, axis=1)
        labels = np.empty(n, dtype=np.int64)
        for block in fixed_blocks(n, dist.shape[0]):
            np.matmul(x[block], centroids.T, out=dist)
            dist *= -2.0
            dist += sq[block, None]
            dist += centroid_sq
            labels[block] = np.argmin(dist, axis=1)
        counts = np.bincount(labels, minlength=cells)
        if previous is not None and np.array_equal(labels, previous):
            break
        previous = labels if counts.all() else None
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


@dataclass
class IvfIndex:
    """Inverted-file index over one vector matrix: `vectors` is the matrix
    the index was built from, held once and not copied, and each cell's
    posting list holds its row ids in ascending order."""
    centroids: np.ndarray        # (cells, dim)
    cell_ids: list[np.ndarray]   # per-cell posting list of ids
    vectors: np.ndarray          # (count, dim)

    @property
    def cells(self) -> int:
        return self.centroids.shape[0]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def cell_vectors(self) -> list[np.ndarray]:
        """Each cell's rows, gathered from `vectors` in posting-list order."""
        return [self.vectors[ids] for ids in self.cell_ids]


def ivf_build(vectors: np.ndarray, cells: int = DEFAULT_CELLS, rng: RngLike = 0) -> IvfIndex:
    """Ids are row numbers, ascending within each cell. A float64 `vectors`
    is kept by the index as it is, so the caller must not change it later."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise FitError("cannot build an index over an empty vector set")
    centroids, labels = kmeans(x, cells, rng)
    cell_ids = [np.flatnonzero(labels == c) for c in range(centroids.shape[0])]
    return IvfIndex(centroids=centroids, cell_ids=cell_ids, vectors=x)


def ivf_query(index: IvfIndex, query: np.ndarray, k: int, probes: int = DEFAULT_PROBES
              ) -> list[tuple[int, float]]:
    """Top-k ids by inner product over the `probes` nearest cells.

    Ties break by ascending id; probes >= cells reproduces exact search."""
    if k <= 0 or probes < 1:
        raise QueryError(f"k and probes must be positive, got k={k}, probes={probes}")
    if index.count == 0:
        raise RetrievalError("query against an empty index")
    q = np.asarray(query, dtype=np.float64)
    probes = min(probes, index.cells)
    cell_scores = index.centroids @ q
    chosen = np.argsort(-cell_scores, kind="stable")[:probes]
    ids: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for c in chosen:
        members = index.cell_ids[c]
        if len(members):
            ids.append(members)
            scores.append(index.vectors[members] @ q)
    if not ids:
        return []
    flat_ids = np.concatenate(ids)
    flat_scores = np.concatenate(scores)
    order = np.lexsort((flat_ids, -flat_scores))[:k]
    return [(int(flat_ids[i]), float(flat_scores[i])) for i in order]


def brute_force_query(vectors: np.ndarray, ids: np.ndarray | None, query: np.ndarray,
                      k: int) -> list[tuple[int, float]]:
    """Exact reference search with the same (score desc, id asc) ordering."""
    x = np.asarray(vectors, dtype=np.float64)
    all_ids = np.arange(x.shape[0], dtype=np.int64) if ids is None else np.asarray(ids)
    scores = x @ np.asarray(query, dtype=np.float64)
    order = np.lexsort((all_ids, -scores))[:k]
    return [(int(all_ids[i]), float(scores[i])) for i in order]


# ---------------------------------------------------------------------------
# Hybrid state+instruction encoding
# ---------------------------------------------------------------------------

def hybrid_encode(instr_vec: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    """Finish hybrid rows whose leading state columns the caller has already
    written into `out`: write alpha times the instruction columns after
    them, then renormalize with unit_rows in place, row by row over the last
    axis. Returns `out`."""
    np.multiply(instr_vec, alpha, out=out[..., out.shape[-1] - instr_vec.shape[-1]:])
    if not unit_rows(out).all():
        raise EncodingError("zero combined norm in hybrid_encode")
    return out
