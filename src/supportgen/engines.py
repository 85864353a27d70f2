"""The six support-set construction strategies and the Solver abstraction.

Strategies never emit the query pair itself, and all of them are pure
functions of (query, corpus/model, seed). Same-state strategies (heuristic,
random, demogen) keep the query state on every support; retrieval strategies
(covr, gandr) and other-states attach training states.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import selectors
import subprocess
import time
from _thread import allocate_lock
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NoReturn, Protocol, Sequence

import numpy as np

from .dataset import Example, Support, SupportSet
from .errors import (EncodingError, ExternalServiceError, ProtocolError, RetrievalError,
                     SolverError, SolverTimeout, UnresolvableError)
from .grammar import (INSTRUCTION_ROW, INSTRUCTIONS, REALIZED, STRING_RANK, Instruction,
                      ground_descriptions, parse, realize)
from .index import (
    DEFAULT_CELLS,
    DEFAULT_PCA_DIM,
    DEFAULT_PROBES,
    IvfIndex,
    PcaProjector,
    TfIdfEncoder,
    hybrid_encode,
    ivf_build,
    ivf_query,
    pca_fit,
    tfidf_encode,
    tfidf_fit,
    unit_rows,
)
from .instruction_model import InstructionModel, infill_distribution
from .schema import (SOLVER_ERROR, SOLVER_REPLY, SOLVER_REQUEST, _array, _build_state, _decode,
                     fault, reply_actions)
from .world import (CELL_WIDTH, Action, RngLike, WorldState, active_slots, as_rng, code_sums,
                    fold_slots, one_hot_rows, shared_slot_counts, slot_value, state_codes)
from . import planner

DEFAULT_SUPPORT_COUNT = 16
DEFAULT_SAMPLE_COUNT = 2048
DEFAULT_MASK_RATE = 0.2
RETRIEVAL_POOL = 128
#: Seconds an ExternalSolver batch waits for its next reply by default.
DEFAULT_SOLVER_TIMEOUT = 30.0
#: Seconds ExternalSolver.close() lets the child take to exit before killing it.
_CLOSE_SECONDS = 5.0
_READ_SIZE = 65536


class Solver(Protocol):
    """Anything that maps (state, instruction) pairs to action sequences:
    `solve_many` answers a batch of pairs in order, with a SolverError in
    place of each pair it cannot solve."""

    def solve_many(self, pairs: Sequence[tuple[WorldState, Instruction]]
                   ) -> list[tuple[Action, ...] | SolverError]:
        ...


class OracleSolver:
    """Ground-truth solver backed by the planner."""

    def solve(self, state: WorldState, instruction: Instruction) -> tuple[Action, ...]:
        """The planner's actions for one pair; SolverError if it has none."""
        try:
            return planner.solve(state, instruction)
        except UnresolvableError as exc:
            raise SolverError(str(exc)) from exc

    def solve_many(self, pairs: Sequence[tuple[WorldState, Instruction]]
                   ) -> list[tuple[Action, ...] | SolverError]:
        results: list[tuple[Action, ...] | SolverError] = []
        for state, instruction in pairs:
            try:
                results.append(self.solve(state, instruction))
            except SolverError as exc:
                # a fresh error: the raised one's traceback holds the planner's frames
                results.append(SolverError(str(exc)))
        return results


# ---------------------------------------------------------------------------
# Heuristic templates
# ---------------------------------------------------------------------------

#: Verb swaps by (query verb, query is "while spinning").
_VERB_SWAPS = {
    ("pull", False): ("walk_to", "push"), ("pull", True): ("walk_to", "push"),
    ("walk_to", False): ("push", "pull"), ("walk_to", True): (),
    ("push", False): ("walk_to", "pull"), ("push", True): (),
}
#: Adverb swaps by (query adverb, query verb is push); absent pairs swap nothing.
_ADVERB_SWAPS = {
    ("while_zigzagging", False): ("hesitantly", None, "while_spinning"),
    ("hesitantly", False): ("while_zigzagging", None, "while_spinning"),
    ("while_spinning", False): ("hesitantly", "while_zigzagging", None),
    ("while_spinning", True): ("hesitantly", "while_zigzagging", None),
}


def heuristic_candidates(instr: Instruction) -> list[Instruction]:
    """Template swaps on the query instruction: first its verb, then its
    adverb, each by the swap tables above. The query combination itself is
    never produced."""
    verbs = _VERB_SWAPS[instr.verb, instr.adverb == "while_spinning"]
    adverbs = _ADVERB_SWAPS.get((instr.adverb, instr.verb == "push"), ())
    return ([replace(instr, verb=verb) for verb in verbs]
            + [replace(instr, adverb=adverb) for adverb in adverbs])


def _solve_in_state(query: Example, candidates: Iterable[tuple[Instruction, dict]],
                    solver: Solver, n: int, keep_invalid: bool = False) -> list[Support]:
    """Solve the (instruction, meta) candidates in the query state, in order,
    until n supports exist. An unsolvable candidate is skipped, or with
    keep_invalid kept with no actions.

    Each round hands the solver the next n - len(supports) candidates in one
    solve_many call; a one-by-one loop would have solved each of them too, so
    the solved pairs and their order are the same."""
    candidates = iter(candidates)
    supports: list[Support] = []
    while len(supports) < n:
        batch = list(itertools.islice(candidates, n - len(supports)))
        if not batch:
            break
        results = solver.solve_many([(query.state, instr) for instr, _ in batch])
        for (instr, meta), actions in zip(batch, results):
            if isinstance(actions, SolverError):
                if not keep_invalid:
                    continue
                actions = None
            supports.append(Support(query.state, instr, actions, meta))
    return supports


def heuristic_supports(query: Example, solver: Solver,
                       n: int = DEFAULT_SUPPORT_COUNT) -> SupportSet:
    candidates = ((cand, {}) for cand in heuristic_candidates(query.instruction))
    return SupportSet(strategy="heuristic",
                      supports=_solve_in_state(query, candidates, solver, n))


def random_supports(query: Example, solver: Solver, rng: RngLike,
                    n: int = DEFAULT_SUPPORT_COUNT) -> SupportSet:
    """n distinct instructions sampled uniformly over everything resolvable
    in the query state (the query instruction excluded)."""
    gen = as_rng(rng)
    grounded = {description for description, _, _ in ground_descriptions(query.state)}
    legal = [instr for instr in INSTRUCTIONS
             if instr.description() in grounded and instr != query.instruction]
    take = min(n, len(legal))
    chosen = gen.choice(len(legal), size=take, replace=False) if take else []
    candidates = ((legal[idx], {}) for idx in sorted(int(i) for i in chosen))
    return SupportSet(strategy="random",
                      supports=_solve_in_state(query, candidates, solver, n))


def build_instruction_index(examples: Iterable[Example]) -> dict[Instruction, list[Example]]:
    index: dict[Instruction, list[Example]] = {}
    for ex in examples:
        index.setdefault(ex.instruction, []).append(ex)
    return index


def other_states_supports(query: Example,
                          train_index: Mapping[Instruction, Sequence[Example]],
                          rng: RngLike, n: int = DEFAULT_SUPPORT_COUNT) -> SupportSet:
    """Heuristic instructions demonstrated in training states. Instructions
    absent from the training data are silently skipped."""
    gen = as_rng(rng)
    supports = []
    for cand in heuristic_candidates(query.instruction):
        if len(supports) >= n:
            break
        matches = [ex for ex in train_index.get(cand, ()) if ex.state != query.state]
        if not matches:
            continue
        pick = matches[int(gen.integers(len(matches)))]
        supports.append(Support(pick.state, cand, pick.actions, {"from_train": True}))
    return SupportSet(strategy="other_states", supports=supports)


def demogen_supports(query: Example, model: InstructionModel, solver: Solver,
                     rng: RngLike, k: int = DEFAULT_SAMPLE_COUNT,
                     n: int = DEFAULT_SUPPORT_COUNT,
                     mask_rate: float = DEFAULT_MASK_RATE,
                     keep_invalid: bool = True) -> SupportSet:
    """Draw k masked infills of the query from the exact infill distribution,
    deduplicate, drop the query, rank by model score (the model's log_table;
    ties on the realized string), then solve the top n in the query state.

    With keep_invalid (default) unsolvable candidates stay in the set with no
    actions; otherwise each is replaced by the next-ranked candidate
    until n supports exist or candidates run out."""
    probs = infill_distribution(model, query.instruction, mask_rate)
    rows = np.unique(as_rng(rng).choice(probs.size, size=k, p=probs))
    rows = rows[rows != INSTRUCTION_ROW[query.instruction]]
    log_table = model.log_table
    ranked = rows[np.lexsort((STRING_RANK[rows], -log_table[rows]))]

    candidates = ((INSTRUCTIONS[row], {"score": float(log_table[row])}) for row in ranked)
    supports = _solve_in_state(query, candidates, solver, n, keep_invalid)
    return SupportSet(strategy="demogen",
                      supports=supports,
                      meta={"sampled": k, "unique": len(ranked), "keep_invalid": keep_invalid})


# ---------------------------------------------------------------------------
# n-gram coverage helpers
# ---------------------------------------------------------------------------

BOUNDARY_START = "<s>"
BOUNDARY_END = "</s>"


def instruction_ngrams(instr: Instruction) -> set:
    """One-grams plus boundary-marked two-grams of the realized tokens."""
    tokens = realize(instr)
    padded = [BOUNDARY_START] + tokens + [BOUNDARY_END]
    grams: set = set(tokens)
    grams.update(zip(padded, padded[1:]))
    return grams


def _gram_masks() -> tuple[tuple[int, ...], int]:
    """instruction_ngrams of each INSTRUCTIONS row as an int bitmask, one bit
    per distinct n-gram, and the mask of the one-gram bits: one-grams take
    the low bits and two-grams the rest, each kind in sorted order."""
    grams = [instruction_ngrams(instr) for instr in INSTRUCTIONS]
    vocab = set().union(*grams)
    ones = sorted(g for g in vocab if isinstance(g, str))
    bit = {g: i for i, g in enumerate(ones + sorted(vocab.difference(ones)))}
    return tuple(sum(1 << bit[g] for g in row) for row in grams), (1 << len(ones)) - 1


_GRAMS, _ONE_GRAM_BITS = _gram_masks()


def _greedy_cover(query: Example, ordered: list[tuple[Example, dict]], n: int) -> list[Support]:
    """First take candidates while they add uncovered query n-grams, then fill
    up to n in order."""
    uncovered = _GRAMS[INSTRUCTION_ROW[query.instruction]]
    chosen: list[int] = []
    for i, (ex, _) in enumerate(ordered):
        if len(chosen) >= n:
            break
        added = _GRAMS[INSTRUCTION_ROW[ex.instruction]] & uncovered
        if added:
            uncovered &= ~added
            chosen.append(i)
    for i in range(len(ordered)):
        if len(chosen) >= n:
            break
        if i not in chosen:
            chosen.append(i)
    chosen.sort()
    return [Support(ordered[i][0].state, ordered[i][0].instruction,
                    ordered[i][0].actions, ordered[i][1]) for i in chosen[:n]]


def _pool(query: Example, retriever: CovrRetriever | GandrRetriever, qvec: np.ndarray,
          probes: int) -> list[tuple[int, Example, float]]:
    """The (corpus index, example, retrieval score) of the RETRIEVAL_POOL IVF
    neighbours of qvec, nearest first, the query pair itself dropped."""
    hits = ivf_query(retriever.ivf, qvec, k=RETRIEVAL_POOL, probes=probes)
    pairs = [(idx, retriever.examples[idx], score) for idx, score in hits]
    return [(idx, ex, score) for idx, ex, score in pairs
            if ex.state != query.state or ex.instruction != query.instruction]


# ---------------------------------------------------------------------------
# CovR: coverage retrieval over a hybrid state+instruction index
# ---------------------------------------------------------------------------

#: Rows per block of the CovR build's one-hot counts and projection.
_COVR_BLOCK_ROWS = 256


@dataclass
class CovrRetriever:
    """The CovR index plus the train states' world.state_codes triple, from
    which the state cosines are counted, and the PCA projection folded into
    world.fold_slots rows."""
    examples: list[Example]
    tfidf: TfIdfEncoder
    pca: PcaProjector
    ivf: IvfIndex
    alpha: float
    codes: tuple[np.ndarray, np.ndarray, np.ndarray]
    pose_rows: np.ndarray
    change_rows: np.ndarray


def _check_alpha(alpha: float) -> None:
    """A retriever's hybrid weight must be a finite number >= 0; any other
    value would put NaN or infinite entries into its vectors."""
    if not 0.0 <= alpha < math.inf:
        raise EncodingError(f"alpha must be a finite number >= 0, got {alpha!r}")


def _encode_instructions(examples: Sequence[Example]) -> tuple[TfIdfEncoder, np.ndarray]:
    """Fit tf-idf on the examples' realized instructions and return it with
    their vectors, one row per example."""
    docs = [REALIZED[INSTRUCTION_ROW[ex.instruction]] for ex in examples]
    tfidf = tfidf_fit(docs)
    return tfidf, tfidf_encode(tfidf, docs)


def _covr_rows(pose_rows: np.ndarray, change_rows: np.ndarray, alpha: float,
               coded: Sequence[np.ndarray], instr_vecs: np.ndarray, out: np.ndarray) -> None:
    """Write the hybrid rows of a block of states, given as their
    state_codes arrays, and of their instruction vectors into `out`: the PCA
    projection of the centred one-hot rows, which code_sums adds up from the
    codes without a BLAS call, then hybrid_encode in place. A row's bits do
    not depend on its block, so a query is a block of one."""
    code_sums(pose_rows, change_rows, *coded, out[:, :pose_rows.shape[1]])
    hybrid_encode(instr_vecs, alpha, out)


def build_covr_retriever(examples: Sequence[Example], cells: int = DEFAULT_CELLS,
                         pca_dim: int = DEFAULT_PCA_DIM, alpha: float = 0.125,
                         rng: RngLike = 0) -> CovrRetriever:
    """Fit the PCA on exact one-hot counts of the train states and project
    their cell codes block by block into the hybrid matrix: no n x d one-hot
    matrix is ever built."""
    _check_alpha(alpha)
    examples = list(examples)
    if not examples:
        raise RetrievalError("cannot build a retriever over an empty corpus")
    coded = state_codes([ex.state for ex in examples])
    n, grid_cells = coded[0].shape
    blocks = [slice(lo, lo + _COVR_BLOCK_ROWS) for lo in range(0, n, _COVR_BLOCK_ROWS)]
    value = slot_value(grid_cells)
    pca = pca_fit((one_hot_rows(*(a[b] for a in coded)) for b in blocks),
                  grid_cells * CELL_WIDTH, value, pca_dim)
    pose_rows, change_rows = fold_slots(pca.components.T * value)
    # centring: every row has one pose row, so it carries the mean's projection
    pose_rows -= np.sum(pca.components * pca.mean, axis=1)
    tfidf, instr_vecs = _encode_instructions(examples)
    hybrid = np.empty((n, pca.dim + tfidf.dim), dtype=np.float64)
    for b in blocks:
        _covr_rows(pose_rows, change_rows, alpha, [a[b] for a in coded], instr_vecs[b],
                   hybrid[b])
    del instr_vecs  # freed before k-means
    return CovrRetriever(examples=examples, tfidf=tfidf, pca=pca,
                         ivf=ivf_build(hybrid, cells=cells, rng=rng), alpha=alpha,
                         codes=coded, pose_rows=pose_rows, change_rows=change_rows)


def covr_supports(query: Example, retriever: CovrRetriever,
                  n: int = DEFAULT_SUPPORT_COUNT, probes: int = DEFAULT_PROBES) -> SupportSet:
    """Retrieve the RETRIEVAL_POOL nearest hybrid vectors, stable-sort by (matching
    two-grams, one-grams, state cosine) descending, then greedily cover the
    query's n-grams and fill to n. The state cosine of two one-hot rows is
    k / active_slots(cells) for the k active slots they share, counted by
    world.shared_slot_counts."""
    coded = state_codes([query.state])
    qvec = np.empty((1, retriever.ivf.vectors.shape[1]), dtype=np.float64)
    _covr_rows(retriever.pose_rows, retriever.change_rows, retriever.alpha, coded,
               tfidf_encode(retriever.tfidf, [realize(query.instruction)]), qvec)
    pool = _pool(query, retriever, qvec[0], probes)
    ids = np.array([idx for idx, _, _ in pool], dtype=np.intp)
    shared = shared_slot_counts(coded, [a[ids] for a in retriever.codes],
                                np.empty((1, len(ids)), dtype=np.float32))
    active = active_slots(coded[0].shape[1])
    query_grams = _GRAMS[INSTRUCTION_ROW[query.instruction]]
    candidates = []
    for rank, ((idx, ex, retrieval_score), k) in enumerate(zip(pool, shared[0].tolist())):
        grams = _GRAMS[INSTRUCTION_ROW[ex.instruction]] & query_grams
        one = (grams & _ONE_GRAM_BITS).bit_count()
        two = grams.bit_count() - one
        cosine = round(k / active, 9)
        candidates.append(((-two, -one, -cosine, rank), ex,
                           {"retrieval": retrieval_score, "cosine": cosine,
                            "two_grams": two, "one_grams": one}))
    candidates.sort(key=lambda c: c[0])
    ordered = [(ex, meta) for _, ex, meta in candidates]
    return SupportSet(strategy="covr", supports=_greedy_cover(query, ordered, n))


# ---------------------------------------------------------------------------
# GandR: generate-and-retrieve over (instruction, output) encodings
# ---------------------------------------------------------------------------

def combine_io(instr_vec: np.ndarray, out_vec: np.ndarray, alpha: float) -> np.ndarray:
    """Fixed input/output trade-off: concat((1-alpha)*in, alpha*out), unit,
    row by row over the last axis; zero rows stay zero."""
    combined = np.concatenate([(1.0 - alpha) * instr_vec, alpha * out_vec], axis=-1)
    unit_rows(combined)
    return combined


@dataclass
class GandrRetriever:
    examples: list[Example]
    instr_tfidf: TfIdfEncoder
    out_tfidf: TfIdfEncoder
    ivf: IvfIndex
    alpha: float


def build_gandr_retriever(examples: Sequence[Example], cells: int = DEFAULT_CELLS,
                          alpha: float = 0.5, rng: RngLike = 0) -> GandrRetriever:
    _check_alpha(alpha)
    examples = list(examples)
    if not examples:
        raise RetrievalError("cannot build a retriever over an empty corpus")
    instr_tfidf, instr_vecs = _encode_instructions(examples)
    outputs = [[a.name for a in ex.actions] for ex in examples]
    out_tfidf = tfidf_fit(outputs)
    vectors = combine_io(instr_vecs, tfidf_encode(out_tfidf, outputs), alpha)
    ivf = ivf_build(vectors, cells=cells, rng=rng)
    return GandrRetriever(examples=examples, instr_tfidf=instr_tfidf,
                          out_tfidf=out_tfidf, ivf=ivf, alpha=alpha)


def gandr_supports(query: Example, helper: Solver, retriever: GandrRetriever,
                   n: int = DEFAULT_SUPPORT_COUNT, probes: int = DEFAULT_PROBES) -> SupportSet:
    """Encode (query instruction, helper's guessed output), retrieve similar
    (instruction, stored output) pairs, greedily cover the query input.

    If the helper fails, the guess is the empty output, whose tf-idf row is
    zero, so the query keeps only its instruction component, weighted by the
    retriever's alpha as the index is, and the support set is flagged."""
    (guess,) = helper.solve_many([(query.state, query.instruction)])
    helper_failed = isinstance(guess, SolverError)
    if helper_failed:
        guess = ()
    instr_vec = tfidf_encode(retriever.instr_tfidf, [realize(query.instruction)])[0]
    out_vec = tfidf_encode(retriever.out_tfidf, [[a.name for a in guess]])[0]
    qvec = combine_io(instr_vec, out_vec, retriever.alpha)
    ordered = [(ex, {"retrieval": retrieval_score})
               for _, ex, retrieval_score in _pool(query, retriever, qvec, probes)]
    return SupportSet(strategy="gandr", supports=_greedy_cover(query, ordered, n),
                      meta={"helper_failed": helper_failed})


# ---------------------------------------------------------------------------
# External solver line protocol
# ---------------------------------------------------------------------------

def _decode_reply(line: bytes) -> tuple[int, tuple[Action, ...] | SolverError]:
    """The request id of one reply line and its answer: the actions, or a
    SolverError for an error reply. A line that is not UTF-8 or lies outside
    schema.SOLVER_REPLY and schema.SOLVER_ERROR raises ProtocolError naming
    the field."""
    try:
        text = line.decode()
    except UnicodeDecodeError:
        raise ProtocolError(f"response {line[:200]!r} is not valid UTF-8") from None
    try:
        msg = json.loads(text)
    except ValueError:
        raise ProtocolError(f"unparseable response {text[:200]!r}") from None
    shape = SOLVER_ERROR if isinstance(msg, dict) and "error" in msg else SOLVER_REPLY
    reason = fault(msg, shape)
    if reason is not None:
        raise ProtocolError(f"response {text[:200]!r}: {reason}")
    if shape is SOLVER_ERROR:
        return msg["id"], SolverError(str(msg["error"]))
    return msg["id"], reply_actions(msg["actions"])


class ExternalSolver:
    """Solver backed by a child process speaking newline-delimited JSON.

    Request:  {"id": <int>, "state": <state record>, "instruction": [tokens]}
    Response: {"id": <int>, "actions": [action names, any case]} or
              {"id": <int>, "error": <string>}
    The client starts no thread: the calling thread writes a batch's request
    lines as the child's input takes them while it reads the replies,
    through one selector over both pipes (so it needs POSIX pipes). Callers
    that share one solver take turns, one batch in flight at a time.
    Responses may arrive in any order and are filed by id; a reply to an id
    the batch does not await (timed out or unknown) is dropped. Only an
    "error" reply marks a pair unsolvable (a SolverError); a protocol
    violation (a line that is not UTF-8 or lies outside schema.SOLVER_REPLY
    and schema.SOLVER_ERROR, such as an id that is not a JSON integer), a
    timeout or a dead child raises an ExternalServiceError."""

    def __init__(self, command: Sequence[str], timeout: float = DEFAULT_SOLVER_TIMEOUT):
        if not command:
            raise ValueError("the solver command is empty")
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(list(command), stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, bufsize=0)
        except OSError as exc:
            raise ExternalServiceError(f"cannot start solver {command[0]!r}: {exc}") from None
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._turn = allocate_lock()
        self._next_id = itertools.count()
        self._partial = b""  # a reply line read up to, not including, its newline
        self._dead: str | None = None

    def _fail(self, reason: str) -> NoReturn:
        """End the session: this and every later batch raise ProtocolError."""
        self._dead = reason
        raise ProtocolError(reason)

    def _file_replies(self, chunk: bytes, waiting: set[int], answers: dict) -> bool:
        """File each whole reply line that `chunk` completes whose id is in
        `waiting`, taking the id out; True if any was filed. An empty chunk,
        the end of the output, also ends the last line."""
        *lines, self._partial = (self._partial + (chunk or b"\n")).split(b"\n")
        filed = False
        for line in map(bytes.strip, lines):
            if not line:
                continue
            try:
                key, answer = _decode_reply(line)
            except ProtocolError as exc:
                self._fail(f"protocol violation: {exc}")
            if key in waiting:
                waiting.remove(key)
                answers[key] = answer
                filed = True
        return filed

    def solve_many(self, pairs: Sequence[tuple[WorldState, Instruction]]
                   ) -> list[tuple[Action, ...] | SolverError]:
        with self._turn:
            if self._dead is None and self._proc.poll() is not None:
                self._dead = "solver process is not running"
            if self._dead is not None:
                raise ProtocolError(self._dead)
            ids = [next(self._next_id) for _ in pairs]
            unsent = memoryview("".join(
                json.dumps({"id": request_id, "state": state.to_record(),
                            "instruction": realize(instruction)}) + "\n"
                for request_id, (state, instruction) in zip(ids, pairs)).encode())
            waiting, answers = set(ids), {}
            stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
            with selectors.DefaultSelector() as selector:
                selector.register(stdout, selectors.EVENT_READ)
                selector.register(stdin, selectors.EVENT_WRITE)
                deadline = time.monotonic() + self.timeout
                while waiting and (left := deadline - time.monotonic()) > 0:
                    for key, _ in selector.select(left):
                        if key.fd == stdout:
                            chunk = os.read(stdout, _READ_SIZE)
                            if self._file_replies(chunk, waiting, answers):
                                deadline = time.monotonic() + self.timeout
                            if not chunk and waiting:
                                self._fail("solver process closed its output")
                        else:
                            try:
                                unsent = unsent[os.write(stdin, unsent):]
                            except BlockingIOError:
                                pass
                            except OSError as exc:
                                self._fail(f"cannot write to solver: {exc}")
                            if not unsent:
                                selector.unregister(stdin)
            if waiting:
                if unsent:
                    self._proc.kill()  # its input would be left holding a torn line
                first = next(request_id for request_id in ids if request_id in waiting)
                raise SolverTimeout(f"no response for request {first} within {self.timeout}s")
            return [answers[request_id] for request_id in ids]

    def close(self) -> None:
        """Close the child's input, read its output to the end (the child
        closes it when it exits), then reap the child, killed if 5 s pass
        before that end. A grandchild can hold that output open after the
        child exits; the output is closed all the same."""
        self._proc.stdin.close()
        stdout = self._proc.stdout.fileno()
        deadline = time.monotonic() + _CLOSE_SECONDS
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline and selector.select(deadline - time.monotonic()):
                if not os.read(stdout, _READ_SIZE):
                    break
            else:  # no end of output within the grace period
                self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "ExternalSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _build_request(msg: dict) -> tuple[WorldState, Instruction]:
    """The (state, instruction) of a request, on the fast path."""
    return _build_state(msg["state"]), parse(_array(msg["instruction"]))


def serve_solver(solver: Solver, infile, outfile) -> None:
    """Serve a Solver over the line protocol (used by the CLI oracle server).
    A request outside schema.SOLVER_REQUEST gets an error reply naming the
    field."""
    for line in infile:
        line = line.strip()
        if not line:
            continue
        request_id = None
        try:
            msg = json.loads(line)
            request_id = msg.get("id") if isinstance(msg, dict) else None
            (answer,) = solver.solve_many([_decode(_build_request, msg, SOLVER_REQUEST)])
        except Exception as exc:  # every failure maps to an in-band error
            answer = exc
        if isinstance(answer, Exception):
            response = {"id": request_id, "error": f"{type(answer).__name__}: {answer}"}
        else:
            response = {"id": request_id, "actions": [a.name for a in answer]}
        outfile.write(json.dumps(response) + "\n")
        outfile.flush()
