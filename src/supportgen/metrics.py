"""Quantitative analyses: the nine support criteria, validity/correctness,
nearest-neighbour similarity profiles, the Zipf fit, and permutation-invariant
action-pattern frequencies.

Criteria semantics. Rows (1)-(5) are pooled per-support fractions; rows
(6)-(9) are per-query indicators averaged over queries:

  (1) support instruction's (size, color, shape) description equals the query's
  (2) support agent start position equals the query's
  (3) support's resolved target position equals the query's
  (4) (target - agent) displacement equals the query's
  (5) resolved target object (shape, color, size) equals the query's
  (6) some support shows the query verb together with (5)
  (7) some support shows the query adverb together with (5)
  (8) both (6) and (7) hold for the query's support set
  (9) some support satisfies (4), and (8) holds

Rows (1) and (2) compare the instruction and the agent, so they need no
referent; rows (3)-(9) count a support whose instruction is unresolvable in
its state as non-matching.
"""

from __future__ import annotations

import itertools
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import Example, SupportSet
from .engines import Solver
from .errors import FitError, MetricError, PatternError, SolverError, UnresolvableError
from .grammar import resolve_target
from .world import (ACTION_TABLE_SIZE, Action, RngLike, WorldState, active_slots, as_rng,
                    shared_slot_counts, state_codes)

CRITERIA_ROWS = (
    "(1) described object",
    "(2) agent position",
    "(3) target position",
    "(4) same displacement",
    "(5) target object",
    "(6) verb & (5)",
    "(7) adverb & (5)",
    "(8) (6) & (7)",
    "(9) (4) & (8)",
)


@dataclass
class CriteriaReport:
    values: dict[str, float]
    queries: int
    supports: int

    def as_row_list(self) -> list[tuple[str, float]]:
        return [(name, self.values[name]) for name in CRITERIA_ROWS]


def support_criteria(pairs: Iterable[tuple[Example, SupportSet]]) -> CriteriaReport:
    per_support = np.zeros(5, dtype=np.float64)
    per_query = np.zeros(4, dtype=np.float64)
    query_total = support_total = 0

    for query, support_set in pairs:
        query_total += 1
        q_res = resolve_target(query.instruction, query.state).object
        q_diff = (q_res.pos.x - query.state.agent.pos.x,
                  q_res.pos.y - query.state.agent.pos.y)
        any_verb = any_adverb = any_diff = False
        for support in support_set.supports:
            support_total += 1
            desc_eq = support.instruction.description() == query.instruction.description()
            agent_eq = support.state.agent.pos == query.state.agent.pos
            try:
                s_res = resolve_target(support.instruction, support.state).object
            except UnresolvableError:
                s_res = None
            pos_eq = s_res is not None and s_res.pos == q_res.pos
            diff_eq = s_res is not None and (
                s_res.pos.x - support.state.agent.pos.x,
                s_res.pos.y - support.state.agent.pos.y) == q_diff
            obj_eq = s_res is not None and s_res.description() == q_res.description()
            per_support += (desc_eq, agent_eq, pos_eq, diff_eq, obj_eq)
            if obj_eq and support.instruction.verb == query.instruction.verb:
                any_verb = True
            if obj_eq and support.instruction.adverb == query.instruction.adverb:
                any_adverb = True
            if diff_eq:
                any_diff = True
        both = any_verb and any_adverb
        per_query += (any_verb, any_adverb, both, any_diff and both)

    if query_total == 0:
        raise MetricError("criteria need at least one (query, supports) pair")
    per_support /= max(support_total, 1)
    per_query /= query_total
    values = dict(zip(CRITERIA_ROWS, (*per_support, *per_query)))
    return CriteriaReport(values=values, queries=query_total, supports=support_total)


@dataclass
class ValidityReport:
    valid: float
    correct: float
    correct_and_valid: float
    correct_given_valid: float
    total: int


def validity_correctness(pairs: Iterable[tuple[Example, SupportSet]],
                         oracle: Solver) -> ValidityReport:
    """Over the supports of (query, support set) pairs, solved one set per
    solve_many call. valid: the support instruction is solvable in its
    state; correct: the stored actions equal the oracle's. Correct implies
    valid because an unsolvable instruction has no oracle actions to match."""
    total = valid = correct = 0
    for _, support_set in pairs:
        supports = support_set.supports
        total += len(supports)
        for support, expected in zip(supports, oracle.solve_many(
                [(support.state, support.instruction) for support in supports])):
            if isinstance(expected, SolverError):
                continue
            valid += 1
            if support.actions is not None and tuple(support.actions) == tuple(expected):
                correct += 1
    if total == 0:
        raise MetricError("no supports given")
    return ValidityReport(
        valid=valid / total,
        correct=correct / total,
        correct_and_valid=correct / total,
        correct_given_valid=(correct / valid) if valid else float("nan"),
        total=total,
    )


DEFAULT_RANKS = tuple(2 ** i for i in range(14))  # 1 .. 8192
#: Split states nn_profile samples by default.
DEFAULT_NN_SAMPLE = 1000
#: Split states nn_profile scores against the train states in one block.
_NN_CHUNK = 128


def nn_profile(split_states: Sequence[WorldState], train_states: Sequence[WorldState],
               ranks: Sequence[int] = DEFAULT_RANKS, sample: int = DEFAULT_NN_SAMPLE,
               rng: RngLike = 0) -> list[tuple[int, float]]:
    """Mean cosine similarity between sampled split states and their Nth
    nearest training state, over unit one-hot encodings (exact search).

    The cosine of two states is k / active_slots(cells) for the k active
    slots they share. nn_profile counts k with shared_slot_counts, as CovR
    does, and sums the counts as integers, so the profile does not depend
    on the BLAS kernel. Ranks beyond the training size are dropped with a
    warning."""
    if not split_states or not train_states:
        raise MetricError("nn_profile needs nonempty split and train states")
    ranks = sorted(set(int(r) for r in ranks))
    usable = [r for r in ranks if r <= len(train_states)]
    if len(usable) < len(ranks):
        warnings.warn(
            f"ranks beyond the training size ({len(train_states)}) truncated",
            stacklevel=2,
        )
    if not usable:
        raise MetricError("all requested ranks exceed the training size")
    gen = as_rng(rng)
    if len(split_states) > sample:
        idx = gen.choice(len(split_states), size=sample, replace=False)
        split_states = [split_states[int(i)] for i in idx]
    coded = state_codes(train_states)
    split_coded = state_codes(split_states)
    max_rank = usable[-1]
    sums = np.zeros(len(usable), dtype=np.int64)
    buffer = np.empty((min(_NN_CHUNK, len(split_states)), len(train_states)), dtype=np.float32)
    for start in range(0, len(split_states), _NN_CHUNK):
        chunk = [a[start:start + _NN_CHUNK] for a in split_coded]
        sims = shared_slot_counts(chunk, coded, buffer[:len(chunk[0])])
        part = -np.partition(-sims, max_rank - 1, axis=1)[:, :max_rank]
        part.sort(axis=1)  # ascending: rank r sits at max_rank - r
        sums += part[:, max_rank - np.array(usable)].astype(np.int64).sum(axis=0)
    total = active_slots(coded[0].shape[1]) * len(split_states)
    return [(r, int(k) / total) for r, k in zip(usable, sums)]


# ---------------------------------------------------------------------------
# Zipf fit
# ---------------------------------------------------------------------------

@dataclass
class ZipfFit:
    alpha: float
    rmse: float
    vocabulary: int
    tokens: int


def zipf_fit(tokens: Iterable[str] | Mapping[str, int], x_min: int | None = None
             ) -> ZipfFit:
    """Discrete power-law MLE over word frequencies:

        alpha = 1 + n * [ sum ln(x_i / (x_min - 1/2)) ]^-1

    with x_min defaulting to the smallest observed frequency. The RMSE
    compares the empirical rank-probability curve against the fitted Zipf
    rank law normalized over the observed vocabulary."""
    counts = Counter(tokens)
    freqs = np.asarray(sorted(counts.values(), reverse=True), dtype=np.float64)
    if len(freqs) < 2:
        raise FitError("zipf_fit needs at least two distinct tokens")
    if x_min is None:
        x_min = int(freqs.min())
    xs = freqs[freqs >= x_min]
    if len(xs) < 2:
        raise FitError(f"fewer than two frequencies at or above x_min={x_min}")
    denom = np.log(xs / (x_min - 0.5)).sum()
    if denom <= 0:
        raise FitError("degenerate corpus: zero log-spread in frequencies")
    alpha = 1.0 + len(xs) / denom

    total = freqs.sum()
    p_emp = freqs / total
    ranks = np.arange(1, len(freqs) + 1, dtype=np.float64)
    p_fit = ranks ** (-alpha)
    p_fit /= p_fit.sum()
    rmse = float(np.sqrt(np.mean((p_emp - p_fit) ** 2)))
    return ZipfFit(alpha=float(alpha), rmse=rmse,
                   vocabulary=len(freqs), tokens=int(total))


# ---------------------------------------------------------------------------
# Action-pattern frequency
# ---------------------------------------------------------------------------

#: Named patterns in the run-length pattern language. "X(4)" is a fixed
#: repeat, "X(n)" a variable repeat (same letter = same count on the same
#: symbol), "( ... )(n)" a repeated group and ".." any gap.
NAMED_PATTERNS = {
    "H": ".. LTURN(4) PULL(n) ..",
    "D": "LTURN(2) WALK(n) LTURN WALK(n)",
    "G": "( LTURN RTURN(3) LTURN WALK )(n)",
}

_PATTERN_TOKEN = re.compile(r"\.\.|\(|\)|[A-Za-z_]+|\d+")


@dataclass
class CompiledPattern:
    template: str  # the regex, with a %s in place of each action symbol
    slots: tuple[str, ...]  # the action symbol of each %s, in order
    symbols: tuple[str, ...]  # the distinct symbols, in order of appearance

    def regex_for(self, assignment: Mapping[str, int]) -> re.Pattern:
        return re.compile(self.template % tuple(
            re.escape(_char(assignment[symbol])) for symbol in self.slots))


def _char(code: int) -> str:
    return chr(ord("0") + code)


def compile_pattern(text: str) -> CompiledPattern:
    """Translate the pattern language in one recursive pass into regex text
    with a %s in place of each action symbol."""
    text = NAMED_PATTERNS.get(text.strip(), text)
    tokens = _PATTERN_TOKEN.findall(text)
    if re.sub(r"\s+", "", text) != "".join(tokens):
        raise PatternError(f"unrecognized characters in pattern {text!r}")
    pos = 0
    action_names = {a.name for a in Action}
    slots: list[str] = []
    var_symbol: dict[str, str] = {}  # the symbol each variable repeats

    def parse_count() -> int | str | None:
        nonlocal pos
        if pos < len(tokens) and tokens[pos] == "(":
            if pos + 2 < len(tokens) and tokens[pos + 2] == ")":
                inner = tokens[pos + 1]
                if inner.isdigit():
                    pos += 3
                    count = int(inner)
                    if count <= 0:
                        raise PatternError("repeat count must be positive")
                    return count
                if inner.isidentifier() and inner not in action_names:
                    pos += 3
                    return inner
        return None

    def atom(symbol: str, count: int | str | None, depth: int) -> str:
        if isinstance(count, str):
            if depth:
                raise PatternError("variable repeats inside groups are not supported")
            prior = var_symbol.get(count)
            if prior is not None:
                if prior != symbol:
                    raise PatternError(
                        f"variable {count!r} reused across symbols {prior}/{symbol}")
                return f"(?P={count})"
            var_symbol[count] = symbol
        slots.append(symbol)
        if count is None:
            return "%s"
        if isinstance(count, int):
            return f"%s{{{count}}}"
        return f"(?P<{count}>%s+)"

    def parse_sequence(depth: int) -> str:
        nonlocal pos
        parts: list[str] = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if depth == 0:
                    raise PatternError(f"unbalanced ')' in {text!r}")
                return "".join(parts)
            pos += 1
            if tok == "..":
                parts.append(".*")
            elif tok == "(":
                inner = parse_sequence(depth + 1)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise PatternError(f"unbalanced '(' in {text!r}")
                pos += 1
                count = parse_count()
                suffix = "" if count is None else "+" if isinstance(count, str) else f"{{{count}}}"
                parts.append(f"(?:{inner}){suffix}")
            elif tok.upper() in action_names:
                parts.append(atom(tok.upper(), parse_count(), depth))
            else:
                raise PatternError(f"unknown pattern token {tok!r}")
        if depth:
            raise PatternError(f"unbalanced '(' in {text!r}")
        return "".join(parts)

    template = parse_sequence(0)
    compiled = CompiledPattern(template, tuple(slots), tuple(dict.fromkeys(slots)))
    try:  # syntax check; a repeat count can be too large for re
        compiled.regex_for({s: Action[s].value for s in compiled.symbols})
    except (OverflowError, re.error) as exc:
        raise PatternError(f"bad pattern {text!r}: {exc}") from None
    return compiled


@dataclass
class PatternReport:
    pattern: str
    fraction: float
    matched: int
    total: int
    over_permutations: bool


def pattern_frequency(sequences: Iterable[Sequence[int]], pattern: str,
                      over_permutations: bool = False) -> PatternReport:
    """Fraction of action sequences matching the pattern, optionally under
    some relabeling of the symbol table. Only the symbols that occur in the
    pattern matter, so injective assignments of those symbols enumerate the
    full permutation group's effect."""
    compiled = compile_pattern(pattern)
    strings = Counter(
        "".join(_char(int(a)) for a in seq) for seq in sequences
    )
    total = sum(strings.values())
    if total == 0:
        raise MetricError("pattern_frequency needs at least one sequence")
    if not compiled.template:
        return PatternReport(pattern, 1.0, total, total, over_permutations)

    if over_permutations:
        assignments = [
            dict(zip(compiled.symbols, codes))
            for codes in itertools.permutations(range(ACTION_TABLE_SIZE),
                                                len(compiled.symbols))
        ]
    else:
        assignments = [{s: Action[s].value for s in compiled.symbols}]
    regexes = [compiled.regex_for(a) for a in assignments]

    matched = 0
    for string, mult in strings.items():
        if any(rx.fullmatch(string) for rx in regexes):
            matched += mult
    return PatternReport(pattern=pattern, fraction=matched / total, matched=matched,
                         total=total, over_permutations=over_permutations)
