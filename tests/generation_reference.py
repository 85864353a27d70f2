"""Reference generation: the per-example code dataset generation ran before
states drew their attributes in one call and candidates became counts, the
hand-written parser and word encoder the grammar had before both became
lookups over its sentences and symbols, the if/elif heuristic templates
that became two swap tables, the action-pattern compiler that parsed
into a tree and walked it again before it became one pass, and the
planner's turn branches, zigzag state machine and per-adverb step
templates before each became one closed form, and the retrieval vectors
built one row per call (tf-idf and input/output encodings, each with its
own division by the L2 norm) before they became row matrices, the
same-state solve loop that asked the solver for one pair at a time before
it handed over each round's shortfall in one batch. It also holds an
exact nearest neighbour profile: int64 products of the 0/1 one-hot rows
and a full sort per query, and the dense unit one-hot encoding of states
that the exact slot counts are checked against.

Each function is kept as it was, fresh objects and full candidate lists
included, so tests can require the current generator to draw the same
stream and build the same examples, the current parse, encode_words,
heuristic_candidates and compile_pattern to give the same results and raise
the same errors, the current turns_between, _walk_steps and _decorate
to give the same actions, the GandR build and query encodings to give the
same vectors bit for bit, the batched solve loop to solve the same pairs in
the same order, and nn_profile to give the same profile. Only the names it
reads from supportgen are imported; the split predicate tables stay the
single definition."""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from supportgen import planner
from supportgen.dataset import (
    _ACTION_PREDICATES,
    _BY_DESCRIPTION,
    _DESCRIPTION_PREDICATES,
    _VERB_ADVERBS,
    HOLDOUT_SPLITS,
    MAX_ATTEMPTS,
    DatasetConfig,
    Example,
    Split,
    Support,
    _flags,
)
from supportgen.engines import Solver
from supportgen.errors import (CapacityError, GenerationError, MetricError,
                               GrammarError, LexicalError, PatternError, SolverError)
from supportgen.grammar import (
    COLOR_WORDS,
    INSTRUCTION_ROW,
    REALIZED,
    SHAPE_WORDS,
    SIZE_WORDS,
    WORD_CODES,
    Instruction,
    TargetResolution,
)
from supportgen.index import TfIdfEncoder, tfidf_fit
from supportgen.metrics import _PATTERN_TOKEN, NAMED_PATTERNS, _char
from supportgen.planner import CAUTIOUS_SEQUENCE, SPIN, Plan
from supportgen.world import (
    COLORS,
    SHAPES,
    SIZES,
    Action,
    AgentPose,
    Heading,
    ObjectSpec,
    Position,
    RngLike,
    WorldState,
    active_slots,
    as_rng,
    one_hot_rows,
    slot_value,
    state_codes,
)


def new_random_state(rng: RngLike, grid_size: int = 6, object_count: int = 3) -> WorldState:
    """Sample a uniform random state. The agent cell is reserved: objects never
    spawn under the agent, hence the grid_size**2 - 1 capacity bound."""
    if not 0 <= object_count <= grid_size * grid_size - 1:
        raise CapacityError(
            f"cannot place {object_count} objects on a {grid_size}x{grid_size} grid"
        )
    gen = as_rng(rng)
    cells = grid_size * grid_size
    agent_cell = int(gen.integers(cells))
    agent = AgentPose(
        Position(agent_cell % grid_size, agent_cell // grid_size),
        Heading(int(gen.integers(4))),
    )
    free = [c for c in range(cells) if c != agent_cell]
    chosen = gen.choice(len(free), size=object_count, replace=False) if object_count else []
    objects = []
    for idx in chosen:
        cell = free[int(idx)]
        objects.append(
            ObjectSpec(
                shape=SHAPES[int(gen.integers(len(SHAPES)))],
                color=COLORS[int(gen.integers(len(COLORS)))],
                size=int(gen.integers(1, 5)),
                pos=Position(cell % grid_size, cell // grid_size),
            )
        )
    return WorldState(grid_size=grid_size, agent=agent, objects=tuple(objects))


def resolve_descriptions(state: WorldState) -> dict[tuple, TargetResolution]:
    """Every object description (size, color, shape) that grounds in
    `state`, mapped to what resolve_target gives it, in shape-major (shape,
    color, size) order. Dataset generation lists its candidates in this
    order, so reordering it changes generated data."""
    # state.objects is in (y, x) order, so each group's first object wins ties
    groups: dict[tuple, list[ObjectSpec]] = {}
    for obj in state.objects:
        groups.setdefault((obj.shape, None), []).append(obj)
        groups.setdefault((obj.shape, obj.color), []).append(obj)
    out = {}
    for shape in SHAPE_WORDS:
        for color in (None,) + COLOR_WORDS:
            group = groups.get((shape, color))
            if group is None:
                continue
            out[(None, color, shape)] = TargetResolution(group[0], len(group) == 1)
            for size_word, pick in (("small", min), ("big", max)):
                chosen = pick(o.size for o in group)
                matches = [o for o in group if o.size == chosen]
                out[(size_word, color, shape)] = TargetResolution(matches[0], len(matches) == 1)
    return out


#: Target size -> the verb/adverb flags of each pair in _VERB_ADVERBS.
_ACTION_FLAGS = {
    size: tuple(_flags(_ACTION_PREDICATES, verb, adverb, size) for verb, adverb in _VERB_ADVERBS)
    for size in SIZES
}


def _candidate_instructions(state: WorldState, want: frozenset[Split]
                            ) -> list[Instruction]:
    """All unique-referent instructions whose classify set equals `want`,
    (verb, adverb) outermost, then by description in resolve_descriptions
    order.

    Description and verb/adverb predicates flag disjoint splits, so a
    candidate must match `want` on each level separately."""
    want_action = want.intersection(_ACTION_PREDICATES)
    want_description = want - want_action
    kept = [
        (_BY_DESCRIPTION[description], _ACTION_FLAGS[res.object.size])
        for description, res in resolve_descriptions(state).items()
        if res.unique and want_description == _flags(_DESCRIPTION_PREDICATES, *description,
                                                     res.object, state.agent)
    ]
    return [instructions[i] for i in range(len(_VERB_ADVERBS))
            for instructions, flags in kept if flags[i] == want_action]


def generate_example(rng: np.random.Generator, config: DatasetConfig, split: Split
                     ) -> Example:
    want = frozenset() if split in (Split.TRAIN, Split.A) else frozenset({split})
    # Hold-out push/pull examples must displace the object at least one cell
    # (guarantees e.g. that every Split-H target shows the spin-pull fragment).
    needs_effect = split in HOLDOUT_SPLITS
    for _ in range(MAX_ATTEMPTS):
        n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
        state = new_random_state(rng, config.grid_size, n_obj)
        candidates = _candidate_instructions(state, want)
        while candidates:
            idx = int(rng.choice(len(candidates)))
            instr = candidates[idx]
            actions = planner.solve(state, instr)
            if needs_effect and instr.verb != "walk_to" and not any(
                a in (Action.PUSH, Action.PULL) for a in actions
            ):
                del candidates[idx]
                continue
            return Example(state, instr, actions, split)
    raise GenerationError(
        f"no admissible example for split {split.value!r} after {MAX_ATTEMPTS} attempts"
    )


#: Surface tokens accepted by the lexer, as the literal they were written as.
LEXICON = frozenset(
    {"walk", "to", "push", "pull", "a", "while", "spinning", "zigzagging",
     "hesitantly", "cautiously"} | set(SIZE_WORDS) | set(COLOR_WORDS) | set(SHAPE_WORDS)
)


def parse(tokens: Sequence[str]) -> Instruction:
    for tok in tokens:
        if tok not in LEXICON:
            raise LexicalError(f"unknown token {tok!r}")
    toks = list(tokens)

    def fail(reason: str) -> GrammarError:
        return GrammarError(f"cannot parse {' '.join(tokens)!r}: {reason}")

    if not toks:
        raise fail("empty instruction")
    if toks[0] == "walk":
        if len(toks) < 2 or toks[1] != "to":
            raise fail("'walk' must be followed by 'to'")
        verb, toks = "walk_to", toks[2:]
    elif toks[0] in ("push", "pull"):
        verb, toks = toks[0], toks[1:]
    else:
        raise fail(f"expected a verb, got {toks[0]!r}")

    if not toks or toks[0] != "a":
        raise fail("expected 'a' after the verb")
    toks = toks[1:]

    size_word = color_word = None
    while toks and (toks[0] in SIZE_WORDS or toks[0] in COLOR_WORDS):
        tok = toks.pop(0)
        if tok in SIZE_WORDS:
            if size_word is not None:
                raise fail("duplicate size word")
            size_word = tok
        else:
            if color_word is not None:
                raise fail("duplicate color word")
            color_word = tok

    if not toks or toks[0] not in SHAPE_WORDS:
        raise fail("expected a shape word")
    shape_word, toks = toks[0], toks[1:]

    adverb = None
    if toks:
        if toks == ["hesitantly"]:
            adverb = "hesitantly"
        elif toks == ["cautiously"]:
            adverb = "cautiously"
        elif toks == ["while", "spinning"]:
            adverb = "while_spinning"
        elif toks == ["while", "zigzagging"]:
            adverb = "while_zigzagging"
        else:
            raise fail(f"trailing tokens {toks!r}")

    return Instruction(verb, size_word, color_word, shape_word, adverb)


def encode_words(tokens: Sequence[str]) -> list[int]:
    """Map surface tokens to word-symbol codes, merging multiword adverbs."""
    codes = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "while" and i + 1 < len(tokens) and tokens[i + 1] in ("spinning", "zigzagging"):
            codes.append(WORD_CODES[f"while {tokens[i + 1]}"])
            i += 2
            continue
        if tokens[i] not in WORD_CODES:
            raise LexicalError(f"token {tokens[i]!r} has no symbol code")
        codes.append(WORD_CODES[tokens[i]])
        i += 1
    return codes


def heuristic_candidates(instr: Instruction) -> list[Instruction]:
    """Template swaps on the query instruction.

    Verb rules: pull -> walk to, push; walk to -> push, pull and
    push -> walk to, pull, both skipped entirely under "while spinning".
    Adverb rules: while zigzagging / hesitantly swap into each other, nothing
    and "while spinning" (skipped entirely for push); "while spinning" swaps
    into hesitantly, while zigzagging and nothing. The query combination
    itself is never produced."""
    out = []
    spinning = instr.adverb == "while_spinning"
    if instr.verb == "pull":
        verb_swaps: tuple[str, ...] = ("walk_to", "push")
    elif instr.verb == "walk_to":
        verb_swaps = () if spinning else ("push", "pull")
    else:  # push
        verb_swaps = () if spinning else ("walk_to", "pull")
    for verb in verb_swaps:
        out.append(Instruction(verb, instr.size_word, instr.color_word,
                               instr.shape_word, instr.adverb))

    if instr.adverb == "while_zigzagging":
        adverb_swaps: tuple = () if instr.verb == "push" else ("hesitantly", None, "while_spinning")
    elif instr.adverb == "hesitantly":
        adverb_swaps = () if instr.verb == "push" else ("while_zigzagging", None, "while_spinning")
    elif instr.adverb == "while_spinning":
        adverb_swaps = ("hesitantly", "while_zigzagging", None)
    else:
        adverb_swaps = ()
    for adverb in adverb_swaps:
        out.append(Instruction(instr.verb, instr.size_word, instr.color_word,
                               instr.shape_word, adverb))
    return out


@dataclass(frozen=True)
class _Atom:
    symbol: str | None  # None for the ".." gap
    count: int | str | None  # int fixed, str variable, None single


@dataclass(frozen=True)
class _Group:
    atoms: tuple[_Atom, ...]
    count: int | str | None


@dataclass
class CompiledPattern:
    elements: tuple
    symbols: tuple[str, ...]

    def regex_for(self, assignment: Mapping[str, int]) -> re.Pattern:
        return re.compile(_regex_of(self.elements, assignment))


def _regex_of(elements, assignment: Mapping[str, int]) -> str:
    parts = []
    seen_vars: set[str] = set()
    var_symbol: dict[str, str] = {}
    for el in elements:
        if isinstance(el, _Atom):
            if el.symbol is None:
                parts.append(".*")
                continue
            c = re.escape(_char(assignment[el.symbol]))
            if el.count is None:
                parts.append(c)
            elif isinstance(el.count, int):
                parts.append(f"{c}{{{el.count}}}")
            else:
                prior = var_symbol.setdefault(el.count, el.symbol)
                if prior != el.symbol:
                    raise PatternError(
                        f"variable {el.count!r} reused across symbols {prior}/{el.symbol}"
                    )
                if el.count in seen_vars:
                    parts.append(f"(?P={el.count})")
                else:
                    seen_vars.add(el.count)
                    parts.append(f"(?P<{el.count}>{c}+)")
        else:
            inner = _regex_of(el.atoms, assignment)
            if el.count is None:
                parts.append(f"(?:{inner})")
            elif isinstance(el.count, int):
                parts.append(f"(?:{inner}){{{el.count}}}")
            else:
                parts.append(f"(?:{inner})+")
    return "".join(parts)


def compile_pattern(text: str) -> CompiledPattern:
    """Parse the pattern language into matchable elements."""
    text = NAMED_PATTERNS.get(text.strip(), text)
    tokens = _PATTERN_TOKEN.findall(text)
    if re.sub(r"\s+", "", text) != "".join(tokens):
        raise PatternError(f"unrecognized characters in pattern {text!r}")
    pos = 0
    action_names = {a.name for a in Action}

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

    def parse_elements(depth: int) -> list:
        nonlocal pos
        out: list = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if depth == 0:
                    raise PatternError(f"unbalanced ')' in {text!r}")
                return out
            if tok == "..":
                pos += 1
                out.append(_Atom(None, None))
                continue
            if tok == "(":
                pos += 1
                inner = parse_elements(depth + 1)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise PatternError(f"unbalanced '(' in {text!r}")
                pos += 1
                count = parse_count()
                if any(isinstance(a, _Atom) and isinstance(a.count, str) for a in inner):
                    raise PatternError("variable repeats inside groups are not supported")
                out.append(_Group(tuple(inner), count))
                continue
            if tok.upper() in action_names:
                pos += 1
                out.append(_Atom(tok.upper(), parse_count()))
                continue
            raise PatternError(f"unknown pattern token {tok!r}")
        if depth:
            raise PatternError(f"unbalanced '(' in {text!r}")
        return out

    elements = parse_elements(0)
    symbols: list[str] = []

    def collect(els) -> None:
        for el in els:
            if isinstance(el, _Atom):
                if el.symbol and el.symbol not in symbols:
                    symbols.append(el.symbol)
            else:
                collect(el.atoms)

    collect(elements)
    compiled = CompiledPattern(elements=tuple(elements), symbols=tuple(symbols))
    if symbols:
        compiled.regex_for({s: Action[s].value for s in symbols})  # syntax check
    return compiled


def turns_between(cur: Heading, dest: Heading) -> tuple[Action, ...]:
    """Minimal turn sequence from one heading to another (LTURNs for a
    half-turn, matching the traces this grid convention is built around)."""
    diff = (dest - cur) % 4
    if diff == 0:
        return ()
    if diff == 1:
        return (Action.RTURN,)
    if diff == 3:
        return (Action.LTURN,)
    return (Action.LTURN, Action.LTURN)


def _walk_steps(plan: Plan, zigzag: bool) -> list[tuple[tuple[Action, ...], Action]]:
    """Flatten a plan into (direction turns, WALK) steps."""
    heading = plan.start.direction
    steps: list[tuple[tuple[Action, ...], Action]] = []

    def advance(to: Heading) -> tuple[Action, ...]:
        nonlocal heading
        turns = turns_between(heading, to)
        heading = to
        return turns

    if zigzag and len(plan.legs) == 2:
        (h_dir, h_cnt), (v_dir, v_cnt) = plan.legs
        remaining = [h_cnt, v_cnt]
        dirs = [h_dir, v_dir]
        axis = 0
        while remaining[0] or remaining[1]:
            if remaining[axis] == 0:
                axis = 1 - axis
            steps.append((advance(dirs[axis]), Action.WALK))
            remaining[axis] -= 1
            if remaining[1 - axis]:
                axis = 1 - axis
        return steps

    for direction, count in plan.legs:
        steps.append((advance(direction), Action.WALK))
        for _ in range(count - 1):
            steps.append(((), Action.WALK))
    return steps


def _decorate(steps: list[tuple[tuple[Action, ...], Action]],
              adverb: str | None) -> list[Action]:
    out: list[Action] = []
    for turns, action in steps:
        if adverb == "while_spinning":
            out.extend(SPIN)
            out.extend(turns)
            out.append(action)
        elif adverb == "hesitantly":
            out.extend(turns)
            out.append(action)
            out.append(Action.STAY)
        elif adverb == "cautiously" and action == Action.WALK:
            out.extend(turns)
            out.extend(CAUTIOUS_SEQUENCE)
            out.append(action)
        else:
            out.extend(turns)
            out.append(action)
    return out


def tfidf_encode(encoder: TfIdfEncoder, tokens: Sequence[str]) -> np.ndarray:
    """L2-normalized tf-idf vector; unknown tokens are ignored and empty or
    all-zero encodings stay the zero vector."""
    vec = np.zeros(encoder.dim, dtype=np.float64)
    for term, count in Counter(tokens).items():
        idx = encoder.vocabulary.get(term)
        if idx is not None:
            vec[idx] = count * encoder.idf[idx]
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def combine_io(instr_vec: np.ndarray, out_vec: np.ndarray, alpha: float) -> np.ndarray:
    """Fixed input/output trade-off: concat((1-alpha)*in, alpha*out), unit."""
    combined = np.concatenate([(1.0 - alpha) * instr_vec, alpha * out_vec])
    norm = np.linalg.norm(combined)
    return combined / norm if norm > 0 else combined


def _encode_instructions(examples: Sequence[Example]) -> tuple[TfIdfEncoder, list[np.ndarray]]:
    """Fit tf-idf on the examples' realized instructions and return it with
    each example's vector; each distinct instruction is encoded once."""
    rows = [INSTRUCTION_ROW[ex.instruction] for ex in examples]
    tfidf = tfidf_fit([REALIZED[row] for row in rows])
    vectors = {row: tfidf_encode(tfidf, REALIZED[row]) for row in dict.fromkeys(rows)}
    return tfidf, [vectors[row] for row in rows]


def gandr_vectors(examples: Sequence[Example], alpha: float
                  ) -> tuple[TfIdfEncoder, TfIdfEncoder, np.ndarray]:
    """The GandR build up to its IVF: both tf-idf encoders and the matrix
    that the index keeps, one combine_io row per example."""
    instr_tfidf, instr_vecs = _encode_instructions(examples)
    out_tfidf = tfidf_fit([[a.name for a in ex.actions] for ex in examples])
    vectors = np.asarray([
        combine_io(instr, tfidf_encode(out_tfidf, [a.name for a in ex.actions]), alpha)
        for ex, instr in zip(examples, instr_vecs)
    ])
    return instr_tfidf, out_tfidf, vectors


def _solve_in_state(query: Example, candidates: Iterable[tuple[Instruction, dict]],
                    solver: Solver, n: int, keep_invalid: bool = False) -> list[Support]:
    """Solve the (instruction, meta) candidates in the query state, in order,
    until n supports exist. An unsolvable candidate is skipped, or with
    keep_invalid kept with no actions."""
    supports = []
    for instr, meta in candidates:
        if len(supports) >= n:
            break
        try:
            actions = solver.solve(query.state, instr)
        except SolverError:
            if not keep_invalid:
                continue
            actions = None
        supports.append(Support(query.state, instr, actions, meta))
    return supports


def nn_profile(split_states: Sequence[WorldState], train_states: Sequence[WorldState],
               ranks: Sequence[int], sample: int, rng: RngLike = 0) -> list[tuple[int, float]]:
    """Mean cosine similarity between sampled split states and their Nth
    nearest training state, over unit one-hot encodings (exact search).

    Ranks beyond the training size are dropped with a warning."""
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
    train_codes = state_codes(train_states)
    train_rows = one_hot_rows(*train_codes).astype(np.int64)
    sums = [0] * len(usable)
    for row in one_hot_rows(*state_codes(split_states)).astype(np.int64):
        shared = np.sort(train_rows @ row)[::-1]
        for j, r in enumerate(usable):
            sums[j] += int(shared[r - 1])
    total = active_slots(train_codes[0].shape[1]) * len(split_states)
    return [(r, sums[j] / total) for j, r in enumerate(usable)]


def encode_states(states: Iterable[WorldState], dtype=np.float32) -> np.ndarray:
    """Unit-norm one-hot encodings of same-size states, one row per state:
    the one_hot_rows of their state_codes times slot_value.

    Every state activates exactly active_slots(cells) slots, so normalization
    is a constant scale and the encoding stays injective on valid states."""
    codes, agent_cells, headings = state_codes(list(states))
    rows = one_hot_rows(codes, agent_cells, headings).astype(dtype)
    rows *= slot_value(codes.shape[1])
    return rows
