"""Instruction grammar: parsing, realization, grounding, and word symbols.

Instructions have the shape "[verb] a [size] [color] [shape] [adverb]" where
size, color and adverb may be omitted. realize() always emits that canonical
order. parse() accepts exactly the 675 canonical realizations plus the 360
color-before-size variants of the instructions that carry both adjectives, so
parse(realize(i)) is i while foreign realizations still round-trip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GrammarError, LexicalError, UnresolvableError
from .world import ObjectSpec, WorldState

VERBS = ("walk_to", "push", "pull")
SIZE_WORDS = ("small", "big")
COLOR_WORDS = ("red", "green", "blue", "yellow")
SHAPE_WORDS = ("circle", "square", "cylinder")
ADVERBS = ("while_spinning", "while_zigzagging", "hesitantly", "cautiously")

_VERB_TOKENS = {"walk_to": ("walk", "to"), "push": ("push",), "pull": ("pull",)}
_ADVERB_TOKENS = {
    "while_spinning": ("while", "spinning"),
    "while_zigzagging": ("while", "zigzagging"),
    "hesitantly": ("hesitantly",),
    "cautiously": ("cautiously",),
}

#: Token-to-code table. Multiword adverbs are single symbols; "yellow" takes
#: the remaining code 17.
WORD_CODES = {
    "a": 0, "big": 1, "blue": 2, "cautiously": 3, "circle": 4, "cylinder": 5,
    "green": 6, "hesitantly": 7, "pull": 8, "push": 9, "red": 10, "small": 11,
    "square": 12, "to": 13, "walk": 14, "while spinning": 15,
    "while zigzagging": 16, "yellow": 17,
}
WORD_TABLE_SIZE = len(WORD_CODES)


@dataclass(frozen=True, order=True)
class Instruction:
    verb: str
    size_word: str | None
    color_word: str | None
    shape_word: str
    adverb: str | None

    def __post_init__(self) -> None:
        for name, domain in zip(self.__dataclass_fields__, SLOT_DOMAINS):
            value = getattr(self, name)
            if value not in domain:
                raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")

    def description(self) -> tuple[str | None, str | None, str]:
        """The surface object description (size, color, shape) triple."""
        return (self.size_word, self.color_word, self.shape_word)


@dataclass(frozen=True)
class TargetResolution:
    object: ObjectSpec
    unique: bool


def realize(instr: Instruction) -> list[str]:
    """Canonical token list: verb, "a", size, color, shape, adverb."""
    tokens = list(_VERB_TOKENS[instr.verb])
    tokens.append("a")
    if instr.size_word:
        tokens.append(instr.size_word)
    if instr.color_word:
        tokens.append(instr.color_word)
    tokens.append(instr.shape_word)
    if instr.adverb:
        tokens.extend(_ADVERB_TOKENS[instr.adverb])
    return tokens


def parse(tokens: Sequence[str]) -> Instruction:
    """The INSTRUCTIONS entry that `tokens` realize; a token outside LEXICON
    raises LexicalError, any other token list GrammarError."""
    key = tuple(tokens)
    instr = _PARSED.get(key)
    if instr is None:
        for tok in key:
            if tok not in LEXICON:
                raise LexicalError(f"unknown token {tok!r}")
        raise GrammarError(f"cannot parse {' '.join(key)!r}: not an instruction of the grammar")
    return instr


def _referent(group: Sequence[ObjectSpec], size_word: str | None) -> tuple[ObjectSpec, bool]:
    """The object `size_word` picks from `group`, a description's matches in
    (y, x) order, and whether it is unique: a size word keeps the strictly
    smallest or largest size, and ties go to the first object."""
    if size_word is None:
        return group[0], len(group) == 1
    sizes = [o.size for o in group]
    size = min(sizes) if size_word == "small" else max(sizes)
    return group[sizes.index(size)], sizes.count(size) == 1


def resolve_target(instr: Instruction, state: WorldState) -> TargetResolution:
    """Ground an instruction in a state: its referent among the objects that
    match shape and (when given) color, by the rule of _referent."""
    group = [
        o for o in state.objects
        if o.shape == instr.shape_word
        and (instr.color_word is None or o.color == instr.color_word)
    ]
    if not group:
        raise UnresolvableError(f"no object matches {' '.join(realize(instr))!r}")
    return TargetResolution(*_referent(group, instr.size_word))


#: Values of the five instruction slots (verb, size, color, shape, adverb);
#: None is an absent optional word.
SLOT_DOMAINS: tuple[tuple, ...] = (
    VERBS,
    (None,) + SIZE_WORDS,
    (None,) + COLOR_WORDS,
    SHAPE_WORDS,
    (None,) + ADVERBS,
)

#: All 675 instruction forms, in slot product order (verb outermost, adverb
#: innermost). The instruction model indexes its joint table in this order.
INSTRUCTIONS = tuple(Instruction(*values) for values in itertools.product(*SLOT_DOMAINS))

#: Each instruction's row in INSTRUCTIONS (its flat index into the joint table).
INSTRUCTION_ROW = {instr: row for row, instr in enumerate(INSTRUCTIONS)}

#: realize() of each INSTRUCTIONS row.
REALIZED = tuple(tuple(realize(instr)) for instr in INSTRUCTIONS)

#: Surface tokens accepted by the lexer: every token of the grammar.
LEXICON = frozenset(itertools.chain.from_iterable(REALIZED))

#: The instruction of each accepted token tuple: every REALIZED row, and for
#: the 360 rows with both a size and a color word the same tuple with the
#: two adjectives swapped.
_PARSED = dict(zip(REALIZED, INSTRUCTIONS))
for _tokens, _instr in zip(REALIZED, INSTRUCTIONS):
    if _instr.size_word and _instr.color_word:
        _at = _tokens.index(_instr.size_word)
        _PARSED[_tokens[:_at] + (_instr.color_word, _instr.size_word) + _tokens[_at + 2:]] = _instr

#: Rank of each row's space-joined realized string among all 675; the
#: strings are distinct, so this is a permutation of range(675).
STRING_RANK = np.argsort(np.argsort([" ".join(tokens) for tokens in REALIZED]))


def ground_descriptions(state: WorldState) -> list[tuple[tuple, ObjectSpec, bool]]:
    """Every object description (size, color, shape) that grounds in
    `state`, as (description, referent, unique) with the referent and
    uniqueness resolve_target gives it. The order is shape-major (shape,
    color, size), None first in each slot; dataset generation indexes its
    candidates in this order, so reordering it changes generated data."""
    # state.objects is in (y, x) order, and so is each group
    groups: dict[tuple, list[ObjectSpec]] = {}
    for obj in state.objects:
        groups.setdefault((obj.shape, None), []).append(obj)
        groups.setdefault((obj.shape, obj.color), []).append(obj)
    out = []
    for shape in SHAPE_WORDS:
        for color in (None,) + COLOR_WORDS:
            group = groups.get((shape, color))
            if group is not None:
                for size_word in (None,) + SIZE_WORDS:
                    referent, unique = _referent(group, size_word)
                    out.append(((size_word, color, shape), referent, unique))
    return out


def encode_words(tokens: Sequence[str]) -> list[int]:
    """Map surface tokens to word-symbol codes; two tokens whose space-joined
    form is a symbol (a multiword adverb) take that one code."""
    codes = []
    i = 0
    while i < len(tokens):
        pair = f"{tokens[i]} {tokens[i + 1]}" if i + 1 < len(tokens) else None
        if pair in WORD_CODES:
            codes.append(WORD_CODES[pair])
            i += 2
            continue
        if tokens[i] not in WORD_CODES:
            raise LexicalError(f"token {tokens[i]!r} has no symbol code")
        codes.append(WORD_CODES[tokens[i]])
        i += 1
    return codes


def command_string(instr: Instruction) -> str:
    return ",".join(realize(instr))


def parse_command_string(command: str) -> Instruction:
    """parse() of a comma-joined token string: one of the shared
    INSTRUCTIONS entries."""
    return parse([t for t in command.split(",") if t])
