"""Per-record symbol relabeling and the compact run-length notation.

A permutation is a bijection over a symbol table (6 action codes or 18 word
codes). Relabeling the targets of every record with a fresh permutation
strips the individual codes of any fixed meaning, which is what forces an
in-context learner to actually read its supports.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import MappingError, PatternError
from .world import RngLike, as_rng


@dataclass(frozen=True)
class Permutation:
    """mapping[i] is the new code for symbol i."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise MappingError(f"not a bijection on 0..{len(self.mapping) - 1}: {self.mapping}")

    def __len__(self) -> int:
        return len(self.mapping)

    def to_codes(self) -> list[int]:
        """Serialized form stored in record provenance."""
        return list(self.mapping)

    @classmethod
    def from_codes(cls, codes: Sequence[int]) -> "Permutation":
        return cls(tuple(int(c) for c in codes))


def identity_permutation(table_size: int) -> Permutation:
    return Permutation(tuple(range(table_size)))


def sample_permutation(rng: RngLike, table_size: int) -> Permutation:
    """Uniform random bijection over a table, deterministic per seed."""
    gen = as_rng(rng)
    return Permutation(tuple(int(x) for x in gen.permutation(table_size)))


def apply(perm: Permutation, seq: Sequence[int]) -> tuple[int, ...]:
    out = []
    for sym in seq:
        code = int(sym)
        if not 0 <= code < len(perm.mapping):
            raise MappingError(f"symbol {code} outside table of size {len(perm.mapping)}")
        out.append(perm.mapping[code])
    return tuple(out)


def invert(perm: Permutation) -> Permutation:
    inverse = [0] * len(perm.mapping)
    for src, dst in enumerate(perm.mapping):
        inverse[dst] = src
    return Permutation(tuple(inverse))


_NOTATION_TOKEN = re.compile(r"\(|\)|[A-Za-z_0-9]+")


def expand_notation(text: str) -> list[str]:
    """Expand run-length notation like "WALK(5) RTURN (WALK STAY)(2)" into a
    flat token list. "X(n)" repeats the token or parenthesized group n times."""
    tokens = _NOTATION_TOKEN.findall(text)
    pos = 0

    def parse_seq(depth: int) -> list[str]:
        nonlocal pos
        out: list[str] = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if depth == 0:
                    raise PatternError(f"unbalanced ')' in {text!r}")
                return out
            pos += 1
            if tok == "(":
                group = parse_seq(depth + 1)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise PatternError(f"unbalanced '(' in {text!r}")
                pos += 1
                out.extend(group * _repeat_count())
            else:
                out.extend([tok] * _repeat_count())
        if depth:
            raise PatternError(f"unbalanced '(' in {text!r}")
        return out

    def _repeat_count() -> int:
        nonlocal pos
        if pos + 2 < len(tokens) and tokens[pos] == "(" and tokens[pos + 1].isdigit() \
                and tokens[pos + 2] == ")":
            count = int(tokens[pos + 1])
            pos += 3
            return count
        return 1

    return parse_seq(0)


def compress_notation(items: Sequence) -> str:
    """Render a sequence in run-length notation: runs of length n >= 2 become
    "x(n)". Inverse-compatible with expand_notation for plain symbol runs."""
    runs = ((item, len(list(run))) for item, run in itertools.groupby(map(str, items)))
    return " ".join(item if count == 1 else f"{item}({count})" for item, count in runs)
