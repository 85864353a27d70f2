"""Masked-infilling distribution and scorer over instructions.

A smoothed categorical model over the five grammar slots (verb, size, color,
shape, adverb). Fitting is balanced: every distinct instruction counts once,
so duplicating the corpus changes nothing. Absent optional slots are ordinary
"none" values, which makes them maskable like any other position.

Scoring and infilling both read one smoothed joint table over the 675
instructions, each count plus SMOOTHING: a score is a log joint probability
over the slot count, and the infill distribution is the exact mixture, over
the 32 mask patterns, of the table's slice on the query's unmasked values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FitError
from .grammar import INSTRUCTION_ROW, INSTRUCTIONS, SLOT_DOMAINS, Instruction

SLOT_NAMES = ("verb", "size", "color", "shape", "adverb")
_SHAPE = tuple(len(d) for d in SLOT_DOMAINS)
#: The add-k pseudo-count of every instruction in the smoothed table.
SMOOTHING = 0.1


@dataclass
class InstructionModel:
    counts: np.ndarray

    @property
    def smoothed(self) -> np.ndarray:
        return self.counts + SMOOTHING

    @property
    def log_table(self) -> np.ndarray:
        """The length-normalized log-likelihood of every instruction,
        log(joint / total) / slot count, indexed like INSTRUCTIONS.

        The model's sequence has a fixed length (absent optional slots are
        padding tokens), so the normalizer is the slot count; this keeps a
        verbatim-seen instruction ahead of every unseen one. Instructions
        with equal smoothed counts get bit-identical scores, so ties in
        downstream rankings break on the realized token string. Higher is
        more in-distribution."""
        table = self.smoothed
        return np.log(table.ravel() / table.sum()) / len(SLOT_NAMES)


def fit(corpus: Iterable[Instruction]) -> InstructionModel:
    """Balanced fit: each unique instruction contributes one count."""
    seen = list({INSTRUCTION_ROW[instr] for instr in corpus})
    if not seen:
        raise FitError("cannot fit an instruction model on an empty corpus")
    counts = np.zeros(len(INSTRUCTIONS))
    counts[seen] = 1.0
    return InstructionModel(counts=counts.reshape(_SHAPE))


def infill_distribution(model: InstructionModel, query: Instruction,
                        mask_rate: float) -> np.ndarray:
    """Exact distribution of a masked infill of `query`, indexed like
    INSTRUCTIONS.

    Each slot is masked independently with probability mask_rate; the masked
    slots are then filled jointly from the smoothed table's slice on the
    query's unmasked values. The result is the sum over the 32 mask patterns
    of P(mask) times that normalised slice."""
    if not 0.0 <= mask_rate <= 1.0:
        raise ValueError(f"mask_rate must be in [0, 1], got {mask_rate}")
    table = model.smoothed
    query_idx = np.unravel_index(INSTRUCTION_ROW[query], _SHAPE)
    dist = np.zeros(_SHAPE)
    for mask in itertools.product((False, True), repeat=len(_SHAPE)):
        masked = sum(mask)
        weight = mask_rate ** masked * (1.0 - mask_rate) ** (len(mask) - masked)
        if weight == 0.0:
            continue
        index = tuple(slice(None) if m else v for m, v in zip(mask, query_idx))
        dist[index] += weight * table[index] / table[index].sum()
    return dist.ravel()
