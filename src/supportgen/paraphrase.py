"""Prompt construction and response parsing for LLM instruction paraphrasing.

Network transport sits behind a tiny interface so everything is testable with
canned fixtures; the real transport is a generic HTTP chat-completion
endpoint configured through PARA_ENDPOINT / PARA_API_KEY.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from .dataset import _write_lines
from .errors import DataFormatError, ExternalServiceError, ParaphraseError
from .grammar import COLOR_WORDS, SHAPE_WORDS, SIZE_WORDS

ENDPOINT_ENV = "PARA_ENDPOINT"
API_KEY_ENV = "PARA_API_KEY"

OBJECT_PLACEHOLDER = "[object]"


@dataclass(frozen=True)
class PromptMode:
    name: str
    seed_instruction: str
    examples: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.examples) != 10:
            raise ValueError(f"prompt mode {self.name!r} needs exactly 10 examples")


SIMPLE_MODE = PromptMode(
    name="simple",
    seed_instruction="push a red square",
    examples=(
        "Push the red square",
        "Move a red square",
        "Shove the red square",
        "Go to the red square and shove it",
        "Go to the red square and push it",
        "Walk to the red square and push it",
        "Find a red square and push it",
        "Locate a red square and push it",
        "Get to the red square and move it along",
        "Walk up to the red square and then really push it",
    ),
)

ADVERB_MODE = PromptMode(
    name="adverb",
    seed_instruction="push a red square cautiously",
    examples=(
        "Push the red square carefully",
        "Cautiously shove a red square",
        "Walk up to the red square and push it with care",
        "Approach the red square carefully and push it",
        "Carefully move the red square along",
        "Look both ways, then push a red square",
        "Gently push the red square forward",
        "Push a red square, taking care at every step",
        "Be careful while you push the red square",
        "Take a careful path to the red square and push it",
    ),
)

RELATIONAL_MODE = PromptMode(
    name="relational",
    seed_instruction="push a red circle that is south east of a blue circle",
    examples=(
        "Push the red circle south east of the blue circle",
        "Find the red circle below and right of a blue circle, then push it",
        "Shove the red circle that sits to the lower right of a blue circle",
        "Push a red circle located south east of a blue circle",
        "Go to the red circle south east of the blue circle and push it",
        "Move the red circle which lies south east of a blue circle",
        "There is a red circle south east of a blue circle; push it",
        "Push that red circle sitting south east of some blue circle",
        "Walk to the red circle south east of a blue circle and shove it",
        "Locate a blue circle, then push the red circle to its south east",
    ),
)

REASCAN_MODE = PromptMode(
    name="reascan-style",
    seed_instruction=(
        "pull the yellow square that is inside of a big red box and in the same "
        "row as a small red circle and in the same column as a small cylinder "
        "while spinning"
    ),
    examples=(
        "Spin while pulling the yellow square inside the big red box, in the same row as a small red circle and the same column as a small cylinder",
        "Pull the yellow square that sits in the big red box, sharing a row with a small red circle and a column with a small cylinder, spinning as you go",
        "While spinning, pull the yellow square contained in a big red box that lines up with a small red circle's row and a small cylinder's column",
        "Spin and pull the yellow square found inside a big red box, aligned with a small red circle horizontally and a small cylinder vertically",
        "Pull, while spinning, the yellow square within the big red box on the same row as a small red circle and same column as a small cylinder",
        "Keep spinning and pull the yellow square that the big red box holds, level with a small red circle and under or over a small cylinder",
        "Twirl along and pull the yellow square inside a big red box, matching the row of a small red circle and the column of a small cylinder",
        "Pull the yellow square that lies inside the big red box, beside the small red circle's row and the small cylinder's column, spinning all the while",
        "Spinning, pull that yellow square in the big red box which shares its row with a small red circle and its column with a small cylinder",
        "Go spin and pull the yellow square kept in a big red box, in one row with a small red circle and one column with a small cylinder",
    ),
)

PROMPT_MODES = {m.name: m for m in (SIMPLE_MODE, ADVERB_MODE, RELATIONAL_MODE, REASCAN_MODE)}

_REQUEST_LINE = 'Can you generate 25 similar statements for "{query}" in English?'


def templatize(query: str) -> str:
    """Replace the object description (size, color, shape run) with a
    template placeholder."""
    words = set(SIZE_WORDS) | set(COLOR_WORDS) | set(SHAPE_WORDS)
    tokens = query.split(" ")
    best: tuple[int, int] | None = None
    i = 0
    while i < len(tokens):
        if tokens[i].lower() in words:
            j = i
            while j < len(tokens) and tokens[j].lower() in words:
                j += 1
            if best is None or j - i > best[1] - best[0]:
                best = (i, j)
            i = j
        else:
            i += 1
    if best is None:
        return query
    return " ".join(tokens[: best[0]] + [OBJECT_PLACEHOLDER] + tokens[best[1]:])


def build_prompt(mode: PromptMode | str, query: str, template_mode: bool = False) -> str:
    """Preamble of 10 exemplar paraphrases plus the 25-statement request."""
    if isinstance(mode, str):
        if mode not in PROMPT_MODES:
            raise ValueError(f"unknown prompt mode {mode!r}")
        mode = PROMPT_MODES[mode]
    if template_mode:
        query = templatize(query)
    query = query.replace('"', '\\"')
    lines = [f'Here are 10 similar statements to "{mode.seed_instruction}"', ""]
    lines.extend(f"{i}. {text}" for i, text in enumerate(mode.examples, start=1))
    lines.append("")
    lines.append(_REQUEST_LINE.format(query=query))
    return "\n".join(lines)


_ITEM_LINE = re.compile(r"^\s*(\d+)\s*[.)]\s*(.*?)\s*$")


def parse_response(text: str) -> list[str]:
    """Extract 'N. text' lines in order, stripping numbering and a trailing
    period. Tolerates any count from 1 to 25."""
    items = []
    for line in text.splitlines():
        match = _ITEM_LINE.match(line)
        if match:
            item = match.group(2).rstrip()
            if item.endswith("."):
                item = item[:-1].rstrip()
            if item:
                items.append(item)
    if not items:
        raise ParaphraseError("no numbered paraphrases found in response")
    return items


def _word_present(word: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(word)}\b", text, flags=re.IGNORECASE) is not None


def check_retention(original: str, paraphrase: str,
                    synonyms: Mapping[str, Sequence[str]] | None = None) -> bool:
    """True iff the original's size word, color word and shape word (those
    present) all appear in the paraphrase, case-insensitively; a synonym
    table may widen the match."""
    tokens = [t.lower() for t in original.replace(",", " ").split()]
    needed = [t for t in tokens
              if t in SIZE_WORDS or t in COLOR_WORDS or t in SHAPE_WORDS]
    for word in needed:
        alternatives = [word, *(synonyms or {}).get(word, ())]
        if not any(_word_present(alt, paraphrase) for alt in alternatives):
            return False
    return True


@dataclass
class ParaphraseRecord:
    original: str
    paraphrases: list[str]
    retained: list[bool]

    def to_dict(self) -> dict:
        return {"original": self.original, "paraphrases": self.paraphrases,
                "retained": self.retained}


class Transport(Protocol):
    def complete(self, prompt: str) -> str:
        ...


class HttpTransport:
    """POSTs a chat-completion body to the configured endpoint."""

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 retries: int = 3, backoff: float = 1.0, timeout: float = 60.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        self.api_key = api_key or os.environ.get(API_KEY_ENV)
        if not self.endpoint:
            raise ExternalServiceError(f"no endpoint configured ({ENDPOINT_ENV} unset)")
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._sleep = sleep

    def complete(self, prompt: str) -> str:
        body = json.dumps({"messages": [{"role": "user", "content": prompt}]}).encode()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: OSError | None = None
        for attempt in range(self.retries):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                request = urllib.request.Request(self.endpoint, data=body, headers=headers)
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
                return payload["choices"][0]["message"]["content"]
            except OSError as exc:  # URLError included; only transport failures retry
                last_error = exc
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ExternalServiceError(f"malformed endpoint response: {exc!r}") from None
        raise ExternalServiceError(f"endpoint failed after {self.retries} tries: {last_error}")


def _read_cache(path: Path) -> dict[str, list[str]]:
    """The prompt -> paraphrases map of a cache file; any other shape than
    an object whose "paraphrases" maps prompts to lists of strings is a
    DataFormatError."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed paraphrase cache ({exc})") from None
    cache = payload.get("paraphrases", {}) if isinstance(payload, dict) else None
    if not isinstance(cache, dict) or not all(
            isinstance(value, list) and all(isinstance(p, str) for p in value)
            for value in cache.values()):
        raise DataFormatError(f"{path}: a paraphrase cache must be an object whose "
                              "'paraphrases' maps prompts to lists of strings")
    return cache


class ParaphraseClient:
    """Caches prompt -> paraphrases (one entry per prompt; under the template
    setting, queries that differ only in the object description share one)
    so interrupted runs are resumable. The cache file is rewritten
    as each new entry arrives; a cache path whose directory does not exist,
    or a malformed cache file, is rejected before any request is sent."""

    def __init__(self, transport: Transport, cache_path: str | Path | None = None,
                 synonyms: Mapping[str, Sequence[str]] | None = None,
                 max_workers: int = 4):
        self.transport = transport
        self.cache_path = Path(cache_path) if cache_path else None
        if self.cache_path and not self.cache_path.parent.is_dir():
            raise FileNotFoundError(
                f"cache directory {str(self.cache_path.parent)!r} does not exist")
        self.synonyms = synonyms
        self.max_workers = max_workers
        self._cache: dict[str, list[str]] = {}
        self._lock = threading.Lock()
        if self.cache_path and self.cache_path.exists():
            self._cache = _read_cache(self.cache_path)

    def _store(self, prompt: str, paraphrases: list[str]) -> None:
        """Add one entry and atomically rewrite the cache file; the lock keeps
        inserts out of a snapshot and each write newer than the last."""
        with self._lock:
            self._cache[prompt] = paraphrases
            if self.cache_path:
                payload = {"paraphrases": self._cache,
                           "metadata": {"sampling": "endpoint defaults"}}
                _write_lines(self.cache_path, [json.dumps(payload, sort_keys=True)])

    def _paraphrases(self, prompt: str) -> list[str]:
        """The cached paraphrases of prompt, requested first if not cached."""
        if prompt not in self._cache:
            self._store(prompt, parse_response(self.transport.complete(prompt)))
        return self._cache[prompt]

    def _record(self, query: str, paraphrases: list[str]) -> ParaphraseRecord:
        retained = [check_retention(query, p, self.synonyms) for p in paraphrases]
        return ParaphraseRecord(original=query, paraphrases=list(paraphrases),
                                retained=retained)

    def paraphrase_many(self, mode: PromptMode | str, queries: Sequence[str],
                        template_mode: bool = False) -> list[ParaphraseRecord]:
        """One record per query, in order. Each distinct prompt is requested
        once, up to max_workers at a time, however many queries share it."""
        prompts = [build_prompt(mode, q, template_mode=template_mode) for q in queries]
        distinct = list(dict.fromkeys(prompts))
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            paraphrases = dict(zip(distinct, pool.map(self._paraphrases, distinct)))
        return [self._record(q, paraphrases[p]) for q, p in zip(queries, prompts)]
