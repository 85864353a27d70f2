import io
import json
import threading
import time

import pytest

from supportgen.errors import DataFormatError, ExternalServiceError, ParaphraseError
from supportgen.paraphrase import (
    OBJECT_PLACEHOLDER,
    PROMPT_MODES,
    HttpTransport,
    ParaphraseClient,
    build_prompt,
    check_retention,
    parse_response,
    templatize,
)

# canned model output for "pull a circle hesitantly", used as a retention fixture
HESITANT_CIRCLE_PARAPHRASES = [
    "Hesitantly pull a circle",
    "Pull a circle with hesitation",
    "Gently pull a circle",
    "Pull a circle slowly and cautiously",
    "Approach the circle and pull it hesitantly",
    "Pull the circle with care",
    "Pull the circle slowly and carefully",
    "Take your time and pull the circle hesitantly",
    "Pull the circle with a bit of hesitation",
    "Approach the circle and pull it gently",
    "Pull the circle with caution",
    "Pull the circle carefully and hesitantly",
    "Slowly pull the circle with hesitation",
    "Pull the circle with a sense of caution",
    "Pull the circle with a bit of reluctance",
    "Pull the circle slowly and with care",
    "Hesitate before pulling the circle",
    "Pull the circle with a gentle touch",
    "Pull the circle with a bit of apprehension",
    "Pull the circle with a sense of uncertainty",
    "Pull the circle with a bit of nervousness",
    "Pull the circle with a bit of trepidation",
    "Pull the circle with a sense of hesitation",
    "Pull the circle with a bit of doubt",
    "Pull the circle with a bit of reservation",
]


class TestBuildPrompt:
    def test_simple_mode_contains_ten_exemplars(self):
        prompt = build_prompt("simple", "push a red square")
        mode = PROMPT_MODES["simple"]
        for i, example in enumerate(mode.examples, start=1):
            assert f"{i}. {example}" in prompt
        assert 'Can you generate 25 similar statements for "push a red square" in English?' \
            in prompt

    def test_quotes_escaped_single_substitution(self):
        prompt = build_prompt("simple", 'push a "red" square')
        assert 'push a \\"red\\" square' in prompt
        assert prompt.count("25 similar statements") == 1

    def test_all_modes_have_preambles(self):
        for name, mode in PROMPT_MODES.items():
            prompt = build_prompt(name, "pull a circle")
            assert mode.seed_instruction in prompt
            assert len(mode.examples) == 10

    def test_template_mode_replaces_description(self):
        prompt = build_prompt("simple", "push a red square", template_mode=True)
        assert f"push a {OBJECT_PLACEHOLDER}" in prompt
        assert "red square" not in prompt.splitlines()[-1]

    def test_templatize_longest_run(self):
        assert templatize("walk to a small yellow cylinder hesitantly") == \
            f"walk to a {OBJECT_PLACEHOLDER} hesitantly"
        assert templatize("no description words here") == "no description words here"

    def test_deterministic(self):
        assert build_prompt("adverb", "pull a circle") == build_prompt("adverb", "pull a circle")


class TestParseResponse:
    def test_canned_fixture_parses_fully(self):
        text = "\n".join(f"{i}. {p}" for i, p in
                         enumerate(HESITANT_CIRCLE_PARAPHRASES, start=1))
        items = parse_response(text)
        assert len(items) == 25
        assert items[0] == "Hesitantly pull a circle"

    def test_two_items(self):
        assert parse_response("1. a\n2. b") == ["a", "b"]

    def test_prose_without_numbering(self):
        with pytest.raises(ParaphraseError):
            parse_response("here are some thoughts\nwith no list at all")

    def test_trailing_period_stripped(self):
        assert parse_response("1. Walk to the circle.") == ["Walk to the circle"]

    def test_round_trip_of_numbered_list(self):
        items = ["alpha beta", "gamma", "delta epsilon zeta"]
        text = "\n".join(f"{i}. {p}" for i, p in enumerate(items, start=1))
        assert parse_response(text) == items

    def test_parenthesis_numbering(self):
        assert parse_response("1) first\n2) second") == ["first", "second"]


class TestCheckRetention:
    def test_positive_example(self):
        assert check_retention("walk to a small yellow cylinder",
                               "Walk hesitantly to a small yellow cylinder")

    def test_negative_example(self):
        assert not check_retention("walk to a small yellow cylinder",
                                   "approach the big red box")

    def test_fixture_retention_rate_is_full(self):
        original = "pull a circle hesitantly"
        assert all(check_retention(original, p) for p in HESITANT_CIRCLE_PARAPHRASES)
        assert sum(check_retention(original, p)
                   for p in HESITANT_CIRCLE_PARAPHRASES) == 25

    def test_case_insensitive(self):
        assert check_retention("push a RED square", "Shove the Red Square")

    def test_synonym_table(self):
        assert not check_retention("push a red square", "push the crimson box")
        assert check_retention("push a red square", "push the crimson box",
                               synonyms={"red": ["crimson"], "square": ["box"]})

    def test_substring_words_do_not_count(self):
        # "circles" should not satisfy "circle" ... word boundary applies
        assert check_retention("pull a circle", "pull the circle already")
        assert not check_retention("pull a red circle", "pull the circlet")


class FakeTransport:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return self.replies.pop(0)


class TestParaphraseClient:
    def test_parses_and_checks_retention(self):
        reply = "\n".join(f"{i}. {p}" for i, p in
                          enumerate(HESITANT_CIRCLE_PARAPHRASES, start=1))
        client = ParaphraseClient(FakeTransport([reply]))
        record = client.paraphrase_many("simple", ["pull a circle hesitantly"])[0]
        assert len(record.paraphrases) == 25
        assert all(record.retained)

    def test_cache_makes_runs_resumable(self, tmp_path):
        cache = tmp_path / "cache.json"
        reply = "1. Pull the circle\n2. Drag a circle"
        transport = FakeTransport([reply])
        client = ParaphraseClient(transport, cache_path=cache)
        client.paraphrase_many("simple", ["pull a circle"])
        assert transport.calls == 1
        again = ParaphraseClient(FakeTransport([]), cache_path=cache)
        record = again.paraphrase_many("simple", ["pull a circle"])[0]
        assert record.paraphrases == ["Pull the circle", "Drag a circle"]

    def test_cache_is_keyed_by_prompt(self):
        transport = FakeTransport(["1. Pull the circle", "1. Carefully pull the circle"])
        client = ParaphraseClient(transport)
        simple = client.paraphrase_many("simple", ["pull a circle"])[0]
        adverb = client.paraphrase_many("adverb", ["pull a circle"])[0]
        assert transport.calls == 2
        assert simple.paraphrases == ["Pull the circle"]
        assert adverb.paraphrases == ["Carefully pull the circle"]

    def test_paraphrase_many_order_preserved(self):
        replies = ["1. Pull the circle", "1. Push the square"]
        client = ParaphraseClient(FakeTransport(replies), max_workers=1)
        records = client.paraphrase_many("simple", ["pull a circle", "push a square"])
        assert [r.original for r in records] == ["pull a circle", "push a square"]

    @pytest.mark.parametrize("template_mode", [False, True])
    def test_paraphrase_many_requests_each_prompt_once(self, template_mode):
        class SlowCountingTransport:
            def __init__(self):
                self.prompts = []
                self.lock = threading.Lock()

            def complete(self, prompt):
                with self.lock:
                    self.prompts.append(prompt)
                time.sleep(0.1)
                return "1. Push the red square\n2. Shove a blue circle"

        queries = ["push a red square"] * 8 + ["push a blue circle"] * 3 + ["pull a circle"]
        transport = SlowCountingTransport()
        client = ParaphraseClient(transport, max_workers=4)
        records = client.paraphrase_many("simple", queries, template_mode=template_mode)
        prompts = [build_prompt("simple", q, template_mode=template_mode) for q in queries]
        assert sorted(transport.prompts) == sorted(set(prompts))
        assert len(transport.prompts) == (2 if template_mode else 3)
        assert [r.original for r in records] == queries
        assert [r.retained for r in records] == [
            [check_retention(q, p) for p in r.paraphrases] for q, r in zip(queries, records)]
        assert records[0].retained == [True, False] and records[8].retained == [False, True]

    def test_concurrent_cache_writes_keep_every_prompt(self, tmp_path):
        cache = tmp_path / "cache.json"
        queries = [f"pull a circle {i}" for i in range(200)]
        transport = FakeTransport([f"1. Pull circle {i}" for i in range(200)])
        client = ParaphraseClient(transport, cache_path=cache, max_workers=8)
        client.paraphrase_many("simple", queries)
        stored = json.loads(cache.read_text(encoding="utf-8"))["paraphrases"]
        assert set(stored) == {build_prompt("simple", q) for q in queries}
        assert list(tmp_path.iterdir()) == [cache]  # no temp file left behind
        again = ParaphraseClient(FakeTransport([]), cache_path=cache)
        assert len(again.paraphrase_many("simple", queries)) == 200

    def test_missing_cache_directory_fails_before_any_request(self, tmp_path):
        transport = FakeTransport(["1. Pull the circle"])
        with pytest.raises(FileNotFoundError, match="does not exist"):
            client = ParaphraseClient(transport, cache_path=tmp_path / "no_dir" / "cache.json")
            client.paraphrase_many("simple", ["pull a circle"])
        assert transport.calls == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", [
        "[]", '"cache"', "not json", '{"paraphrases": []}', '{"paraphrases": {"p": 3}}',
        '{"paraphrases": {"p": "Pull the circle"}}', '{"paraphrases": {"p": ["ok", 3]}}',
    ])
    def test_malformed_cache_is_data_error_before_any_request(self, tmp_path, text):
        cache = tmp_path / "cache.json"
        cache.write_text(text, encoding="utf-8")
        transport = FakeTransport(["1. Pull the circle"])
        with pytest.raises(DataFormatError):
            client = ParaphraseClient(transport, cache_path=cache)
            client.paraphrase_many("simple", ["pull a circle"])
        assert transport.calls == 0

    def test_valid_cache_loads(self, tmp_path):
        cache = tmp_path / "cache.json"
        prompt = build_prompt("simple", "pull a circle")
        cache.write_text(json.dumps({"paraphrases": {prompt: ["Pull the circle"]},
                                     "metadata": {}}), encoding="utf-8")
        transport = FakeTransport([])
        client = ParaphraseClient(transport, cache_path=cache)
        record = client.paraphrase_many("simple", ["pull a circle"])[0]
        assert record.paraphrases == ["Pull the circle"]
        assert transport.calls == 0
        cache.write_text("{}", encoding="utf-8")  # no entries yet
        transport = FakeTransport(["1. Drag a circle"])
        client = ParaphraseClient(transport, cache_path=cache)
        record = client.paraphrase_many("simple", ["pull a circle"])[0]
        assert record.paraphrases == ["Drag a circle"]


class TestHttpTransport:
    def test_requires_endpoint(self, monkeypatch):
        from supportgen.paraphrase import ENDPOINT_ENV, HttpTransport

        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        with pytest.raises(ExternalServiceError):
            HttpTransport()

    def test_retries_then_fails(self, monkeypatch):
        sleeps = []
        transport = HttpTransport(endpoint="http://localhost:1/nope", retries=3,
                                  backoff=0.5, timeout=0.1,
                                  sleep=lambda s: sleeps.append(s))
        with pytest.raises(ExternalServiceError):
            transport.complete("hello")
        assert sleeps == [0.5, 1.0]  # retries - 1: no sleep after the last attempt

    @pytest.mark.parametrize("body", [b"not json", b"{}", b'{"choices": []}',
                                      b'{"choices": [{"message": null}]}'])
    def test_malformed_body_fails_at_once(self, monkeypatch, body):
        from supportgen import paraphrase

        attempts = []

        def urlopen(request, timeout):
            attempts.append(request)
            return io.BytesIO(body)

        monkeypatch.setattr(paraphrase.urllib.request, "urlopen", urlopen)
        sleeps = []
        transport = HttpTransport(endpoint="http://localhost:1/nope", retries=3,
                                  sleep=sleeps.append)
        with pytest.raises(ExternalServiceError):
            transport.complete("hello")
        assert len(attempts) == 1 and sleeps == []
