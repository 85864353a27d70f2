import pytest

from supportgen.errors import GrammarError, LexicalError, UnresolvableError
from supportgen.grammar import (
    INSTRUCTIONS,
    LEXICON,
    REALIZED,
    Instruction,
    TargetResolution,
    WORD_CODES,
    command_string,
    encode_words,
    ground_descriptions,
    parse,
    parse_command_string,
    realize,
    resolve_target,
)
from supportgen.world import AgentPose, Heading, ObjectSpec, Position, WorldState

import generation_reference


def sentences():
    """The token tuples parse accepts: the 675 canonical realizations and,
    for the 360 instructions with both a size and a color word, the tuple
    with those two words swapped."""
    out = list(REALIZED)
    for tokens, instr in zip(REALIZED, INSTRUCTIONS):
        if instr.size_word and instr.color_word:
            swap = {instr.size_word: instr.color_word, instr.color_word: instr.size_word}
            out.append(tuple(swap.get(t, t) for t in tokens))
    return out


def edits(tokens, vocabulary):
    """Every one-token insertion, substitution and deletion of `tokens`."""
    for i in range(len(tokens) + 1):
        for word in vocabulary:
            yield tokens[:i] + (word,) + tokens[i:]
    for i in range(len(tokens)):
        for word in vocabulary:
            yield tokens[:i] + (word,) + tokens[i + 1:]
        yield tokens[:i] + tokens[i + 1:]


def outcome(fn, tokens):
    """fn(tokens), or the class of the exception it raises."""
    try:
        return fn(list(tokens))
    except Exception as exc:  # the class is the compared outcome
        return type(exc)


class TestParse:
    def test_simple(self):
        assert parse(["walk", "to", "a", "red", "circle"]) == Instruction(
            "walk_to", None, "red", "circle", None)

    def test_full_form(self):
        got = parse(["pull", "a", "small", "yellow", "cylinder", "while", "spinning"])
        assert got == Instruction("pull", "small", "yellow", "cylinder", "while_spinning")

    def test_color_size_order_tolerated(self):
        got = parse(["pull", "a", "yellow", "small", "cylinder", "hesitantly"])
        assert got == Instruction("pull", "small", "yellow", "cylinder", "hesitantly")

    def test_order_violation(self):
        with pytest.raises(GrammarError):
            parse(["push", "circle", "a"])

    def test_unknown_token(self):
        with pytest.raises(LexicalError):
            parse(["walk", "to", "a", "scarlet", "circle"])

    @pytest.mark.parametrize("tokens", [
        [],
        ["walk", "a", "circle"],
        ["push", "a", "red"],
        ["push", "a", "red", "circle", "while"],
        ["push", "a", "small", "small", "circle"],
        ["push", "a", "red", "blue", "circle"],
        ["push", "a", "circle", "push"],
    ])
    def test_malformed(self, tokens):
        with pytest.raises(GrammarError):
            parse(tokens)

    @pytest.mark.pins
    def test_lexicon_equals_reference(self):
        assert LEXICON == generation_reference.LEXICON

    @pytest.mark.pins
    def test_parse_equals_reference_on_sentences_and_edits(self):
        """On every accepted sentence and every one-token edit of one over
        the lexicon plus an unknown word, parse gives the reference's
        instruction or raises the reference's exception class."""
        keys = sentences()
        assert len(set(keys)) == 1035
        vocabulary = sorted(generation_reference.LEXICON) + ["foo"]
        for key in keys:
            assert isinstance(parse(list(key)), Instruction)
            for tokens in [key, *edits(key, vocabulary)]:
                assert outcome(parse, tokens) == outcome(generation_reference.parse, tokens)

    @pytest.mark.pins
    def test_parse_equals_reference_on_random_lists(self):
        import numpy as np

        vocabulary = sorted(generation_reference.LEXICON) + ["foo"]
        rng = np.random.default_rng(13)
        for _ in range(20_000):
            tokens = [vocabulary[i] for i in rng.integers(len(vocabulary), size=rng.integers(10))]
            assert outcome(parse, tokens) == outcome(generation_reference.parse, tokens)


class TestRealize:
    def test_plain(self):
        assert realize(Instruction("walk_to", None, None, "square", None)) == [
            "walk", "to", "a", "square"]

    def test_full(self):
        got = realize(Instruction("push", "big", "blue", "cylinder", "while_spinning"))
        assert got == ["push", "a", "big", "blue", "cylinder", "while", "spinning"]

    @pytest.mark.pins
    def test_round_trip_all_675(self):
        forms = list(INSTRUCTIONS)
        assert len(forms) == 675
        for instr in forms:
            assert parse(realize(instr)) is instr

    @pytest.mark.pins
    def test_command_string_round_trip(self):
        instr = Instruction("pull", "small", "yellow", "cylinder", "while_spinning")
        assert parse_command_string(command_string(instr)) == instr


class TestResolveTarget:
    def test_unique_match(self, s0):
        res = resolve_target(parse("walk to a red circle".split()), s0)
        assert res.object.pos == Position(4, 2)
        assert res.unique

    def test_relative_size(self, s0):
        res = resolve_target(parse("walk to a small circle".split()), s0)
        assert res.object.color == "red" and res.object.size == 2

    def test_big_picks_largest(self, s0):
        res = resolve_target(parse("walk to a big circle".split()), s0)
        assert res.object.color == "green" and res.object.size == 4

    def test_unresolvable(self, s0):
        with pytest.raises(UnresolvableError):
            resolve_target(parse("pull a blue cylinder".split()), s0)

    def test_filters_respected(self, s0):
        for instr in INSTRUCTIONS:
            try:
                res = resolve_target(instr, s0)
            except UnresolvableError:
                continue
            assert res.object.shape == instr.shape_word
            if instr.color_word:
                assert res.object.color == instr.color_word

    def test_tie_break_position_ordered(self):
        state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST), (
            ObjectSpec("circle", "red", 2, Position(3, 4)),
            ObjectSpec("circle", "red", 2, Position(5, 1)),
            ObjectSpec("circle", "red", 2, Position(1, 1)),
        ))
        res = resolve_target(parse("walk to a red circle".split()), state)
        assert res.object.pos == Position(1, 1)  # lowest y, then lowest x
        assert not res.unique


def resolve_descriptions(state):
    """ground_descriptions as a mapping from each description to its
    TargetResolution, in its order."""
    return {description: TargetResolution(referent, unique)
            for description, referent, unique in ground_descriptions(state)}


class TestResolveDescriptions:
    @staticmethod
    def probe_all(state):
        """Reference: one resolve_target call per description, shape-major."""
        out = {}
        for shape in ("circle", "square", "cylinder"):
            for color in (None, "red", "green", "blue", "yellow"):
                for size in (None, "small", "big"):
                    try:
                        out[(size, color, shape)] = resolve_target(
                            Instruction("walk_to", size, color, shape, None), state)
                    except UnresolvableError:
                        pass
        return out

    def test_equal_to_resolve_target_in_order(self, s0):
        import numpy as np

        from conftest import random_state

        rng = np.random.default_rng(42)
        states = [s0] + [random_state(rng, max_objects=int(rng.integers(1, 20)))
                         for _ in range(500)]
        for state in states:
            want = self.probe_all(state)
            got = resolve_descriptions(state)
            assert list(got.items()) == list(want.items())

    def test_size_ties_break_on_position(self):
        state = WorldState(6, AgentPose(Position(0, 0), Heading.EAST), (
            ObjectSpec("square", "blue", 1, Position(4, 4)),
            ObjectSpec("square", "red", 1, Position(2, 3)),
            ObjectSpec("square", "red", 3, Position(5, 0)),
        ))
        got = resolve_descriptions(state)
        assert got[("small", None, "square")].object.pos == Position(2, 3)
        assert not got[("small", None, "square")].unique
        assert got[("big", None, "square")].unique
        assert got == self.probe_all(state)

    @pytest.mark.pins
    def test_ground_descriptions_equal_reference(self):
        """The grounding pass equals the reference copy in tests/
        generation_reference.py, entry by entry and in order: generation
        indexes its candidates in this order."""
        import numpy as np

        from conftest import random_state

        rng = np.random.default_rng(2024)
        for _ in range(600):
            grid = int(rng.integers(2, 8))
            state = random_state(rng, grid, max_objects=grid * grid - 1)
            want = [(description, res.object, res.unique) for description, res
                    in generation_reference.resolve_descriptions(state).items()]
            assert ground_descriptions(state) == want


class TestWordSymbols:
    def test_table_is_bijective(self):
        assert len(WORD_CODES) == 18
        assert sorted(WORD_CODES.values()) == list(range(18))

    def test_fixed_codes(self):
        assert WORD_CODES["a"] == 0
        assert WORD_CODES["while spinning"] == 15
        assert WORD_CODES["while zigzagging"] == 16
        assert WORD_CODES["yellow"] == 17

    def test_multiword_adverbs_merge(self):
        codes = encode_words(["pull", "a", "yellow", "small", "cylinder", "hesitantly"])
        assert codes == [8, 0, 17, 11, 5, 7]
        codes = encode_words(["push", "a", "green", "small", "square", "while", "spinning"])
        assert codes == [9, 0, 6, 11, 12, 15]

    @pytest.mark.pins
    def test_encode_words_equals_reference(self):
        """On every realized row and every one-token edit of an accepted
        sentence, encode_words gives the reference's codes or raises the
        reference's exception class."""
        vocabulary = sorted(generation_reference.LEXICON) + ["foo"]
        for tokens in REALIZED:
            assert encode_words(list(tokens)) == generation_reference.encode_words(list(tokens))
        for key in sentences():
            for tokens in edits(key, vocabulary):
                assert (outcome(encode_words, tokens)
                        == outcome(generation_reference.encode_words, tokens))
