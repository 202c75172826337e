"""Tests for the aspect taxonomy and its phrase banks."""

import pytest

from repro.utils import textproc
from repro.world.aspects import (
    _DIRECTIVE_TABLE,
    ASPECTS,
    _distinctive_fragment,
    aspect_names,
    find_cues,
    find_markers,
    parse_directives,
    render_directive,
)
from repro.world.quality import FLAW_MARKERS


class TestRegistry:
    def test_fourteen_aspects(self):
        assert len(aspect_names()) == 14

    def test_names_unique(self):
        names = aspect_names()
        assert len(names) == len(set(names))

    def test_every_aspect_has_all_banks(self):
        for aspect in ASPECTS.values():
            assert aspect.cue_phrases
            assert aspect.directive_templates
            assert aspect.marker_phrases

    def test_weights_positive(self):
        assert all(a.weight > 0 for a in ASPECTS.values())


class TestDirectiveRoundtrip:
    @pytest.mark.parametrize("name", aspect_names())
    def test_render_parses_back_to_exactly_one_aspect(self, name):
        for variant in range(len(ASPECTS[name].directive_templates)):
            text = render_directive(name, variant)
            assert parse_directives(text) == {name}

    def test_variant_wraps_around(self):
        name = aspect_names()[0]
        n = len(ASPECTS[name].directive_templates)
        assert render_directive(name, 0) == render_directive(name, n)

    def test_combined_directives_parse_to_union(self):
        text = render_directive("depth") + " " + render_directive("examples")
        assert parse_directives(text) == {"depth", "examples"}

    def test_parse_none(self):
        assert parse_directives(None) == set()
        assert parse_directives("") == set()
        assert parse_directives("plain text with no directives") == set()

    def test_parse_insensitive_to_punctuation(self):
        text = render_directive("logic_trap", 2)  # contains "Re-read"
        assert parse_directives(text.replace("-", " ")) == {"logic_trap"}


class TestFindCues:
    @pytest.mark.parametrize("name", aspect_names())
    def test_every_cue_phrase_detected(self, name):
        for cue in ASPECTS[name].cue_phrases:
            hits = find_cues(f"something {cue} something")
            assert name in hits

    def test_no_cues_in_neutral_text(self):
        assert find_cues("the weather is nice today") == {}

    def test_returns_matched_phrase(self):
        hits = find_cues("please explain it in detail")
        assert hits["depth"] == "in detail"

    def test_word_boundary_respected(self):
        # "in detailing" should not match the cue "in detail".
        assert "depth" not in find_cues("we are in detailing mode")


class TestFindMarkers:
    @pytest.mark.parametrize("name", aspect_names())
    def test_every_marker_detected(self, name):
        for marker in ASPECTS[name].marker_phrases:
            assert name in find_markers(f"response text {marker} more text")

    def test_neutral_text_has_no_markers(self):
        assert find_markers("plain unremarkable sentence") == set()


class TestBankSeparation:
    """Directive fragments must be unique across aspects (parse integrity),
    and every bank phrase must be able to match at all."""

    def test_directive_fragments_unique(self):
        # The compiled table is every template's fragment, in bank order.
        assert list(_DIRECTIVE_TABLE) == [
            (f" {_distinctive_fragment(template)} ", aspect.name)
            for aspect in ASPECTS.values()
            for template in aspect.directive_templates
        ]
        seen = {}
        for frag, name in _DIRECTIVE_TABLE:
            assert frag not in seen or seen[frag] == name, (
                f"fragment {frag!r} collides between {seen.get(frag)} and {name}"
            )
            seen[frag] = name

    def test_phrases_are_in_wordstream_form(self):
        # Matching runs on padded wordstreams, so a phrase that is not its
        # own wordstream (capitals, punctuation, hyphens, double spaces)
        # would silently never match.
        phrases = [
            phrase
            for aspect in ASPECTS.values()
            for phrase in (*aspect.cue_phrases, *aspect.marker_phrases)
        ] + list(FLAW_MARKERS)
        assert [p for p in phrases if textproc.wordstream(p) != p] == []
