"""Property: ``LIKE`` matches exactly the strings the seed translation does.

The selector compiles each middle segment of a ``LIKE`` pattern as an
atomic group so that matching is linear in the value
(``repro.events.selector._like_to_regex``); the seed turned every ``%`` into
``.*`` (``tests/reference/like.py``). Over short patterns and values on a
small alphabet, with and without ``ESCAPE``, the two agree on every match
and on every pattern they refuse.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.selector import Selector
from repro.exceptions import SelectorSyntaxError

from tests.reference.like import like_to_regex

_patterns = st.text(alphabet="ab%_!", max_size=8)
_values = st.lists(st.text(alphabet="ab%_!\n", max_size=8), max_size=6)
_escapes = st.sampled_from((None, "!", "%", "_", "a"))


def _seed_matcher(pattern, escape):
    try:
        return like_to_regex(pattern, escape).fullmatch
    except SelectorSyntaxError:
        return None


@settings(max_examples=1000)
@given(_patterns, _escapes, _values)
def test_like_matches_what_the_seed_translation_matches(pattern, escape, values):
    text = f"x LIKE '{pattern}'" + (f" ESCAPE '{escape}'" if escape else "")
    seed = _seed_matcher(pattern, escape)
    try:
        selector = Selector(text)
    except SelectorSyntaxError:
        assert seed is None
        return
    assert seed is not None
    for value in values:
        assert selector.matches({"x": value}) is (seed(value) is not None)
