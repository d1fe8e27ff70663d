"""Locked-in SQL-92 selector semantics (paper §4.2).

These tests pin down the three-valued logic and ``LIKE ... ESCAPE``
corner cases against literal expected values. They were written before
the evaluator was switched to compiled closures and cross-checked the
two while both existed; the closures are now the only evaluator and
these literals are its specification.
"""

import pytest

from repro.events.selector import Selector, parse_selector
from repro.exceptions import SelectorSyntaxError


def matches(text: str, attributes: dict) -> bool:
    return Selector(text).matches(attributes)


class TestThreeValuedLogic:
    """SQL three-valued semantics: UNKNOWN propagates; only TRUE matches."""

    def test_unknown_comparison_is_not_a_match(self):
        assert matches("missing = 'x'", {}) is False
        assert matches("missing <> 'x'", {}) is False
        assert matches("missing < 3", {}) is False

    def test_not_unknown_stays_unknown(self):
        # NOT UNKNOWN is UNKNOWN, which is still not a match.
        assert matches("NOT missing = 'x'", {}) is False
        assert matches("NOT (missing = 'x')", {}) is False

    def test_and_short_circuits_false_over_unknown(self):
        # FALSE AND UNKNOWN = FALSE (not UNKNOWN) — in either order.
        assert matches("a = 'no' AND missing = 'x'", {"a": "yes"}) is False
        assert matches("missing = 'x' AND a = 'no'", {"a": "yes"}) is False
        # ...so its negation is TRUE, which *is* a match.
        assert matches("NOT (a = 'no' AND missing = 'x')", {"a": "yes"}) is True

    def test_and_true_with_unknown_is_unknown(self):
        assert matches("a = 'yes' AND missing = 'x'", {"a": "yes"}) is False
        assert matches("NOT (a = 'yes' AND missing = 'x')", {"a": "yes"}) is False

    def test_or_short_circuits_true_over_unknown(self):
        # TRUE OR UNKNOWN = TRUE — in either order.
        assert matches("a = 'yes' OR missing = 'x'", {"a": "yes"}) is True
        assert matches("missing = 'x' OR a = 'yes'", {"a": "yes"}) is True

    def test_or_false_with_unknown_is_unknown(self):
        assert matches("a = 'no' OR missing = 'x'", {"a": "yes"}) is False
        assert matches("NOT (a = 'no' OR missing = 'x')", {"a": "yes"}) is False

    def test_unknown_arithmetic_propagates(self):
        assert matches("missing + 1 > 0", {}) is False
        assert matches("n / 0 = 4", {"n": "8"}) is False  # division by zero → UNKNOWN
        assert matches("n / 0 <> 4", {"n": "8"}) is False

    def test_between_with_unknown_bound(self):
        assert matches("n BETWEEN 1 AND 10", {"n": "5"}) is True
        assert matches("n BETWEEN 1 AND 10", {}) is False
        assert matches("n NOT BETWEEN 1 AND 10", {}) is False  # NOT UNKNOWN = UNKNOWN
        assert matches("n BETWEEN lo AND 10", {"n": "5"}) is False

    def test_in_with_unknown_operand(self):
        assert matches("city IN ('x', 'y')", {}) is False
        assert matches("city NOT IN ('x', 'y')", {}) is False

    def test_is_null_is_two_valued(self):
        assert matches("missing IS NULL", {}) is True
        assert matches("missing IS NOT NULL", {}) is False
        assert matches("present IS NULL", {"present": ""}) is False
        assert matches("present IS NOT NULL", {"present": ""}) is True

    def test_null_literal_comparisons_are_unknown(self):
        assert matches("a = NULL", {"a": "x"}) is False
        assert matches("a <> NULL", {"a": "x"}) is False
        assert matches("NULL IS NULL", {}) is True

    def test_boolean_identity_semantics(self):
        assert matches("flag = TRUE", {"flag": "whatever"}) is False
        assert matches("TRUE = TRUE", {}) is True
        assert matches("TRUE <> FALSE", {}) is True
        # Booleans never order-compare: result is UNKNOWN.
        assert matches("TRUE > FALSE", {}) is False

    def test_numeric_coercion_failure(self):
        # String that cannot coerce vs a number: '=' is FALSE, '<>' is TRUE,
        # ordering comparisons are UNKNOWN.
        assert matches("a = 3", {"a": "pear"}) is False
        assert matches("a <> 3", {"a": "pear"}) is True
        assert matches("a < 3", {"a": "pear"}) is False
        assert matches("NOT a < 3", {"a": "pear"}) is False


class TestLikeEscape:
    """``LIKE ... ESCAPE`` edge cases."""

    def test_escaped_underscore_is_literal(self):
        assert matches("name LIKE 'a!_b' ESCAPE '!'", {"name": "a_b"}) is True
        assert matches("name LIKE 'a!_b' ESCAPE '!'", {"name": "axb"}) is False

    def test_escaped_percent_is_literal(self):
        assert matches("name LIKE '100!%' ESCAPE '!'", {"name": "100%"}) is True
        assert matches("name LIKE '100!%' ESCAPE '!'", {"name": "100 percent"}) is False

    def test_escaped_escape_character(self):
        assert matches("path LIKE 'a!!b' ESCAPE '!'", {"path": "a!b"}) is True
        assert matches("path LIKE 'a!!b' ESCAPE '!'", {"path": "ab"}) is False

    def test_escape_of_ordinary_character(self):
        # Escaping a non-wildcard yields that character literally.
        assert matches("name LIKE '!ab' ESCAPE '!'", {"name": "ab"}) is True

    def test_backslash_escape_character(self):
        assert matches(r"name LIKE 'a\%' ESCAPE '\'", {"name": "a%"}) is True
        assert matches(r"name LIKE 'a\%' ESCAPE '\'", {"name": "abc"}) is False

    def test_percent_matches_newlines(self):
        assert matches("body LIKE 'a%b'", {"body": "a\nx\nb"}) is True

    def test_percent_matches_empty(self):
        assert matches("name LIKE 'a%b'", {"name": "ab"}) is True

    def test_underscore_matches_exactly_one(self):
        assert matches("name LIKE 'a_'", {"name": "ab"}) is True
        assert matches("name LIKE 'a_'", {"name": "a"}) is False
        assert matches("name LIKE 'a_'", {"name": "abc"}) is False

    def test_like_on_missing_attribute_is_unknown(self):
        assert matches("name LIKE 'a%'", {}) is False
        assert matches("name NOT LIKE 'a%'", {}) is False

    def test_not_like_with_escape(self):
        assert matches("name NOT LIKE 'a!_%' ESCAPE '!'", {"name": "aXc"}) is True
        assert matches("name NOT LIKE 'a!_%' ESCAPE '!'", {"name": "a_c"}) is False

    def test_dangling_escape_rejected(self):
        with pytest.raises(SelectorSyntaxError):
            Selector("name LIKE 'abc!' ESCAPE '!'")

    def test_multicharacter_escape_rejected(self):
        with pytest.raises(SelectorSyntaxError):
            Selector("name LIKE 'a' ESCAPE '!!'")

    def test_like_is_case_sensitive(self):
        assert matches("name LIKE 'Ab%'", {"name": "Abc"}) is True
        assert matches("name LIKE 'Ab%'", {"name": "abc"}) is False

    def test_regex_metacharacters_are_literal(self):
        assert matches("name LIKE 'a.c'", {"name": "a.c"}) is True
        assert matches("name LIKE 'a.c'", {"name": "abc"}) is False
        assert matches("name LIKE '(x)%'", {"name": "(x)y"}) is True


class TestParseCache:
    def test_repeated_parse_is_cached(self):
        first = parse_selector("type = 'cancer' AND stage > 1")
        second = parse_selector("type = 'cancer' AND stage > 1")
        assert first is not None and second is not None
        # Selectors are immutable, so the parse cache may (and should)
        # return the same object for repeated STOMP selector headers.
        assert first is second

    def test_empty_still_none(self):
        assert parse_selector(None) is None
        assert parse_selector("   ") is None
