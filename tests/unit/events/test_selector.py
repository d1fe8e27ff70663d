"""Unit tests for the SQL-92 subscription selector language."""

import pytest

from repro.events.selector import MAX_SELECTOR_DEPTH, Selector, parse_selector
from repro.exceptions import SelectorSyntaxError

ATTRS = {
    "type": "cancer",
    "hospital": "addenbrookes",
    "age": "61",
    "stage": "2",
    "score": "3.5",
    "name": "O'Brien",
}


def matches(text, attributes=ATTRS):
    return Selector(text).matches(attributes)


class TestComparisons:
    def test_string_equality(self):
        assert matches("type = 'cancer'")
        assert not matches("type = 'benign'")

    def test_inequality(self):
        assert matches("type <> 'benign'")
        assert not matches("type <> 'cancer'")

    def test_numeric_comparisons(self):
        assert matches("age > 60")
        assert matches("age >= 61")
        assert matches("age < 62")
        assert matches("age <= 61")
        assert not matches("age > 61")

    def test_numeric_equality_coerces_strings(self):
        assert matches("age = 61")
        assert matches("score = 3.5")

    def test_string_quote_escaping(self):
        assert matches("name = 'O''Brien'")

    def test_non_numeric_string_vs_number(self):
        assert not matches("type = 1")
        assert matches("type <> 1")

    def test_missing_attribute_is_unknown(self):
        assert not matches("missing = 'x'")
        assert not matches("missing <> 'x'")


class TestLogic:
    def test_and_or(self):
        assert matches("type = 'cancer' AND age > 60")
        assert not matches("type = 'cancer' AND age > 99")
        assert matches("type = 'benign' OR age > 60")
        assert not matches("type = 'benign' OR age > 99")

    def test_not(self):
        assert matches("NOT type = 'benign'")
        assert not matches("NOT type = 'cancer'")

    def test_precedence_and_binds_tighter(self):
        # a OR b AND c  ==  a OR (b AND c)
        assert matches("type = 'benign' OR type = 'cancer' AND age > 60")
        assert not matches("(type = 'benign' OR type = 'cancer') AND age > 99")

    def test_three_valued_logic(self):
        # unknown AND false = false → NOT(false) = true
        assert matches("NOT (missing = 'x' AND type = 'benign')")
        # unknown OR true = true
        assert matches("missing = 'x' OR type = 'cancer'")
        # NOT unknown = unknown → no match
        assert not matches("NOT missing = 'x'")

    def test_case_insensitive_keywords(self):
        assert matches("type = 'cancer' and age > 60")
        assert matches("not type = 'benign'")


class TestRangeAndSet:
    def test_between(self):
        assert matches("age BETWEEN 60 AND 65")
        assert not matches("age BETWEEN 62 AND 65")

    def test_not_between(self):
        assert matches("age NOT BETWEEN 62 AND 65")

    def test_in(self):
        assert matches("hospital IN ('addenbrookes', 'papworth')")
        assert not matches("hospital IN ('papworth')")

    def test_not_in(self):
        assert matches("hospital NOT IN ('papworth')")

    def test_in_with_missing_attribute(self):
        assert not matches("missing IN ('x')")
        assert not matches("missing NOT IN ('x')")


class TestLike:
    def test_percent(self):
        assert matches("hospital LIKE 'adden%'")
        assert matches("hospital LIKE '%brookes'")
        assert not matches("hospital LIKE 'pap%'")

    def test_underscore(self):
        assert matches("stage LIKE '_'")
        assert not matches("age LIKE '_'")

    def test_escape(self):
        attrs = {"code": "100%"}
        assert Selector(r"code LIKE '100!%' ESCAPE '!'").matches(attrs)
        assert not Selector(r"code LIKE '100!%' ESCAPE '!'").matches({"code": "1000"})

    def test_not_like(self):
        assert matches("hospital NOT LIKE 'pap%'")


class TestNullTests:
    def test_is_null(self):
        assert matches("missing IS NULL")
        assert not matches("type IS NULL")

    def test_is_not_null(self):
        assert matches("type IS NOT NULL")
        assert not matches("missing IS NOT NULL")


class TestArithmetic:
    def test_addition(self):
        assert matches("age + 1 = 62")

    def test_precedence(self):
        assert matches("age + 2 * 2 = 65")
        assert matches("(age + 2) * 2 = 126")

    def test_unary_minus(self):
        assert matches("-age = -61")
        assert matches("+age = 61")

    def test_division_by_zero_is_unknown(self):
        assert not matches("age / 0 = 1")
        assert not matches("NOT age / 0 = 1")


class TestBooleans:
    def test_boolean_literals(self):
        assert matches("TRUE")
        assert not matches("FALSE")

    def test_boolean_attribute_comparison(self):
        assert Selector("flag = TRUE").matches({"flag": True})


class TestParsing:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "type =",
            "= 'x'",
            "type = 'unterminated",
            "type LIKE missing_quotes",
            "age BETWEEN 1",
            "hospital IN ()",
            "hospital IN ('a'",
            "type @ 'x'",
            "type = 'x' extra",
            "NOT",
            "age NOT 5",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SelectorSyntaxError):
            Selector(bad)

    def test_parse_selector_none_for_empty(self):
        assert parse_selector(None) is None
        assert parse_selector("  ") is None
        assert parse_selector("TRUE") is not None

    def test_repr(self):
        assert "type" in repr(Selector("type = 'cancer'"))


#: Each raised RecursionError on an unbounded parser: the first two when
#: parsed, the flat chains on every evaluation, inside the broker's loop.
TOO_DEEP = {
    "400 parentheses": "(" * 400 + "type = 'cancer'" + ")" * 400,
    "2000 NOTs": "NOT " * 2000 + "type = 'cancer'",
    "2000 ANDed terms": " AND ".join(["type = 'cancer'"] * 2000),
    "2000 ORed terms": " OR ".join(["type = 'cancer'"] * 2000),
    "2000 summed terms": " + ".join(["age"] * 2000) + " > 1",
}

#: Per construct: its selector at *n* levels, and the most levels the bound
#: admits. Parentheses count as nesting only; ``NOT``, signs and ``AND``
#: build closures, so the comparison under them counts towards the
#: compiled tree's depth too.
AT_THE_BOUND = {
    "parentheses": (
        lambda n: "(" * n + "type = 'cancer'" + ")" * n,
        MAX_SELECTOR_DEPTH,
    ),
    "NOTs": (lambda n: "NOT " * n + "type = 'cancer'", MAX_SELECTOR_DEPTH - 2),
    "ANDed terms": (lambda n: " AND ".join(["type = 'cancer'"] * n), MAX_SELECTOR_DEPTH - 1),
    "signs": (lambda n: "-" * n + "age <> 0", MAX_SELECTOR_DEPTH - 2),
}


class TestDepthBound:
    @pytest.mark.parametrize("text", TOO_DEEP.values(), ids=list(TOO_DEEP))
    def test_too_deep_is_a_syntax_error(self, text):
        with pytest.raises(SelectorSyntaxError, match="nested deeper than"):
            Selector(text)

    @pytest.mark.parametrize("construct", AT_THE_BOUND.values(), ids=list(AT_THE_BOUND))
    def test_the_bound_is_exact(self, construct):
        build, most = construct
        assert Selector(build(most)).matches(ATTRS) in (True, False)
        with pytest.raises(SelectorSyntaxError):
            Selector(build(most + 1))

    def test_a_refused_subscriber_leaves_the_topic_working(self):
        """The bad subscriber comes first; the good one still receives."""
        from repro.events import Broker, Event

        broker = Broker()
        received = []
        for text in TOO_DEEP.values():
            with pytest.raises(SelectorSyntaxError):
                broker.subscribe("/reports", received.append, selector=text)
        broker.subscribe("/reports", received.append, selector="type = 'cancer'")
        assert broker.publish(Event("/reports", ATTRS)) == 1
        assert len(received) == 1 and len(broker) == 1
