"""SQL-92 subscription selectors (paper §4.2).

STOMP subscriptions may carry a ``selector`` header with an SQL-92
conditional expression evaluated over event attributes, mirroring JMS
message selectors. This module implements the subset web/event systems
use in practice:

* comparison: ``=  <>  <  <=  >  >=``
* logic: ``AND  OR  NOT`` (with SQL three-valued semantics)
* range/set: ``BETWEEN x AND y``, ``IN ('a', 'b')`` (with ``NOT``)
* pattern: ``LIKE 'pat%'`` with ``_``/``%`` wildcards and ``ESCAPE``
* null tests: ``IS NULL`` / ``IS NOT NULL``
* arithmetic: ``+  -  *  /`` and unary minus
* literals: strings in single quotes (doubled-quote escaping), integer
  and floating-point numbers, ``TRUE``/``FALSE``

Event attribute values are untyped strings (§4.1), so the evaluator
coerces them numerically when the other operand is numeric, as JMS
providers do for string-typed properties. A missing attribute evaluates
to SQL ``NULL``; the whole selector matches only when it evaluates to
``TRUE`` (unknown is not a match).
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import SelectorSyntaxError

#: A compiled evaluator: attributes → value (None is SQL NULL/UNKNOWN).
_Evaluator = Callable[[Mapping[str, str]], Any]

#: Bound on a selector's depth, checked while parsing twice: the compiled
#: tree's depth (one frame per level when the broker evaluates it on the
#: publisher's thread) and the parser's nesting of parentheses, ``NOT`` and
#: signs (up to eight frames per level). Unbounded, a few hundred levels
#: raised ``RecursionError`` at subscribe, or at every publish on the topic
#: for a long flat ``AND``/``OR``/``+`` chain. The package, its tests,
#: examples and corpus nest at most 4 deep, and the parser property's
#: 30-character inputs at most 30, so 64 refuses nothing written by hand
#: and keeps both walks far below the default recursion limit of 1000.
MAX_SELECTOR_DEPTH = 64

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><>|<=|>=|[=<>+\-*/(),])
  | (?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "NOT", "BETWEEN", "IN", "LIKE", "ESCAPE", "IS", "NULL", "TRUE", "FALSE"}


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Any):
        self.kind = kind  # 'number' | 'string' | 'op' | 'keyword' | 'name' | 'end'
        self.value = value

    def __repr__(self) -> str:
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SelectorSyntaxError(f"unexpected character {text[position]!r} at {position}")
        position = match.end()
        if match.lastgroup == "ws":
            continue
        if match.lastgroup == "number":
            raw = match.group("number")
            tokens.append(_Token("number", float(raw) if "." in raw else int(raw)))
        elif match.lastgroup == "string":
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("string", raw))
        elif match.lastgroup == "op":
            tokens.append(_Token("op", match.group("op")))
        else:
            name = match.group("name")
            if name.upper() in _KEYWORDS:
                tokens.append(_Token("keyword", name.upper()))
            else:
                tokens.append(_Token("name", name))
    tokens.append(_Token("end", None))
    return tokens


# ---------------------------------------------------------------------------
# Evaluators — the parser builds one closure per grammar node; each maps
# attributes to a value or to None (SQL NULL / unknown), with operators,
# choice sets and patterns resolved once at parse time so the delivery
# path pays no per-event tree walk or attribute re-lookup.
# ---------------------------------------------------------------------------


def _literal(value: Any) -> _Evaluator:
    return lambda attributes: value


def _attribute(name: str) -> _Evaluator:
    return lambda attributes: attributes.get(name)


def _as_number(value: Any) -> Optional[float]:
    if value is None or isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value))
    except ValueError:
        return None


_COMPARATOR_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _comparison(op: str, left: _Evaluator, right: _Evaluator) -> _Evaluator:
    """Three-valued comparison with JMS-style numeric coercion."""
    apply_op = _COMPARATOR_OPS[op]
    is_eq = op == "="
    is_ne = op == "<>"

    def compare(attributes: Mapping[str, str]) -> Optional[bool]:
        left_value, right_value = left(attributes), right(attributes)
        if left_value is None or right_value is None:
            return None
        if isinstance(left_value, bool) or isinstance(right_value, bool):
            if is_eq:
                return left_value is right_value
            if is_ne:
                return left_value is not right_value
            return None
        if isinstance(left_value, (int, float)) or isinstance(right_value, (int, float)):
            left_num, right_num = _as_number(left_value), _as_number(right_value)
            if left_num is None or right_num is None:
                return None if not (is_eq or is_ne) else is_ne
            return apply_op(left_num, right_num)
        return apply_op(str(left_value), str(right_value))

    return compare


def _arithmetic(op: str, left: _Evaluator, right: _Evaluator) -> _Evaluator:
    if op == "/":

        def divide(attributes: Mapping[str, str]) -> Optional[float]:
            left_num = _as_number(left(attributes))
            right_num = _as_number(right(attributes))
            if left_num is None or right_num is None or right_num == 0:
                return None
            return left_num / right_num

        return divide
    apply_op = _ARITHMETIC_OPS[op]

    def arith(attributes: Mapping[str, str]) -> Optional[float]:
        left_num = _as_number(left(attributes))
        right_num = _as_number(right(attributes))
        if left_num is None or right_num is None:
            return None
        return apply_op(left_num, right_num)

    return arith


def _negate(operand: _Evaluator) -> _Evaluator:
    def negate(attributes: Mapping[str, str]) -> Optional[float]:
        value = _as_number(operand(attributes))
        return None if value is None else -value

    return negate


def _not(operand: _Evaluator) -> _Evaluator:
    def invert(attributes: Mapping[str, str]) -> Optional[bool]:
        value = operand(attributes)
        if value is None:
            return None
        return not bool(value)

    return invert


def _and(left: _Evaluator, right: _Evaluator) -> _Evaluator:
    def conjoin(attributes: Mapping[str, str]) -> Optional[bool]:
        left_value = left(attributes)
        if left_value is False:
            return False
        right_value = right(attributes)
        if right_value is False:
            return False
        if left_value is None or right_value is None:
            return None
        return True

    return conjoin


def _or(left: _Evaluator, right: _Evaluator) -> _Evaluator:
    def disjoin(attributes: Mapping[str, str]) -> Optional[bool]:
        left_value = left(attributes)
        if left_value is True:
            return True
        right_value = right(attributes)
        if right_value is True:
            return True
        if left_value is None or right_value is None:
            return None
        return False

    return disjoin


def _between(operand: _Evaluator, low: _Evaluator, high: _Evaluator, negated: bool) -> _Evaluator:
    def between(attributes: Mapping[str, str]) -> Optional[bool]:
        value = _as_number(operand(attributes))
        low_value = _as_number(low(attributes))
        high_value = _as_number(high(attributes))
        if value is None or low_value is None or high_value is None:
            return None
        result = low_value <= value <= high_value
        return not result if negated else result

    return between


def _in(operand: _Evaluator, choices: Tuple[str, ...], negated: bool) -> _Evaluator:
    members = frozenset(choices)

    def contains(attributes: Mapping[str, str]) -> Optional[bool]:
        value = operand(attributes)
        if value is None:
            return None
        result = str(value) in members
        return not result if negated else result

    return contains


def _like(operand: _Evaluator, pattern: str, escape: Optional[str], negated: bool) -> _Evaluator:
    fullmatch = _like_to_regex(pattern, escape).fullmatch

    def like(attributes: Mapping[str, str]) -> Optional[bool]:
        value = operand(attributes)
        if value is None:
            return None
        result = fullmatch(str(value)) is not None
        return not result if negated else result

    return like


def _is_null(operand: _Evaluator, negated: bool) -> _Evaluator:
    def is_null(attributes: Mapping[str, str]) -> bool:
        result = operand(attributes) is None
        return not result if negated else result

    return is_null


def _like_to_regex(pattern: str, escape: Optional[str]):
    if escape is not None and len(escape) != 1:
        raise SelectorSyntaxError("ESCAPE requires a single character")
    parts: List[str] = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if escape is not None and char == escape:
            index += 1
            if index >= len(pattern):
                raise SelectorSyntaxError("dangling ESCAPE character in LIKE pattern")
            parts.append(re.escape(pattern[index]))
        elif char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
        index += 1
    return re.compile("".join(parts), re.DOTALL)


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self._tokens = tokens
        self._position = 0
        #: The compiled tree's depth under each evaluator built so far
        #: (a leaf, absent here, is depth 1).
        self._depths: Dict[_Evaluator, int] = {}
        #: Open parentheses, ``NOT``s and signs above the current token.
        self._nesting = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._position]

    def _advance(self) -> _Token:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def _accept(self, kind: str, value: Any = None) -> Optional[_Token]:
        token = self._peek()
        if token.kind == kind and (value is None or token.value == value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: Any = None) -> _Token:
        token = self._accept(kind, value)
        if token is None:
            actual = self._peek()
            raise SelectorSyntaxError(
                f"expected {value or kind}, found {actual.value!r}"
            )
        return token

    # -- depth bound (MAX_SELECTOR_DEPTH) --------------------------------------

    def _node(self, evaluator: _Evaluator, *operands: _Evaluator) -> _Evaluator:
        """*evaluator*, built over *operands*, unless that makes the tree too deep."""
        depth = 1 + max(self._depths.get(operand, 1) for operand in operands)
        if depth > MAX_SELECTOR_DEPTH:
            raise SelectorSyntaxError(f"selector nested deeper than {MAX_SELECTOR_DEPTH}")
        self._depths[evaluator] = depth
        return evaluator

    def _nest(self, parse: Callable[[], _Evaluator]) -> _Evaluator:
        """Run *parse* one nesting level down, unless that is too deep."""
        self._nesting += 1
        if self._nesting > MAX_SELECTOR_DEPTH:
            raise SelectorSyntaxError(f"selector nested deeper than {MAX_SELECTOR_DEPTH}")
        node = parse()
        self._nesting -= 1
        return node

    # -- grammar -------------------------------------------------------------

    def parse(self) -> _Evaluator:
        node = self._or_expr()
        if self._peek().kind != "end":
            raise SelectorSyntaxError(f"trailing input near {self._peek().value!r}")
        return node

    def _or_expr(self) -> _Evaluator:
        node = self._and_expr()
        while self._accept("keyword", "OR"):
            right = self._and_expr()
            node = self._node(_or(node, right), node, right)
        return node

    def _and_expr(self) -> _Evaluator:
        node = self._not_expr()
        while self._accept("keyword", "AND"):
            right = self._not_expr()
            node = self._node(_and(node, right), node, right)
        return node

    def _not_expr(self) -> _Evaluator:
        if self._accept("keyword", "NOT"):
            operand = self._nest(self._not_expr)
            return self._node(_not(operand), operand)
        return self._condition()

    def _condition(self) -> _Evaluator:
        operand = self._sum()
        token = self._peek()
        if token.kind == "op" and token.value in ("=", "<>", "<", "<=", ">", ">="):
            self._advance()
            right = self._sum()
            return self._node(_comparison(token.value, operand, right), operand, right)
        negated = bool(self._accept("keyword", "NOT"))
        if self._accept("keyword", "BETWEEN"):
            low = self._sum()
            self._expect("keyword", "AND")
            high = self._sum()
            return self._node(_between(operand, low, high, negated), operand, low, high)
        if self._accept("keyword", "IN"):
            return self._node(_in(operand, self._literal_list(), negated), operand)
        if self._accept("keyword", "LIKE"):
            pattern = self._expect("string").value
            escape = None
            if self._accept("keyword", "ESCAPE"):
                escape = self._expect("string").value
            return self._node(_like(operand, pattern, escape, negated), operand)
        if negated:
            raise SelectorSyntaxError("NOT must be followed by BETWEEN, IN or LIKE here")
        if self._accept("keyword", "IS"):
            is_negated = bool(self._accept("keyword", "NOT"))
            self._expect("keyword", "NULL")
            return self._node(_is_null(operand, is_negated), operand)
        return operand

    def _literal_list(self) -> Tuple[str, ...]:
        self._expect("op", "(")
        values: List[str] = [self._expect("string").value]
        while self._accept("op", ","):
            values.append(self._expect("string").value)
        self._expect("op", ")")
        return tuple(values)

    def _sum(self) -> _Evaluator:
        node = self._product()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self._advance()
                right = self._product()
                node = self._node(_arithmetic(token.value, node, right), node, right)
            else:
                return node

    def _product(self) -> _Evaluator:
        node = self._unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/"):
                self._advance()
                right = self._unary()
                node = self._node(_arithmetic(token.value, node, right), node, right)
            else:
                return node

    def _unary(self) -> _Evaluator:
        if self._accept("op", "-"):
            operand = self._nest(self._unary)
            return self._node(_negate(operand), operand)
        if self._accept("op", "+"):
            return self._nest(self._unary)
        return self._primary()

    def _primary(self) -> _Evaluator:
        token = self._peek()
        if token.kind in ("number", "string"):
            self._advance()
            return _literal(token.value)
        if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
            self._advance()
            return _literal(token.value == "TRUE")
        if token.kind == "keyword" and token.value == "NULL":
            self._advance()
            return _literal(None)
        if token.kind == "name":
            self._advance()
            return _attribute(token.value)
        if self._accept("op", "("):
            node = self._nest(self._or_expr)
            self._expect("op", ")")
            return node
        raise SelectorSyntaxError(f"unexpected token {token.value!r}")


class Selector:
    """A compiled selector; ``matches`` applies SQL semantics (NULL ≠ match).

    Parsing builds the closure tree :meth:`matches` runs on the delivery
    path. Instances are immutable and safe to share across subscriptions
    and threads.
    """

    __slots__ = ("text", "_compiled")

    def __init__(self, text: str):
        self.text = text
        self._compiled = _Parser(_tokenize(text)).parse()

    def matches(self, attributes: Mapping[str, str]) -> bool:
        return self._compiled(attributes) is True

    def __repr__(self) -> str:
        return f"Selector({self.text!r})"


@lru_cache(maxsize=1024)
def _cached_selector(text: str) -> Selector:
    return Selector(text)


def parse_selector(text: Optional[str]) -> Optional[Selector]:
    """Compile *text*, returning ``None`` for empty/absent selectors.

    Results are cached by selector text, so repeated STOMP ``selector``
    headers (every subscriber of a fleet sending the same expression)
    parse and compile exactly once.
    """
    if text is None or not text.strip():
        return None
    return _cached_selector(text)


def selector_literal(value: str) -> str:
    """Quote *value* as a SQL-92 selector string literal.

    Selector strings escape an embedded single quote by doubling it.
    Any code interpolating runtime data into a selector expression must
    go through this — raw f-string interpolation of a value containing
    ``'`` produces an unparseable (or differently-scoped) filter.
    """
    return "'" + value.replace("'", "''") + "'"
