"""The continuous-assignment expression language: AST and evaluation.

Section 3.2 of the paper attaches *continuous assignments* to views::

    let state = ($nl_sim_res == good) and ($lvs_res == is_equiv)
                and ($uptodate == true)

"Such an assignment is continuously being reevaluated."  The right-hand
side is a small boolean expression language over property references
(``$name``), bare-word string literals (``good``, ``is_equiv``), quoted
strings, numbers, the booleans ``true``/``false`` and the operators
``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``, ``and``, ``or``, ``not``
with parentheses.

The same expressions serve as run-time-rule right-hand sides
(``sim_result = $arg``), wrapper permission predicates (section 3.3) and
ad-hoc state queries.  All of them are read by the blueprint lexer and
parser (:mod:`repro.core.lang`): :meth:`Expression.parse` reads
standalone text with the grammar of a ``let`` value.  String literals
containing ``$`` are interpolated against the evaluation environment,
which is how the paper's ``"$oid changed by $user"`` values work.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.metadb.properties import Value, value_to_text


class ExpressionError(Exception):
    """Raised for malformed expression source text."""


class Environment(Protocol):
    """Anything that can resolve ``$name`` references."""

    def lookup(self, name: str) -> Value | None:  # pragma: no cover - protocol
        ...


class MappingEnvironment:
    """A plain dict-backed environment, handy for tests and policies."""

    def __init__(self, values: dict[str, Value] | None = None) -> None:
        self.values = dict(values or {})

    def lookup(self, name: str) -> Value | None:
        return self.values.get(name)


_VAR_RE = re.compile(r"\$(\w+)")


def interpolate(template: str, env: Environment) -> str:
    """Replace every ``$name`` in *template* with its environment value.

    Unknown names render as the empty string — the paper's shell-script
    heritage — so message templates never crash an event wave.
    """

    def replace(match: re.Match[str]) -> str:
        value = env.lookup(match.group(1))
        if value is None:
            return ""
        return value_to_text(value)

    return _VAR_RE.sub(replace, template)


def truthy(value: Value | None) -> bool:
    """Blueprint-language truthiness.

    Booleans are themselves; ``None`` (unset property) is false; the
    strings ``"true"``/``"false"`` follow their spelling; any other
    non-empty string is true; numbers follow Python truthiness.
    """
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("", "false"):
            return False
        return True
    return bool(value)


#: Cheap pre-filter for numeric-looking strings: raising/catching
#: ValueError on every non-numeric comparison operand costs more than
#: the whole rest of ``_comparable``, and comparisons run once per rule
#: per event on the policy admission path.  Must never reject a string
#: ``float()`` would accept — after a strip, every such string starts
#: with a sign, a (unicode) digit, ``.digit``, ``nan`` or ``inf``.
_NUMERIC_RE = re.compile(r"[+-]?(\d|\.\d|nan|inf)", re.IGNORECASE)


def _comparable(value: Value | None) -> tuple[int, object]:
    """Normalise a value for ordered comparison.

    Numbers (and numeric strings) compare numerically; everything else
    compares as text.  The leading tag keeps mixed comparisons total.
    """
    if isinstance(value, bool):
        return (1, value_to_text(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    if isinstance(value, str):
        cached = _COMPARABLE_MEMO.get(value)
        if cached is None:
            if _NUMERIC_RE.match(value.strip()):
                try:
                    cached = (0, float(value))
                except ValueError:
                    cached = (1, value)
            else:
                cached = (1, value)
            # property values repeat heavily (state names, "true", OIDs)
            # while arbitrary one-off $arg strings stay bounded by the cap
            if len(_COMPARABLE_MEMO) < 4096:
                _COMPARABLE_MEMO[value] = cached
        return cached
    return (1, "" if value is None else str(value))


#: value -> normalised form, for repeated string operands.  Reads and
#: writes are GIL-atomic dict ops; a racing miss just recomputes.
_COMPARABLE_MEMO: dict[str, tuple[int, object]] = {}


def values_equal(left: Value | None, right: Value | None) -> bool:
    """Equality with the language's text/number coercions.

    ``true == "true"`` and ``4 == "4"`` hold, matching how the untyped
    ASCII rule files spell values.
    """
    if left is None or right is None:
        return left is None and right is None
    return _comparable(left) == _comparable(right)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expression:
    """Base class of expression AST nodes."""

    def evaluate(self, env: Environment) -> Value:
        raise NotImplementedError

    def variables(self) -> set[str]:
        """Names of all ``$`` references (for dependency tracking)."""
        raise NotImplementedError

    def to_source(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_source()

    @staticmethod
    def parse(text: str) -> "Expression":
        """Parse standalone expression source text.

        Raises :class:`ExpressionError` unless the whole of *text* is one
        expression; a ``#`` is refused, not read as a comment.
        """
        from repro.core.lang.parser import parse_expression
        from repro.core.lang.tokens import BlueprintSyntaxError

        try:
            return parse_expression(text)
        except BlueprintSyntaxError as exc:
            raise ExpressionError(f"{exc} in {text!r}") from None


@dataclass(frozen=True)
class Literal(Expression):
    """A literal value; quoted strings interpolate ``$name`` at eval time."""

    value: Value
    quoted: bool = False

    def evaluate(self, env: Environment) -> Value:
        if self.quoted and isinstance(self.value, str) and "$" in self.value:
            return interpolate(self.value, env)
        return self.value

    def variables(self) -> set[str]:
        if self.quoted and isinstance(self.value, str):
            return set(_VAR_RE.findall(self.value))
        return set()

    def to_source(self) -> str:
        from repro.core.lang.lexer import is_literal_word

        text = value_to_text(self.value)
        if self.quoted or (isinstance(self.value, str) and not is_literal_word(text)):
            escaped = text.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if isinstance(self.value, float) and "e" in text:
            # the lexer reads no exponent: spell the same digits positionally
            mantissa, exponent = text.split("e")
            decimals = max(0, len(mantissa.partition(".")[2]) - int(exponent))
            text = f"{self.value:.{decimals}f}"
        return text


@dataclass(frozen=True)
class VarRef(Expression):
    """A ``$name`` property/builtin reference."""

    name: str

    def evaluate(self, env: Environment) -> Value:
        value = env.lookup(self.name)
        return "" if value is None else value

    def variables(self) -> set[str]:
        return {self.name}

    def to_source(self) -> str:
        return f"${self.name}"


_COMPARATORS: dict[str, Callable[[tuple, tuple], bool]] = {
    "==": lambda l, r: l == r,
    "!=": lambda l, r: l != r,
    "<": lambda l, r: l < r,
    "<=": lambda l, r: l <= r,
    ">": lambda l, r: l > r,
    ">=": lambda l, r: l >= r,
}


@dataclass(frozen=True)
class Compare(Expression):
    op: str
    left: Expression
    right: Expression

    def evaluate(self, env: Environment) -> Value:
        left = _comparable(self.left.evaluate(env))
        right = _comparable(self.right.evaluate(env))
        if self.op in ("==", "!="):
            return _COMPARATORS[self.op](left, right)
        if left[0] != right[0]:
            # ordered comparison across number/text is always false rather
            # than an exception: rule files must not crash event waves
            return False
        return _COMPARATORS[self.op](left, right)

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def to_source(self) -> str:
        return f"{_operand(self.left)} {self.op} {_operand(self.right)}"


@dataclass(frozen=True)
class And(Expression):
    items: tuple[Expression, ...]

    def evaluate(self, env: Environment) -> Value:
        return all(truthy(item.evaluate(env)) for item in self.items)

    def variables(self) -> set[str]:
        names: set[str] = set()
        for item in self.items:
            names |= item.variables()
        return names

    def to_source(self) -> str:
        return " and ".join(_maybe_paren(item) for item in self.items)


@dataclass(frozen=True)
class Or(Expression):
    items: tuple[Expression, ...]

    def evaluate(self, env: Environment) -> Value:
        return any(truthy(item.evaluate(env)) for item in self.items)

    def variables(self) -> set[str]:
        names: set[str] = set()
        for item in self.items:
            names |= item.variables()
        return names

    def to_source(self) -> str:
        return " or ".join(_maybe_paren(item) for item in self.items)


@dataclass(frozen=True)
class Not(Expression):
    item: Expression

    def evaluate(self, env: Environment) -> Value:
        return not truthy(self.item.evaluate(env))

    def variables(self) -> set[str]:
        return self.item.variables()

    def to_source(self) -> str:
        return f"not {_maybe_paren(self.item)}"


# ---------------------------------------------------------------------------
# closure compiler
# ---------------------------------------------------------------------------


def compile_expression(expr: Expression) -> Callable[[Environment], Value]:
    """Compile *expr* into a closure tree that skips AST dispatch.

    Hot paths — the policy admission gate evaluates its rule conditions
    once per journaled write — pay a method dispatch plus dataclass
    attribute lookups per AST node under ``Expression.evaluate``.  The
    compiled form resolves operators, literals and child expressions
    once, at compile time, and evaluates to *identical* values (the
    equivalence suite in ``tests/core/test_expressions.py`` keeps the
    two in lockstep).  Unknown node types fall back to the interpreter.
    """
    if type(expr) is Literal:
        value = expr.value
        if expr.quoted and isinstance(value, str) and "$" in value:
            return lambda env: interpolate(value, env)
        return lambda env: value
    if type(expr) is VarRef:
        name = expr.name

        def var_ref(env: Environment) -> Value:
            value = env.lookup(name)
            return "" if value is None else value

        return var_ref
    if type(expr) is Compare:
        left = compile_expression(expr.left)
        right = compile_expression(expr.right)
        if expr.op == "==":
            return lambda env: _comparable(left(env)) == _comparable(right(env))
        if expr.op == "!=":
            return lambda env: _comparable(left(env)) != _comparable(right(env))
        compare = _COMPARATORS[expr.op]

        def ordered(env: Environment) -> Value:
            lhs = _comparable(left(env))
            rhs = _comparable(right(env))
            if lhs[0] != rhs[0]:
                # same rule as the interpreter: ordered comparison across
                # number/text is false rather than an exception
                return False
            return compare(lhs, rhs)

        return ordered
    if type(expr) is And:
        items = tuple(compile_expression(item) for item in expr.items)
        return lambda env: all(truthy(item(env)) for item in items)
    if type(expr) is Or:
        items = tuple(compile_expression(item) for item in expr.items)
        return lambda env: any(truthy(item(env)) for item in items)
    if type(expr) is Not:
        item = compile_expression(expr.item)
        return lambda env: not truthy(item(env))
    return expr.evaluate


def _maybe_paren(item: Expression) -> str:
    if isinstance(item, (And, Or, Compare)):
        return f"({item.to_source()})"
    return item.to_source()


def _operand(item: Expression) -> str:
    """Comparison operands: only bare atoms print unparenthesised."""
    if isinstance(item, (Literal, VarRef)):
        return item.to_source()
    return f"({item.to_source()})"
