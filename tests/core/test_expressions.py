"""The continuous-assignment expression language."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expressions import (
    And,
    Compare,
    Expression,
    ExpressionError,
    Literal,
    MappingEnvironment,
    Not,
    Or,
    VarRef,
    compile_expression,
    interpolate,
    truthy,
    values_equal,
)
from repro.core.lang.ast import BlueprintDecl, LetDecl, ViewDecl
from repro.core.lang.parser import parse_blueprint
from repro.core.lang.printer import print_blueprint
from repro.core.lang.tokens import BlueprintSyntaxError


def ev(source: str, **values):
    return Expression.parse(source).evaluate(MappingEnvironment(values))


class TestTruthiness:
    def test_none_is_false(self):
        assert truthy(None) is False

    def test_bools(self):
        assert truthy(True) and not truthy(False)

    def test_false_string(self):
        assert truthy("false") is False
        assert truthy("FALSE") is False

    def test_empty_string(self):
        assert truthy("") is False

    def test_other_strings_true(self):
        assert truthy("good") is True
        assert truthy("0 errors") is True

    def test_numbers(self):
        assert truthy(0) is False
        assert truthy(3) is True


class TestValuesEqual:
    def test_bool_vs_spelling(self):
        assert values_equal(True, "true")
        assert values_equal(False, "false")

    def test_number_vs_text(self):
        assert values_equal(4, "4")
        assert values_equal("4.0", 4)

    def test_plain_strings(self):
        assert values_equal("ok", "ok")
        assert not values_equal("ok", "bad")

    def test_none_only_equals_none(self):
        assert values_equal(None, None)
        assert not values_equal(None, "")


class TestPaperExpressions:
    def test_sim_equals_ok(self):
        assert ev("($sim == ok)", sim="ok") is True
        assert ev("($sim == ok)", sim="bad") is False

    def test_full_state_assignment(self):
        source = (
            "($nl_sim_res == good) and ($lvs_res == is_equiv) "
            "and ($uptodate == true)"
        )
        assert ev(source, nl_sim_res="good", lvs_res="is_equiv", uptodate=True)
        assert not ev(source, nl_sim_res="good", lvs_res="is_equiv", uptodate=False)
        assert not ev(source, nl_sim_res="bad", lvs_res="is_equiv", uptodate=True)

    def test_unset_property_is_empty_string(self):
        assert ev("$missing == ok") is False
        assert ev('$missing == ""') is True


class TestOperators:
    def test_not(self):
        assert ev("not ($x == 1)", x=2) is True
        assert ev("not not ($x == 1)", x=1) is True

    def test_or(self):
        assert ev("($a == 1) or ($b == 1)", a=0, b=1) is True
        assert ev("($a == 1) or ($b == 1)", a=0, b=0) is False

    def test_precedence_and_binds_tighter(self):
        # a or (b and c)
        assert ev("($a == 1) or ($b == 1) and ($c == 1)", a=1, b=0, c=0) is True
        assert ev("($a == 1) or ($b == 1) and ($c == 1)", a=0, b=1, c=0) is False

    def test_not_equal(self):
        assert ev("$x != done", x="pending") is True

    def test_ordered_numeric(self):
        assert ev("$n >= 3", n=3) is True
        assert ev("$n < 3", n="2") is True  # numeric strings compare numerically

    def test_ordered_text(self):
        assert ev("$a < $b", a="apple", b="banana") is True

    def test_ordered_mixed_types_false(self):
        assert ev("$a < $b", a="apple", b=3) is False

    def test_bare_word_is_literal(self):
        assert ev("good == good") is True

    def test_true_false_literals(self):
        assert ev("true") is True
        assert ev("$f == false", f=False) is True

    def test_numbers(self):
        assert ev("3 == 3.0") is True
        assert ev("-2 < 1") is True


class TestInterpolation:
    def test_basic(self):
        env = MappingEnvironment({"oid": "CPU.sch.1", "user": "yves"})
        assert (
            interpolate("$oid changed by $user", env) == "CPU.sch.1 changed by yves"
        )

    def test_unknown_renders_empty(self):
        assert interpolate("[$ghost]", MappingEnvironment()) == "[]"

    def test_bool_value_spelled_blueprint_style(self):
        env = MappingEnvironment({"flag": True})
        assert interpolate("flag=$flag", env) == "flag=true"

    def test_quoted_literal_interpolates_at_eval(self):
        result = ev('"$who did it"', who="marc")
        assert result == "marc did it"

    def test_plain_string_without_dollar_untouched(self):
        assert ev('"just text"') == "just text"


class TestParsing:
    def test_round_trip(self):
        source = "($a == good) and not ($b != 2) or $c"
        expr = Expression.parse(source)
        again = Expression.parse(expr.to_source())
        env = MappingEnvironment({"a": "good", "b": 2, "c": False})
        assert expr.evaluate(env) == again.evaluate(env)

    def test_variables_collected(self):
        expr = Expression.parse('($a == ok) and "$b text" or not $c')
        assert expr.variables() == {"a", "b", "c"}

    @pytest.mark.parametrize(
        "bad",
        ["", "(", "$", "a ==", "== a", "(a == b", "a b", "a && b"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExpressionError):
            Expression.parse(bad)

    def test_string_escapes(self):
        expr = Expression.parse('"say \\"hi\\""')
        assert expr.evaluate(MappingEnvironment()) == 'say "hi"'


class TestCompiledEquivalence:
    """compile_expression must match Expression.evaluate exactly."""

    ENVS = [
        {},
        {"a": "good", "b": 2, "c": False},
        {"a": "", "b": "2", "c": "true", "who": "marc"},
        {"a": None, "b": -1.5, "c": "anything"},
        {"uptodate": True, "last": "none", "state": "is_equiv"},
    ]

    EXPRESSIONS = [
        "true",
        "$a",
        "$a == good",
        "$b != 2",
        "$b < 3",
        "$b >= 2",
        "$a < $b",
        "($a == good) and not ($b != 2) or $c",
        "not $c",
        '"$who did it"',
        '"just text"',
        "($uptodate == true) and ($state == is_equiv)",
        "$last == $last",
        "4 == 4.0",
        "$missing == \"\"",
    ]

    @pytest.mark.parametrize("source", EXPRESSIONS)
    def test_exemplars_agree(self, source):
        expr = Expression.parse(source)
        compiled = compile_expression(expr)
        for values in self.ENVS:
            env = MappingEnvironment(values)
            assert compiled(env) == expr.evaluate(env), (source, values)

    @given(
        st.recursive(
            st.one_of(
                st.sampled_from(
                    ["$a", "$b", "$c", "good", "true", "false", "2", "-1.5"]
                ),
                st.text(
                    alphabet="abc $=<>!", min_size=0, max_size=6
                ).map(lambda s: f'"{s}"'),
            ),
            lambda inner: st.one_of(
                st.tuples(
                    inner,
                    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                    inner,
                ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
                st.tuples(inner, st.sampled_from(["and", "or"]), inner).map(
                    lambda t: f"({t[0]} {t[1]} {t[2]})"
                ),
                inner.map(lambda s: f"(not {s})"),
            ),
            max_leaves=12,
        ),
        st.sampled_from(ENVS),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_trees_agree(self, source, values):
        try:
            expr = Expression.parse(source)
        except ExpressionError:
            return  # generator can spell malformed quoted atoms; skip
        env = MappingEnvironment(values)
        assert compile_expression(expr)(env) == expr.evaluate(env)


def let_value(source: str) -> Expression:
    """*source* read as the value of a blueprint ``let``."""
    blueprint = parse_blueprint(f"view v\n  let x = {source}\nendview\n")
    return blueprint.views[0].lets[0].value


def a_equals(name: str, value) -> Compare:
    return Compare("==", VarRef(name), Literal(value))


class TestOneGrammar:
    """Standalone text and blueprint files read expressions alike."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("$a == true", a_equals("a", True)),
            ("$a == false", a_equals("a", False)),
            ("$a == 1 AND $b == 2", And((a_equals("a", 1), a_equals("b", 2)))),
            ("NOT $a", Not(VarRef("a"))),
            ("$x == type", a_equals("x", "type")),
            ("$x == done", a_equals("x", "done")),
            ("$x == AND", None),
            ("$x == 1.2.3", None),
        ],
    )
    def test_both_paths_agree(self, source, expected):
        if expected is None:
            with pytest.raises(ExpressionError):
                Expression.parse(source)
            with pytest.raises(BlueprintSyntaxError):
                let_value(source)
        else:
            assert Expression.parse(source) == expected
            assert let_value(source) == expected

    def test_only_a_file_has_comments(self):
        assert let_value("$a == 1 # c") == a_equals("a", 1)
        with pytest.raises(ExpressionError, match="bad character '#'"):
            Expression.parse("$a == 1 # c")

    def test_a_hash_never_shortens_a_condition(self):
        # read as '$tag == v1' the condition would grant more than it says
        with pytest.raises(ExpressionError):
            Expression.parse("$tag == v1#2")
        assert Expression.parse('$tag == "v1#2"') == Compare(
            "==", VarRef("tag"), Literal("v1#2", quoted=True)
        )

    @pytest.mark.parametrize("word", ["and", "AND", "Or", "nOt", "TRUE", "False"])
    def test_reserved_words_print_quoted(self, word):
        source = Literal(word).to_source()
        assert source == f'"{word}"'
        assert Expression.parse(source) == Literal(word, quoted=True)

    @pytest.mark.parametrize("word", ["done", "type", "copy", "Endview", "good"])
    def test_other_keywords_print_bare(self, word):
        assert Literal(word).to_source() == word
        assert Expression.parse(f"$x == {word}") == a_equals("x", word)


_names = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)
_words = st.one_of(
    st.sampled_from(
        [
            "done", "type", "copy", "view", "endview", "let", "Done", "TYPE",
            "and", "AND", "Or", "nOt", "true", "TRUE", "False", "good",
            "is_equiv", "a-b", "x.y",
        ]
    ),
    _names,
)
_leaves = st.one_of(
    _names.map(VarRef),
    _words.map(Literal),
    st.integers(-999, 999).map(Literal),
    st.booleans().map(Literal),
    st.text(alphabet='ab $#"\\', max_size=5).map(
        lambda text: Literal(text, quoted=True)
    ),
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(
            Compare, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), inner, inner
        ),
        st.lists(inner, min_size=2, max_size=3).map(lambda items: And(tuple(items))),
        st.lists(inner, min_size=2, max_size=3).map(lambda items: Or(tuple(items))),
        inner.map(Not),
    ),
    max_leaves=10,
)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_printed_trees_read_back_alike_on_both_paths(tree):
    source = tree.to_source()
    standalone = Expression.parse(source)
    view = ViewDecl(name="v", lets=[LetDecl(name="x", value=tree)])
    in_file = parse_blueprint(print_blueprint(BlueprintDecl(name="p", views=[view])))
    assert standalone == in_file.views[0].lets[0].value
    assert standalone.to_source() == source
