"""Property-based tests: blueprint-language round trips.

Generates random-but-valid blueprint ASTs, prints them, re-parses, and
checks the second print is a fixed point — the strongest cheap guarantee
that nothing is lost between the concrete syntax and the AST.
"""

from hypothesis import given, settings, strategies as st

from repro.core.expressions import Compare, Literal, VarRef
from repro.core.lang.ast import (
    AssignAction,
    BlueprintDecl,
    ExecAction,
    LetDecl,
    LinkDecl,
    NotifyAction,
    PostAction,
    PropertyDecl,
    UseLinkDecl,
    ViewDecl,
    WhenRule,
)
from repro.core.lang.parser import parse_blueprint
from repro.core.lang.printer import print_blueprint
from repro.core.lang.tokens import KEYWORDS
from repro.metadb.links import Direction
from repro.metadb.versions import InheritMode

# identifiers that cannot collide with language keywords
idents = st.from_regex(r"[a-z][a-z0-9_]{2,8}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)

simple_values = st.one_of(
    idents,
    st.booleans(),
    st.integers(0, 999),
    # words and numbers that print quoted or without an exponent
    st.sampled_from(["done", "copy", "AND", "Or", "when", "a b", "x#y", "", "42"]),
    st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda number: not number.is_integer()
    ),
)

message_text = st.from_regex(r"[a-zA-Z0-9 $_.:]{0,20}", fullmatch=True)


@st.composite
def small_expressions(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return VarRef(draw(idents))
    if kind == 1:
        value = draw(simple_values)
        return Literal(value)
    return Compare(
        draw(st.sampled_from(["==", "!="])),
        VarRef(draw(idents)),
        Literal(draw(simple_values)),
    )


@st.composite
def actions(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return AssignAction(name=draw(idents), value=draw(small_expressions()))
    if kind == 1:
        return PostAction(
            event=draw(idents),
            direction=draw(st.sampled_from(list(Direction))),
            to_view=draw(st.one_of(st.none(), idents)),
            arg=draw(st.one_of(st.none(), message_text)),
        )
    if kind == 2:
        return ExecAction(
            script=draw(idents),
            args=tuple(draw(st.lists(message_text, max_size=2))),
        )
    return NotifyAction(message=draw(message_text))


@st.composite
def views(draw, name):
    view = ViewDecl(name=name)
    for prop_name in draw(st.lists(idents, max_size=3, unique=True)):
        view.properties.append(
            PropertyDecl(
                name=prop_name,
                default=draw(simple_values),
                inherit=draw(st.sampled_from(list(InheritMode))),
            )
        )
    for let_name in draw(st.lists(idents, max_size=2, unique=True)):
        view.lets.append(LetDecl(name=let_name, value=draw(small_expressions())))
    for from_view in draw(st.lists(idents, max_size=2, unique=True)):
        view.links.append(
            LinkDecl(
                from_view=from_view,
                propagates=tuple(
                    draw(st.lists(idents, min_size=1, max_size=3, unique=True))
                ),
                link_type=draw(st.one_of(st.none(), idents)),
                move=draw(st.booleans()),
            )
        )
    if draw(st.booleans()):
        view.use_links.append(
            UseLinkDecl(
                propagates=tuple(
                    draw(st.lists(idents, min_size=1, max_size=2, unique=True))
                ),
                move=draw(st.booleans()),
            )
        )
    for event in draw(st.lists(idents, max_size=3, unique=True)):
        view.rules.append(
            WhenRule(
                event=event,
                actions=tuple(
                    draw(st.lists(actions(), min_size=1, max_size=3))
                ),
            )
        )
    return view


@st.composite
def blueprints(draw):
    view_names = draw(st.lists(idents, min_size=1, max_size=4, unique=True))
    decl = BlueprintDecl(name=draw(idents))
    for name in view_names:
        decl.views.append(draw(views(name)))
    return decl


class TestLanguageRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(blueprints())
    def test_print_parse_print_fixed_point(self, decl):
        printed = print_blueprint(decl)
        reparsed = parse_blueprint(printed)
        assert print_blueprint(reparsed) == printed

    @settings(max_examples=50, deadline=None)
    @given(blueprints())
    def test_structure_preserved(self, decl):
        reparsed = parse_blueprint(print_blueprint(decl))
        assert reparsed.view_names() == decl.view_names()
        for view in decl.views:
            again = reparsed.view(view.name)
            assert len(again.properties) == len(view.properties)
            assert len(again.lets) == len(view.lets)
            assert len(again.links) == len(view.links)
            assert len(again.rules) == len(view.rules)

    @settings(max_examples=50, deadline=None)
    @given(blueprints())
    def test_compiles_to_runtime_blueprint(self, decl):
        from repro.core.blueprint import Blueprint

        blueprint = Blueprint.from_ast(decl)
        for name in decl.view_names():
            assert blueprint.tracks(name)
