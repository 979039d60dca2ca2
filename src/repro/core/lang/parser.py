"""Recursive-descent parser for the BluePrint rule language.

Accepts the paper's complete ``EDTC_example`` listing verbatim, including
its quirks:

* an ``endview`` may be omitted before a following ``view`` keyword or
  ``endblueprint`` (the paper's listing drops one after the ``schematic``
  view);
* the ``move`` keyword may appear either right after the view name
  (section 3.4 style) or at the end of the declaration (Figure 3 style,
  where it is even upper-case);
* a bare list of ``view`` blocks without the ``blueprint``/
  ``endblueprint`` wrapper parses as an anonymous blueprint (the style of
  Figures 2 and 3).
"""

from __future__ import annotations

from repro.core import expressions as ex
from repro.core.lang.ast import (
    Action,
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
from repro.core.lang.lexer import tokenize
from repro.core.lang.tokens import BlueprintSyntaxError, Token, TokenKind


def parse_blueprint(source: str) -> BlueprintDecl:
    """Parse blueprint *source* text into an AST."""
    return _Parser(tokenize(source)).parse_blueprint()


def parse_expression(source: str) -> ex.Expression:
    """Parse standalone expression *source* (a policy condition, a
    ``find`` query, a task goal) with the grammar of a ``let`` value.

    The whole text must be one expression, and it has no comments.
    """
    parser = _Parser(tokenize(source, comments=False))
    expression = parser.parse_expression()
    if parser.current.kind is not TokenKind.EOF:
        raise parser.fail("expected end of expression")
    return expression


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def fail(self, message: str) -> BlueprintSyntaxError:
        token = self.current
        return BlueprintSyntaxError(
            f"{message}, got {token!s}", token.line, token.column
        )

    def expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise self.fail(f"expected '{word}'")
        return self.advance()

    def expect_ident(self, what: str, allow_keywords: bool = False) -> str:
        token = self.current
        if token.kind is not TokenKind.IDENT:
            raise self.fail(f"expected {what}")
        if not allow_keywords and token.keyword is not None:
            raise self.fail(f"expected {what}, not the keyword '{token.text}'")
        self.advance()
        return token.text

    def at_keyword(self, *words: str) -> bool:
        return self.current.is_keyword(*words)

    # -- grammar -------------------------------------------------------------

    def parse_blueprint(self) -> BlueprintDecl:
        if self.at_keyword("blueprint"):
            self.advance()
            name = self.expect_ident("a blueprint name")
            wrapped = True
        else:
            name = "anonymous"
            wrapped = False
        views: list[ViewDecl] = []
        seen: set[str] = set()
        while self.at_keyword("view"):
            view = self.parse_view()
            if view.name in seen:
                raise BlueprintSyntaxError(
                    f"duplicate view '{view.name}'",
                    self.current.line,
                    self.current.column,
                )
            seen.add(view.name)
            views.append(view)
        if wrapped:
            self.expect_keyword("endblueprint")
        if self.current.kind is not TokenKind.EOF:
            raise self.fail("expected 'view' or end of file")
        return BlueprintDecl(name=name, views=views)

    def parse_view(self) -> ViewDecl:
        self.expect_keyword("view")
        if self.at_keyword("default"):
            self.advance()
            name = "default"
        else:
            name = self.expect_ident("a view name")
        view = ViewDecl(name=name)
        while True:
            if self.at_keyword("endview"):
                self.advance()
                break
            if self.at_keyword("view", "endblueprint") or (
                self.current.kind is TokenKind.EOF
            ):
                break  # tolerate the paper's missing endview
            if self.at_keyword("property"):
                view.properties.append(self.parse_property())
            elif self.at_keyword("let"):
                view.lets.append(self.parse_let())
            elif self.at_keyword("link_from"):
                view.links.append(self.parse_link_from())
            elif self.at_keyword("use_link"):
                view.use_links.append(self.parse_use_link())
            elif self.at_keyword("when"):
                view.rules.append(self.parse_when())
            else:
                raise self.fail(
                    "expected 'property', 'let', 'link_from', 'use_link', "
                    "'when' or 'endview'"
                )
        return view

    def parse_property(self) -> PropertyDecl:
        from repro.metadb.properties import coerce_value
        from repro.metadb.versions import InheritMode

        self.expect_keyword("property")
        name = self.expect_ident("a property name")
        self.expect_keyword("default")
        value_token = self.current
        raw = self.parse_value("a default value")
        if value_token.kind is TokenKind.NUMBER:
            number = float(raw)
            default = int(number) if number.is_integer() else number
        else:
            default = coerce_value(raw)
        inherit = InheritMode.NONE
        if self.at_keyword("copy"):
            self.advance()
            inherit = InheritMode.COPY
        elif self.at_keyword("move"):
            self.advance()
            inherit = InheritMode.MOVE
        return PropertyDecl(name=name, default=default, inherit=inherit)

    def parse_value(self, what: str) -> str:
        """A property default / exec argument: bare word, string or number."""
        token = self.current
        if token.kind is TokenKind.STRING:
            self.advance()
            return token.text
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return token.text
        if token.kind is TokenKind.IDENT:
            # values like 'bad', 'true', 'not_equiv' are bare words; real
            # keywords (copy/move/when/...) cannot be property values
            if self.at_value_word():
                self.advance()
                return token.text
        raise self.fail(f"expected {what}")

    def at_value_word(self) -> bool:
        return self.current.kind is TokenKind.IDENT and self.current.keyword in (
            None,
            "true",
            "false",
        )

    def parse_let(self) -> LetDecl:
        self.expect_keyword("let")
        name = self.expect_ident("a name for the continuous assignment")
        if self.current.kind is not TokenKind.EQUALS:
            raise self.fail("expected '=' in let")
        self.advance()
        return LetDecl(name=name, value=self.parse_expression())

    def parse_event_list(self) -> tuple[str, ...]:
        events = [self.expect_ident("an event name")]
        while self.current.kind is TokenKind.COMMA:
            self.advance()
            events.append(self.expect_ident("an event name"))
        return tuple(events)

    def parse_link_from(self) -> LinkDecl:
        self.expect_keyword("link_from")
        from_view = self.expect_ident("a view name after link_from")
        move = False
        if self.at_keyword("move"):
            self.advance()
            move = True
        # A link may propagate nothing at all — a fully loosened phase
        # trims every event — in which case the clause is simply absent.
        events: tuple[str, ...] = ()
        if self.at_keyword("propagates"):
            self.advance()
            events = self.parse_event_list()
        link_type: str | None = None
        if self.at_keyword("type"):
            self.advance()
            link_type = self.expect_ident("a link type")
        if self.at_keyword("move"):  # Figure 3 trailing-MOVE style
            self.advance()
            move = True
        return LinkDecl(
            from_view=from_view, propagates=events, link_type=link_type, move=move
        )

    def parse_use_link(self) -> UseLinkDecl:
        self.expect_keyword("use_link")
        move = False
        if self.at_keyword("move"):
            self.advance()
            move = True
        events: tuple[str, ...] = ()
        if self.at_keyword("propagates"):
            self.advance()
            events = self.parse_event_list()
        if self.at_keyword("move"):
            self.advance()
            move = True
        return UseLinkDecl(propagates=events, move=move)

    def parse_when(self) -> WhenRule:
        self.expect_keyword("when")
        event = self.expect_ident("an event name after when")
        self.expect_keyword("do")
        actions: list[Action] = [self.parse_action()]
        while self.current.kind is TokenKind.SEMICOLON:
            self.advance()
            if self.at_keyword("done"):
                break  # tolerate a trailing semicolon
            actions.append(self.parse_action())
        self.expect_keyword("done")
        return WhenRule(event=event, actions=tuple(actions))

    def parse_action(self) -> Action:
        if self.at_keyword("post"):
            return self.parse_post()
        if self.at_keyword("exec"):
            return self.parse_exec()
        if self.at_keyword("notify"):
            return self.parse_notify()
        name = self.expect_ident("a property name, 'post', 'exec' or 'notify'")
        if self.current.kind is not TokenKind.EQUALS:
            raise self.fail(f"expected '=' after '{name}'")
        self.advance()
        return AssignAction(name=name, value=self.parse_expression())

    def parse_post(self) -> PostAction:
        from repro.metadb.links import Direction

        self.expect_keyword("post")
        event = self.expect_ident("an event name after post")
        direction = Direction.DOWN
        if self.at_keyword("up", "down"):
            direction = Direction.parse(self.advance().text)
        to_view: str | None = None
        if self.at_keyword("to"):
            self.advance()
            to_view = self.expect_ident("a view name after to")
        arg: str | None = None
        if self.current.kind is TokenKind.STRING:
            arg = self.advance().text
        return PostAction(event=event, direction=direction, to_view=to_view, arg=arg)

    def parse_exec(self) -> ExecAction:
        self.expect_keyword("exec")
        token = self.current
        if token.kind is TokenKind.STRING:
            script = self.advance().text
        else:
            script = self.expect_ident("a script name after exec")
        args: list[str] = []
        while True:
            token = self.current
            if token.kind is TokenKind.STRING:
                args.append(self.advance().text)
            elif token.kind is TokenKind.VARREF:
                self.advance()
                args.append(f"${token.text}")
            elif self.at_value_word():
                args.append(self.advance().text)
            elif token.kind is TokenKind.NUMBER:
                args.append(self.advance().text)
            else:
                break
        return ExecAction(script=script, args=tuple(args))

    def parse_notify(self) -> NotifyAction:
        self.expect_keyword("notify")
        token = self.current
        if token.kind is not TokenKind.STRING:
            raise self.fail("expected a quoted message after notify")
        self.advance()
        return NotifyAction(message=token.text)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> ex.Expression:
        return self.parse_or()

    def parse_or(self) -> ex.Expression:
        items = [self.parse_and()]
        while self.at_keyword("or"):
            self.advance()
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else ex.Or(tuple(items))

    def parse_and(self) -> ex.Expression:
        items = [self.parse_not()]
        while self.at_keyword("and"):
            self.advance()
            items.append(self.parse_not())
        return items[0] if len(items) == 1 else ex.And(tuple(items))

    def parse_not(self) -> ex.Expression:
        if self.at_keyword("not"):
            self.advance()
            return ex.Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ex.Expression:
        left = self.parse_atom()
        if self.current.kind is TokenKind.COMPARE:
            op = self.advance().text
            right = self.parse_atom()
            return ex.Compare(op, left, right)
        return left

    def parse_atom(self) -> ex.Expression:
        token = self.current
        if token.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_or()
            if self.current.kind is not TokenKind.RPAREN:
                raise self.fail("expected ')'")
            self.advance()
            return inner
        if token.kind is TokenKind.VARREF:
            self.advance()
            return ex.VarRef(token.text)
        if token.kind is TokenKind.NUMBER:
            self.advance()
            number = float(token.text)
            return ex.Literal(int(number) if number.is_integer() else number)
        if token.kind is TokenKind.STRING:
            self.advance()
            return ex.Literal(token.text, quoted=True)
        if token.kind is TokenKind.IDENT and token.keyword not in ("and", "or", "not"):
            self.advance()
            if token.keyword in ("true", "false"):
                return ex.Literal(token.keyword == "true")
            return ex.Literal(token.text)
        raise self.fail("expected an expression")
