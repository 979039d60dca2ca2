"""Lexer for the BluePrint rule language.

Whitespace (including newlines) is insignificant: rules are delimited by
the ``done`` keyword and views by ``endview``, so multi-line rules — which
the paper's own listing line-wraps freely — lex naturally.  In a
blueprint file ``#`` starts a comment running to end of line, as in the
paper's annotated listing.  Standalone expression text (a policy
condition, a query) has no comments: there a ``#`` is a bad character,
so a condition never loses the text after one.
"""

from __future__ import annotations

import re

from repro.core.lang.tokens import (
    EXPRESSION_KEYWORDS,
    BlueprintSyntaxError,
    Token,
    TokenKind,
)

_PUNCT = {
    "=": TokenKind.EQUALS,
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
}

_COMPARE_TWO = ("==", "!=", "<=", ">=")
_COMPARE_ONE = ("<", ">")


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-."


_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?")


def is_literal_word(text: str) -> bool:
    """True when *text* lexes as one identifier that an expression reads
    back as a bare-word literal: not ``and``/``or``/``not``/``true``/
    ``false`` in any letter case."""
    return (
        bool(text)
        and _is_ident_start(text[0])
        and all(map(_is_ident_char, text[1:]))
        and text.lower() not in EXPRESSION_KEYWORDS
    )


def tokenize(source: str, *, comments: bool = True) -> list[Token]:
    """Tokenize *source*; always ends with an EOF token.

    ``comments=False`` lexes standalone expression text, where ``#`` is
    a bad character rather than the start of a comment.
    """
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        ch = source[index]
        if ch.isspace():
            advance(1)
            continue
        if ch == "#" and comments:
            while index < length and source[index] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        two = source[index : index + 2]
        if two == "==" or two in _COMPARE_TWO:
            tokens.append(Token(TokenKind.COMPARE, two, start_line, start_column))
            advance(2)
            continue
        if ch in _COMPARE_ONE:
            tokens.append(Token(TokenKind.COMPARE, ch, start_line, start_column))
            advance(1)
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, start_line, start_column))
            advance(1)
            continue
        if ch == "$":
            advance(1)
            name_start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                advance(1)
            name = source[name_start:index]
            if not name:
                raise BlueprintSyntaxError(
                    "expected a name after '$'", start_line, start_column
                )
            tokens.append(Token(TokenKind.VARREF, name, start_line, start_column))
            continue
        if ch == '"':
            advance(1)
            body_start = index
            body: list[str] = []
            while index < length and source[index] != '"':
                if source[index] == "\\" and index + 1 < length:
                    nxt = source[index + 1]
                    if nxt in ('"', "\\"):
                        body.append(nxt)
                        advance(2)
                        continue
                body.append(source[index])
                advance(1)
            if index >= length:
                raise BlueprintSyntaxError(
                    f"unterminated string starting at offset {body_start - 1}",
                    start_line,
                    start_column,
                )
            advance(1)  # closing quote
            tokens.append(
                Token(TokenKind.STRING, "".join(body), start_line, start_column)
            )
            continue
        if ch.isdigit() or (
            ch == "-" and index + 1 < length and source[index + 1].isdigit()
        ):
            number_start = index
            advance(1)
            while index < length and (source[index].isdigit() or source[index] == "."):
                advance(1)
            text = source[number_start:index]
            if not _NUMBER_RE.fullmatch(text):
                raise BlueprintSyntaxError(
                    f"malformed number {text!r}", start_line, start_column
                )
            tokens.append(Token(TokenKind.NUMBER, text, start_line, start_column))
            continue
        if _is_ident_start(ch):
            ident_start = index
            advance(1)
            while index < length and _is_ident_char(source[index]):
                advance(1)
            tokens.append(
                Token(
                    TokenKind.IDENT,
                    source[ident_start:index],
                    start_line,
                    start_column,
                )
            )
            continue
        raise BlueprintSyntaxError(f"bad character {ch!r}", start_line, start_column)

    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
