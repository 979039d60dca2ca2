"""Tokens for the BluePrint rule language (paper, section 3.2).

The language is the ASCII file "which contains a set of rules which the
BluePrint applies to the meta-database upon reception of each event".
Keywords are matched case-insensitively because the paper itself mixes
spellings (``move`` in section 3.4, ``MOVE`` in Figure 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenKind(enum.Enum):
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    VARREF = "varref"
    EQUALS = "="
    SEMICOLON = ";"
    COMMA = ","
    LPAREN = "("
    RPAREN = ")"
    COMPARE = "compare"  # == != < <= > >=
    EOF = "eof"


#: Keywords with a meaning inside an expression: the operators and the
#: boolean literals.  Every other keyword reads as a bare-word literal
#: where an expression expects an atom (``$state == done``).
EXPRESSION_KEYWORDS = frozenset({"and", "or", "not", "true", "false"})

#: Reserved words of the language (checked case-insensitively).
KEYWORDS = EXPRESSION_KEYWORDS | frozenset(
    {
        "blueprint",
        "endblueprint",
        "view",
        "endview",
        "property",
        "default",
        "copy",
        "move",
        "let",
        "when",
        "do",
        "done",
        "post",
        "exec",
        "notify",
        "up",
        "down",
        "to",
        "link_from",
        "use_link",
        "propagates",
        "type",
    }
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def keyword(self) -> str | None:
        """The lowercase keyword this token spells, or None."""
        if self.kind is TokenKind.IDENT and self.text.lower() in KEYWORDS:
            return self.text.lower()
        return None

    def is_keyword(self, *words: str) -> bool:
        return self.keyword in words

    def location(self) -> str:
        return f"line {self.line}, column {self.column}"

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<end of file>"
        return self.text


class BlueprintSyntaxError(Exception):
    """A lexing or parsing failure with source location."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
