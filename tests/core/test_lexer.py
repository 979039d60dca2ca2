"""The blueprint language lexer."""

import pytest

from repro.core.lang.lexer import tokenize
from repro.core.lang.tokens import BlueprintSyntaxError, TokenKind


def kinds(source: str) -> list[TokenKind]:
    return [token.kind for token in tokenize(source)]


def texts(source: str) -> list[str]:
    return [token.text for token in tokenize(source)[:-1]]  # drop EOF


class TestBasics:
    def test_always_ends_with_eof(self):
        assert kinds("")[-1] is TokenKind.EOF
        assert kinds("view x")[-1] is TokenKind.EOF

    def test_idents_and_keywords_share_kind(self):
        tokens = tokenize("view GDSII")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].keyword == "view"
        assert tokens[1].keyword is None

    def test_keyword_case_insensitive(self):
        token = tokenize("MOVE")[0]
        assert token.keyword == "move"
        assert token.text == "MOVE"  # original spelling preserved

    def test_idents_allow_dash_dot(self):
        assert texts("blk-1 a.b.c") == ["blk-1", "a.b.c"]

    def test_numbers(self):
        tokens = tokenize("42 -3 2.5")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.NUMBER] * 3
        assert texts("42 -3 2.5") == ["42", "-3", "2.5"]

    @pytest.mark.parametrize("text", ["1.2.3", "1.", "-2.", "4..5"])
    def test_malformed_numbers_rejected(self, text):
        with pytest.raises(BlueprintSyntaxError, match="malformed number"):
            tokenize(text)

    def test_booleans_are_keywords(self):
        assert [token.keyword for token in tokenize("true FALSE")[:-1]] == [
            "true",
            "false",
        ]

    def test_punctuation(self):
        assert kinds("= ; , ( )")[:-1] == [
            TokenKind.EQUALS,
            TokenKind.SEMICOLON,
            TokenKind.COMMA,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
        ]

    def test_comparison_operators(self):
        assert texts("== != <= >= < >") == ["==", "!=", "<=", ">=", "<", ">"]

    def test_varrefs(self):
        tokens = tokenize("$arg $sim_result")
        assert tokens[0].kind is TokenKind.VARREF
        assert tokens[0].text == "arg"
        assert tokens[1].text == "sim_result"

    def test_dollar_without_name_rejected(self):
        with pytest.raises(BlueprintSyntaxError):
            tokenize("$ arg")


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"logic sim passed"')[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "logic sim passed"

    def test_string_with_varref_kept_raw(self):
        token = tokenize('"$oid changed by $user"')[0]
        assert token.text == "$oid changed by $user"

    def test_escaped_quote(self):
        token = tokenize(r'"say \"hi\""')[0]
        assert token.text == 'say "hi"'

    def test_escaped_backslash(self):
        token = tokenize(r'"a\\b"')[0]
        assert token.text == "a\\b"

    def test_unterminated_string_rejected(self):
        with pytest.raises(BlueprintSyntaxError):
            tokenize('"oops')


class TestCommentsAndLayout:
    def test_comment_to_eol(self):
        assert texts("view x # a comment\nendview") == ["view", "x", "endview"]

    def test_expression_text_has_no_comments(self):
        with pytest.raises(BlueprintSyntaxError, match="bad character '#'"):
            tokenize("$tag == v1#2", comments=False)
        assert texts('"a#b"') == ["a#b"]  # inside a string it is text

    def test_whole_line_comment(self):
        assert texts("# note: keywords appear in bold\nview") == ["view"]

    def test_newlines_are_whitespace(self):
        one_line = texts("when ckin do uptodate = true done")
        wrapped = texts("when ckin do\nuptodate =\ntrue done")
        assert one_line == wrapped

    def test_line_and_column_tracked(self):
        tokens = tokenize("view x\n  property y")
        prop = tokens[2]
        assert prop.line == 2
        assert prop.column == 3

    def test_bad_character_reports_location(self):
        with pytest.raises(BlueprintSyntaxError) as error:
            tokenize("view x\n  @oops")
        assert error.value.line == 2


class TestPaperFragments:
    def test_figure2_property_rule(self):
        assert texts("property DRC default bad copy") == [
            "property", "DRC", "default", "bad", "copy",
        ]

    def test_figure3_link_rule(self):
        words = texts(
            "link_from NetList propagates OutOfDate type derive_from MOVE"
        )
        assert words[0] == "link_from"
        assert words[-1] == "MOVE"

    def test_when_rule_with_semicolons(self):
        words = texts('when ckin do lvs_res = "$oid"; post lvs down done')
        assert words.count(";") == 1
        assert "done" in words
