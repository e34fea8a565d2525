from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import reference_lexer
from mlidl.idl import tokenize
from mlidl.idl.errors import LexError


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text)[:-1]]


def test_enum_line():
    toks = tokenize("CS_VREDRAW = 1,")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("ident", "CS_VREDRAW"), ("punct", "="), ("int", "1"), ("punct", ","),
    ]
    assert toks[2].value == 1


def test_empty_input():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind == "eof"


def test_word_literal_value():
    toks = tokenize("0wx80000000")
    assert toks[0].kind == "word"
    assert toks[0].value == 0x80000000
    assert toks[0].text == "0wx80000000"


def test_word_literal_too_wide():
    with pytest.raises(LexError):
        tokenize("0wx100000000")


def test_word_literal_needs_digits():
    with pytest.raises(LexError):
        tokenize("0wxzz")


def test_line_and_col_are_one_based():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_keywords_versus_idents():
    toks = tokenize("typedef wndclass")
    assert toks[0].kind == "keyword"
    assert toks[1].kind == "ident"


def test_comments_dropped():
    toks = tokenize("int x; // comment\n/* block\n comment */ int y;")
    assert [t.text for t in toks[:-1]] == ["int", "x", ";", "int", "y", ";"]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_unterminated_string():
    with pytest.raises(LexError) as exc:
        tokenize('const char *X = "oops;')
    assert exc.value.line == 1


def test_string_value_and_text():
    toks = tokenize('"#32512"')
    assert toks[0].kind == "string"
    assert toks[0].value == "#32512"
    assert toks[0].text == '"#32512"'


def test_string_escapes():
    toks = tokenize(r'"a\"b\n"')
    assert toks[0].value == 'a"b\n'


def test_char_literal():
    toks = tokenize("'x'")
    assert toks[0].kind == "char" and toks[0].value == "x"


def test_stray_character_reports_position():
    with pytest.raises(LexError) as exc:
        tokenize("int $x;")
    assert "stray" in str(exc.value)
    assert exc.value.col == 5


def test_concatenation_recovers_non_comment_input():
    # joining token texts with spaces then re-lexing gives the same stream
    from conftest import read_idl

    toks = tokenize(read_idl("win32.idl"))
    rejoined = " ".join(t.text for t in toks[:-1])
    again = tokenize(rejoined)
    assert [(t.kind, t.text) for t in toks[:-1]] == \
           [(t.kind, t.text) for t in again[:-1]]


# -- pinned against the frozen scanner in reference_lexer.py ----------------

_REPO = Path(__file__).resolve().parents[1]
_SHIPPED = {
    p.name: p.read_text(encoding="utf-8")
    for p in (_REPO / "idl" / "win32.idl", _REPO / "idl" / "time.idl",
              _REPO / "idl" / "bar.idl",
              _REPO / "src" / "mlidl" / "winsim" / "data" / "win32sim.idl")
}

# Every lexeme kind and escape, so that one edit can reach every error; the
# shipped files hold no char literals.
_ZOO = ("typedef struct _s { int a; } S; const char *T = \"a\\\"b\\n\";\n"
        "const char C = 'x'; const char E = '\\0'; /* block\n */ // line\n"
        "enum { A = 0wxFFFFFFFF, B = 42 } [in, size_is(n)] & : *\n")

# Column and line edge cases the zoo does not reach: a `//` comment that ends
# the text (eof stands at the comment's first column), a token on the closing
# line of a multi-line block comment, CRLF line ends and tabs.
_EDGES = ("int x; // no newline at the end",
          "int a; /* one\n two\n */ int b; /* x */ c",
          "typedef int T;\r\nconst int X = 0wx1F;\r\n",
          "\tint\tx;\n\t\t/* tab */\tT y;")

# Characters that open, close or continue a lexeme, plus some that no rule takes.
_EDIT_CHARS = "azAZ_09wx/*\"'\\\n\t {};,=$@é€"


def _lexed(tokenize_fn, text):
    """The token stream as tuples, or the LexError's fields."""
    try:
        return [(t.kind, t.text, t.line, t.col, t.value)
                for t in tokenize_fn(text, "m.idl")]
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.col, exc.source)


@pytest.mark.parametrize("name", sorted(_SHIPPED))
def test_shipped_files_tokenize_as_the_reference(name):
    got = _lexed(tokenize, _SHIPPED[name])
    assert isinstance(got, list) and got == _lexed(reference_lexer.tokenize,
                                                   _SHIPPED[name])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=hs.sampled_from(sorted(_SHIPPED)), at=hs.integers(0, 1 << 20),
       op=hs.sampled_from(["insert", "delete", "replace"]),
       ch=hs.sampled_from(_EDIT_CHARS))
def test_one_character_edits_tokenize_as_the_reference(name, at, op, ch):
    text = _edited(_SHIPPED[name], at % len(_SHIPPED[name]), op, ch)
    assert _lexed(tokenize, text) == _lexed(reference_lexer.tokenize, text)


@pytest.mark.parametrize("text", _EDGES)
def test_edge_cases_tokenize_as_the_reference(text):
    got = _lexed(tokenize, text)
    assert isinstance(got, list) and got == _lexed(reference_lexer.tokenize, text)


def test_every_one_character_edit_of_the_zoo_tokenizes_as_the_reference():
    errors = set()
    for base in (_ZOO,) + _EDGES:
        edits = [(i, "delete", "") for i in range(len(base))] + [
            (i, op, ch) for i in range(len(base)) for op in ("insert", "replace")
            for ch in _EDIT_CHARS]
        for i, op, ch in edits:
            text = _edited(base, i, op, ch)
            got = _lexed(tokenize, text)
            assert got == _lexed(reference_lexer.tokenize, text), (base, i, op, ch)
            if isinstance(got, tuple):
                errors.add(re.sub(r"'.*'|0wx\w+", "_", got[1]))
    # every LexError message the scanner has, reached by one edit
    assert len(errors) == 9, sorted(errors)


def _edited(text, i, op, ch):
    if op == "insert":
        return text[:i] + ch + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + ch + text[i + 1:]


def test_token_equality_and_hash_leave_out_value():
    a, b = tokenize("x"), tokenize("x")
    assert a[0] == b[0] and hash(a[0]) == hash(b[0])
    assert a[0] == type(a[0])("ident", "x", 1, 1, "other")
    assert a[0] != type(a[0])("ident", "x", 1, 2, "x")
    assert a[0] != "x" and not a[0] == "x"
    assert repr(a[0]) == "Token(ident, 'x', 1:1)"


@pytest.mark.parametrize("text, ch", [("const int X = ²;", "²"), ("const int X = 0³;", "³"),
                                      ("const int X = ¹000000;", "¹"),
                                      ("const int X = ①;", "①")])
def test_digit_that_int_rejects_is_a_stray_character(text, ch):
    # str.isdigit() takes these, int() does not
    with pytest.raises(LexError) as exc:
        tokenize(text)
    assert exc.value.message == f"stray character {ch!r}"
    assert exc.value.col == text.index(ch) + 1


def test_decimal_digit_of_another_script_is_an_int():
    tok = tokenize("٣")[0]
    assert (tok.kind, tok.text, tok.value) == ("int", "٣", 3)


@pytest.mark.parametrize("text, line, col, message", [
    # `int` converts at most 4,300 digits on CPython 3.11
    ("const int X = " + "9" * 5_000 + ";", 1, 15, "integer literal of 5000 digits is too long"),
    ("\n  " + "1" * 4_301, 2, 3, "integer literal of 4301 digits is too long"),
    # a byte order mark is no token: it is not skipped, as any other
    # character outside the grammar is not
    ("﻿interface I { }", 1, 1, "stray character '\\ufeff'"),
])
def test_text_no_token_carries_is_a_lex_error_at_its_start(text, line, col, message):
    for scan in (tokenize, reference_lexer.tokenize):
        with pytest.raises(LexError) as exc:
            scan(text)
        assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)


def test_the_longest_literal_int_converts_lexes():
    lit = "1" * 4_300
    for scan in (tokenize, reference_lexer.tokenize):
        tok = scan(lit)[0]
        assert (tok.kind, tok.col, tok.value) == ("int", 1, int(lit))
