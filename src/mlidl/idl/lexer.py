"""Hand-rolled scanner for the IDL dialect.

Token texts are exact source lexemes: joining them with whitespace recovers
the input minus comments.  Word literals use the `0wx` hex spelling; both
`//` line comments and `/* */` block comments are skipped.  A column counts
characters from the start of its line, so a tab is one column.
"""

from __future__ import annotations

import re
from typing import Union

from mlidl.idl.ast import BASE_TYPES
from mlidl.idl.errors import LexError

KEYWORDS = frozenset({"typedef", "struct", "enum", "const", "interface"}.union(
    *(name.split() for name in BASE_TYPES)))

PUNCT = frozenset("{}()[];,*=:&")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'", "0": "\0"}

# Where a lexeme ends, given where it starts.  `\w` is `str.isalnum()` or
# `_` and `\d` is `str.isdecimal()`, character for character.
_WORD_REST = re.compile(r"\w*")
_DIGITS = re.compile(r"\d*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
_STRING_RUN = re.compile(r'[^"\\\n]*')     # up to a quote, backslash or newline


class Token:
    """One lexeme.  Equality and hash cover (kind, text, line, col), not
    `value`.  A slotted class rather than a frozen dataclass, whose
    `__init__` costs about five times as much: one is made per lexeme."""

    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind: str, text: str, line: int, col: int,
                 value: Union[int, str, None] = None) -> None:
        self.kind = kind    # ident | keyword | int | word | string | char | punct | eof
        self.text = text
        self.line = line
        self.col = col
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.text, self.line, self.col) == \
               (other.kind, other.text, other.line, other.col)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line, self.col))

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str, source: str = "<idl>") -> list[Token]:
    toks: list[Token] = []
    i = 0
    line = 1
    line_start = 0          # index of the first character of `line`
    n = len(text)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "/" and text.startswith("/", i + 1):
            end = text.find("\n", i + 2)
            if end < 0:
                break           # eof stands at the comment's first column
            i = end
            continue
        if ch == "/" and text.startswith("*", i + 1):
            end = text.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, i - line_start + 1,
                               source)
            newlines = text.count("\n", i + 2, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", i + 2, end) + 1
            i = end + 2
            continue
        col = i - line_start + 1
        if ch == "0" and text.startswith("wx", i + 1):
            end = _HEX_DIGITS.match(text, i + 3).end()
            digits = text[i + 3:end]
            if not digits:
                raise LexError("malformed word literal: expected hex digits after 0wx",
                               line, col, source)
            value = int(digits, 16)
            if value > 0xFFFFFFFF:
                raise LexError(f"word literal 0wx{digits} does not fit in 32 bits",
                               line, col, source)
            toks.append(Token("word", text[i:end], line, col, value))
            i = end
            continue
        if ch.isdecimal():      # isdigit() also takes "²" or "①", which int() rejects
            end = _DIGITS.match(text, i + 1).end()
            lit = text[i:end]
            try:
                toks.append(Token("int", lit, line, col, int(lit)))
            except ValueError:  # past CPython's limit on the digits `int` converts
                raise LexError(f"integer literal of {len(lit)} digits is too long",
                               line, col, source) from None
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = _WORD_REST.match(text, i + 1).end()
            word = text[i:end]
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col, word))
            i = end
            continue
        if ch == '"':
            out = []
            end = i + 1
            while True:
                run_end = _STRING_RUN.match(text, end).end()
                out.append(text[end:run_end])
                end = run_end
                if end >= n or text[end] == "\n":
                    raise LexError("unterminated string literal", line, col, source)
                if text[end] == '"':
                    end += 1
                    break
                if end + 1 >= n or text[end + 1] not in _ESCAPES:
                    raise LexError("bad escape in string literal", line, col + end - i, source)
                out.append(_ESCAPES[text[end + 1]])
                end += 2
            toks.append(Token("string", text[i:end], line, col, "".join(out)))
            i = end
            continue
        if ch == "'":
            end = i + 1
            if end < n and text[end] == "\\":
                if end + 1 >= n or text[end + 1] not in _ESCAPES:
                    raise LexError("bad escape in char literal", line, col + 1, source)
                value = _ESCAPES[text[end + 1]]
                end += 2
            elif end < n and text[end] not in ("'", "\n"):
                value = text[end]
                end += 1
            else:
                raise LexError("empty char literal", line, col, source)
            if end >= n or text[end] != "'":
                raise LexError("unterminated char literal", line, col, source)
            end += 1
            toks.append(Token("char", text[i:end], line, col, value))
            i = end
            continue
        if ch in PUNCT:
            toks.append(Token("punct", ch, line, col, ch))
            i += 1
            continue
        raise LexError(f"stray character {ch!r}", line, col, source)

    toks.append(Token("eof", "", line, i - line_start + 1))
    return toks
