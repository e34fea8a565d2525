"""Hand-rolled scanner for the IDL dialect.

Token texts are exact source lexemes: joining them with whitespace recovers
the input minus comments.  Word literals use the `0wx` hex spelling; both
`//` line comments and `/* */` block comments are skipped.
"""

from __future__ import annotations

from typing import Union

from mlidl.idl.errors import LexError

KEYWORDS = frozenset({
    "typedef", "struct", "enum", "const", "interface",
    "unsigned", "void", "int", "long", "boolean", "char", "wchar_t", "UINT",
})

PUNCT = frozenset("{}()[];,*=:&")

_HEX = "0123456789abcdefABCDEF"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'", "0": "\0"}


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
    col = 1
    n = len(text)

    def err(msg: str, l: int, c: int) -> LexError:
        return LexError(msg, l, c, source)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line, start_col = line, col
            i += 2
            col += 2
            while True:
                if i >= n:
                    raise err("unterminated block comment", start_line, start_col)
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    i += 2
                    col += 2
                    break
                if text[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            continue
        if ch == "0" and text[i:i + 3] == "0wx":
            start = i
            start_col = col
            i += 3
            col += 3
            digits = ""
            while i < n and text[i] in _HEX:
                digits += text[i]
                i += 1
                col += 1
            if not digits:
                raise err("malformed word literal: expected hex digits after 0wx",
                          line, start_col)
            value = int(digits, 16)
            if value > 0xFFFFFFFF:
                raise err(f"word literal 0wx{digits} does not fit in 32 bits",
                          line, start_col)
            toks.append(Token("word", text[start:i], line, start_col, value))
            continue
        if ch.isdecimal():      # isdigit() also takes "²" or "①", which int() rejects
            start = i
            start_col = col
            while i < n and text[i].isdecimal():
                i += 1
                col += 1
            lit = text[start:i]
            toks.append(Token("int", lit, line, start_col, int(lit)))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, start_col, word))
            continue
        if ch == '"':
            start = i
            start_line, start_col = line, col
            i += 1
            col += 1
            out = []
            while True:
                if i >= n or text[i] == "\n":
                    raise err("unterminated string literal", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise err("bad escape in string literal", line, col)
                    out.append(_ESCAPES[text[i + 1]])
                    i += 2
                    col += 2
                    continue
                out.append(c)
                i += 1
                col += 1
            toks.append(Token("string", text[start:i], start_line, start_col, "".join(out)))
            continue
        if ch == "'":
            start = i
            start_col = col
            i += 1
            col += 1
            if i < n and text[i] == "\\":
                if i + 1 >= n or text[i + 1] not in _ESCAPES:
                    raise err("bad escape in char literal", line, col)
                value = _ESCAPES[text[i + 1]]
                i += 2
                col += 2
            elif i < n and text[i] not in ("'", "\n"):
                value = text[i]
                i += 1
                col += 1
            else:
                raise err("empty char literal", line, start_col)
            if i >= n or text[i] != "'":
                raise err("unterminated char literal", line, start_col)
            i += 1
            col += 1
            toks.append(Token("char", text[start:i], line, start_col, value))
            continue
        if ch in PUNCT:
            toks.append(Token("punct", ch, line, col, ch))
            i += 1
            col += 1
            continue
        raise err(f"stray character {ch!r}", line, col)

    toks.append(Token("eof", "", line, col))
    return toks
