"""IDL frontend: lexer, parser, resolver."""

from mlidl.idl.errors import IdlError
from mlidl.idl.lexer import tokenize
from mlidl.idl.parser import parse_text, parse_unit
from mlidl.idl.resolve import resolve

__all__ = ["IdlError", "parse_text", "parse_unit", "resolve", "tokenize"]
