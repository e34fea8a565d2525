"""Recursive-descent parser for the reduced IDL dialect.

Accepted declarations: `sml_name ("...")` annotations, typedefs (plain,
struct, enum, and function-pointer typedefs), string/int consts, and
interfaces with optional single inheritance.  Typedefs and consts written
inside an interface body are hoisted to unit level, just before their
interface, in source order.

RPC-distribution attributes from full DCE IDL are recognized and rejected
with a diagnostic rather than skipped.
"""

from __future__ import annotations

from typing import Optional, Union

from mlidl.idl import ast
from mlidl.idl.errors import DuplicateName, ParseError
from mlidl.idl.lexer import Token, tokenize

# Where an attribute list stands -> the attributes allowed there.
_ATTRS = {
    "typedef": frozenset({"string"}),
    "interface": frozenset({"sml_source"}),
    "param": frozenset({"in", "out", "ref", "string", "size_is", "iid_is"}),
}

# Full-DCE attributes for RPC distribution; not part of this dialect.
_RPC_ONLY_ATTRS = frozenset({
    "uuid", "version", "endpoint", "local", "object", "pointer_default",
    "unique", "ptr", "ignore", "context_handle", "idempotent", "broadcast",
    "maybe", "transmit_as", "handle", "callback",
})

def parse_text(text: str, source: str = "<idl>") -> ast.IdlUnit:
    return parse_unit(tokenize(text, source), source)


def parse_unit(tokens: list[Token], source: str = "<idl>") -> ast.IdlUnit:
    return _Parser(tokens, source).unit()


class _Parser:
    def __init__(self, tokens: list[Token], source: str) -> None:
        self.toks = tokens
        self.i = 0
        self.source = source
        self.global_names: dict[str, str] = {}   # name -> kind, for diagnostics
        self.saw_sml_name = False

    # -- token plumbing ----------------------------------------------------

    # `advance` never moves past the final eof token, so `self.i` is always
    # a valid index and lookahead needs no clamp.
    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.toks[self.i]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        tok = self.toks[self.i]
        want = text if text is not None else kind
        raise ParseError(
            f"expected {want!r}, found {tok.text or tok.kind!r}",
            tok.line, tok.col, self.source, expected={want},
        )

    def fail(self, message: str, tok: Optional[Token] = None,
             expected: Optional[set[str]] = None) -> ParseError:
        tok = tok or self.toks[self.i]
        return ParseError(message, tok.line, tok.col, self.source, expected=expected)

    # -- declarations --------------------------------------------------------

    def unit(self) -> ast.IdlUnit:
        decls: list[ast.Decl] = []
        while not self.at("eof"):
            decls += self.decl()
        return ast.IdlUnit(tuple(decls), self.source)

    def decl(self) -> list[ast.Decl]:
        tok = self.toks[self.i]
        if tok.kind == "ident" and tok.text == "sml_name":
            if self.saw_sml_name:
                raise self.fail("duplicate sml_name annotation")
            self.saw_sml_name = True
            return [self.annotation()]
        if tok.kind == "keyword" and tok.text == "typedef":
            return [self.typedef()]
        if tok.kind == "keyword" and tok.text == "const":
            return [self.const_decl()]
        if (tok.kind == "keyword" and tok.text == "interface") or self.at("punct", "["):
            return self.interface()
        raise self.fail(
            f"expected a declaration, found {tok.text or tok.kind!r}",
            expected={"typedef", "const", "interface", "sml_name"},
        )

    def annotation(self) -> ast.SmlName:
        name_tok = self.advance()     # `decl` saw `sml_name`
        self.expect("punct", "(")
        value = self.expect("string")
        self.expect("punct", ")")
        self.expect("punct", ";")
        return ast.SmlName(str(value.value), loc=ast.Loc(name_tok.line, name_tok.col))

    def _declare(self, name: str, kind: str, tok: Token) -> None:
        prev = self.global_names.get(name)
        if prev is not None:
            raise DuplicateName(
                f"duplicate name {name!r} (already declared as {prev})",
                tok.line, tok.col, self.source,
            )
        self.global_names[name] = kind

    def typedef(self) -> Union[ast.Typedef, ast.RecordDecl, ast.EnumDecl]:
        kw = self.expect("keyword", "typedef")
        loc = ast.Loc(kw.line, kw.col)
        attrs = self.attr_list("typedef")
        tok = self.toks[self.i]
        if tok.kind == "keyword" and tok.text in ("struct", "enum"):
            # typedef struct|enum [TAG] { ... } NAME;
            self.advance()
            tag = self.advance().text if self.at("ident") else None
            self.expect("punct", "{")
            if tok.text == "struct":
                return self.struct_body(tag, loc)
            return self.enum_body(tag, loc)
        t, stars, name_tok = self.declarator()
        if self.at("punct", "("):
            # typedef RET *NAME (params);  -- function-pointer typedef
            if stars < 1:
                raise self.fail("function typedef requires the `*NAME` spelling", name_tok)
            params = self.param_list()
            self.expect("punct", ";")
            self._declare(name_tok.text, "callback typedef", name_tok)
            return ast.Typedef(name_tok.text, ast.FuncType(tuple(params), t.to),
                               string="string" in attrs, loc=loc)
        self.expect("punct", ";")
        self._declare(name_tok.text, "typedef", name_tok)
        return ast.Typedef(name_tok.text, t, string="string" in attrs, loc=loc)

    def struct_body(self, tag: Optional[str], loc: ast.Loc) -> ast.RecordDecl:
        fields: list[ast.FieldDecl] = []
        names: set[str] = set()
        while not self.accept("punct", "}"):
            t, _, fname = self.declarator()
            self.expect("punct", ";")
            if fname.text in names:
                raise DuplicateName(f"duplicate field {fname.text!r}",
                                    fname.line, fname.col, self.source)
            names.add(fname.text)
            fields.append(ast.FieldDecl(fname.text, t, loc=ast.Loc(fname.line, fname.col)))
        name_tok = self.expect("ident")
        self.expect("punct", ";")
        self._declare(name_tok.text, "struct typedef", name_tok)
        return ast.RecordDecl(name_tok.text, tuple(fields), tag=tag, loc=loc)

    def enum_body(self, tag: Optional[str], loc: ast.Loc) -> ast.EnumDecl:
        variants: list[ast.EnumVariant] = []
        while not self.at("punct", "}"):
            vname = self.expect("ident")
            self.expect("punct", "=")
            vtok = self.toks[self.i]
            if vtok.kind == "int":
                self.advance()
                value = int(vtok.value)  # type: ignore[arg-type]
                if value > 0xFFFFFFFF:
                    raise self.fail(f"enum value {value} does not fit in 32 bits", vtok)
                is_hex = False
            elif vtok.kind == "word":
                self.advance()
                value = int(vtok.value)  # type: ignore[arg-type]
                is_hex = True
            else:
                raise self.fail("expected an integer or 0wx word literal", vtok,
                                expected={"int", "word"})
            self._declare(vname.text, "enum variant", vname)
            variants.append(ast.EnumVariant(vname.text, value, hex=is_hex,
                                            loc=ast.Loc(vname.line, vname.col)))
            if not self.accept("punct", ","):
                break
        self.expect("punct", "}")
        name_tok = self.expect("ident")
        self.expect("punct", ";")
        self._declare(name_tok.text, "enum typedef", name_tok)
        return ast.EnumDecl(name_tok.text, tuple(variants), tag=tag, loc=loc)

    def const_decl(self) -> ast.Const:
        kw = self.expect("keyword", "const")
        t, _, name_tok = self.declarator()
        self.expect("punct", "=")
        vtok = self.toks[self.i]
        if vtok.kind in ("int", "word", "string", "char"):
            self.advance()
        else:
            raise self.fail("expected a literal", vtok,
                            expected={"int", "word", "string", "char"})
        self.expect("punct", ";")
        self._declare(name_tok.text, "const", name_tok)
        return ast.Const(name_tok.text, t, vtok.value, loc=ast.Loc(kw.line, kw.col))

    def interface(self) -> list[ast.Decl]:
        attrs = self.attr_list("interface")
        kw = self.expect("keyword", "interface")
        name_tok = self.expect("ident")
        parent = None
        if self.accept("punct", ":"):
            parent = self.expect("ident").text
        self.expect("punct", "{")
        hoisted: list[ast.Decl] = []
        ops: list[ast.OpDecl] = []
        op_names: set[str] = set()
        while not self.accept("punct", "}"):
            if self.at("keyword", "typedef"):
                hoisted.append(self.typedef())
                continue
            if self.at("keyword", "const"):
                hoisted.append(self.const_decl())
                continue
            op = self.op_decl()
            if op.name in op_names:
                raise DuplicateName(f"duplicate operation {op.name!r}",
                                    op.loc.line, op.loc.col, self.source)
            op_names.add(op.name)
            ops.append(op)
        self.accept("punct", ";")
        self._declare(name_tok.text, "interface", name_tok)
        iface = ast.Interface(name_tok.text, tuple(ops), parent=parent,
                              sml_source=attrs.get("sml_source"),
                              loc=ast.Loc(kw.line, kw.col))
        return hoisted + [iface]

    def op_decl(self) -> ast.OpDecl:
        start = self.toks[self.i]
        t, _, name_tok = self.declarator()
        params = self.param_list()
        self.expect("punct", ";")
        return ast.OpDecl(name_tok.text, t, tuple(params), loc=ast.Loc(start.line, start.col))

    def param_list(self) -> list[ast.ParamDecl]:
        self.expect("punct", "(")
        params: list[ast.ParamDecl] = []
        names: set[str] = set()
        if not self.at("punct", ")"):
            while True:
                p = self.param()
                if p.name in names:
                    raise DuplicateName(f"duplicate parameter {p.name!r}",
                                        p.loc.line, p.loc.col, self.source)
                names.add(p.name)
                params.append(p)
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        return params

    def param(self) -> ast.ParamDecl:
        attrs = self.attr_list("param")
        start = self.toks[self.i]
        ptype, _, name_tok = self.declarator()

        has_in = "in" in attrs
        has_out = "out" in attrs
        direction = "inout" if (has_in and has_out) else "out" if has_out else "in"

        size_is = attrs.get("size_is")
        if size_is is not None:
            if not isinstance(ptype, ast.PtrType):
                raise self.fail("size_is requires a pointer parameter", name_tok)
            ptype = ast.ArrayType(ptype.to, size_is)

        return ast.ParamDecl(
            name=name_tok.text,
            type=ptype,
            dir=direction,
            ref="ref" in attrs,
            string="string" in attrs,
            size_is=size_is,
            iid_is=attrs.get("iid_is"),
            loc=ast.Loc(start.line, start.col),
        )

    # -- attributes and types -----------------------------------------------

    def attr_list(self, context: str) -> dict[str, Optional[str]]:
        attrs: dict[str, Optional[str]] = {}
        if not self.accept("punct", "["):
            return attrs
        allowed = _ATTRS[context]
        while True:
            tok = self.toks[self.i]
            if tok.kind not in ("ident", "keyword"):
                raise self.fail("expected an attribute name", tok)
            self.advance()
            name = tok.text
            arg: Optional[str] = None
            if self.accept("punct", "("):
                atok = self.toks[self.i]
                if atok.kind in ("ident", "string"):
                    self.advance()
                    arg = str(atok.value)
                else:
                    raise self.fail("expected an attribute argument", atok)
                self.expect("punct", ")")
            if name in _RPC_ONLY_ATTRS:
                raise self.fail(
                    f"attribute {name!r} is RPC-distribution IDL and is not part "
                    f"of this dialect", tok)
            if name not in allowed:
                raise self.fail(f"attribute {name!r} not allowed on a {context}", tok)
            if name in attrs:
                raise self.fail(f"duplicate attribute {name!r}", tok)
            attrs[name] = arg
            if not self.accept("punct", ","):
                break
        self.expect("punct", "]")
        return attrs

    def declarator(self) -> tuple[ast.IdlType, int, Token]:
        """`type *... name`, the one spelling of a typedef, field, const,
        operation and parameter: the type with its pointers (at most two
        `*`s), the number of `*`s and the name token."""
        t = self.type_expr()
        stars = 0
        while self.at("punct", "*"):
            tok = self.advance()
            stars += 1
            if stars > 2:
                raise self.fail("pointer depth greater than 2 is not supported", tok)
            t = ast.PtrType(t)
        return t, stars, self.expect("ident")

    def type_expr(self) -> ast.IdlType:
        """Base or named type, with optional `const` and C++-style `&`."""
        is_const = bool(self.accept("keyword", "const"))
        tok = self.toks[self.i]
        if tok.kind == "keyword" and tok.text == "unsigned":
            self.advance()
            self.expect("keyword", "long")
            t: ast.IdlType = ast.BaseType("unsigned long")
        elif tok.kind == "keyword" and tok.text in ast.BASE_TYPES:
            self.advance()
            t = ast.BaseType(tok.text)
        elif tok.kind == "ident":
            self.advance()
            t = ast.NamedType(tok.text, const=is_const)
        else:
            raise self.fail(f"expected a type, found {tok.text or tok.kind!r}", tok,
                            expected={"type"})
        if self.accept("punct", "&"):
            t = ast.PtrType(t, amp=True)
        return t
