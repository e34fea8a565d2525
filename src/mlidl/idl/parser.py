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

    # The one lookahead token is `self.toks[self.i]`, and each rule tests it
    # in line, as Wirth's recursive-descent parsers do (N. Wirth, *Compiler
    # Construction*, 1996).  A punctuation mark or a keyword is known by its
    # text alone, because the lexer spells no other lexeme the same; an
    # identifier or a literal is known by its kind.  The cursor moves only
    # past a token that was tested and is not the final eof token, so
    # `self.i` is always a valid index and lookahead needs no clamp.

    def accept(self, text: str) -> bool:
        """Move past the punctuation mark or keyword `text` if it is next."""
        if self.toks[self.i].text == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        """The next token, which must be the punctuation mark or keyword
        `text`."""
        tok = self.toks[self.i]
        if tok.text != text:
            raise self.missing(text)
        self.i += 1
        return tok

    def expect_kind(self, kind: str) -> Token:
        """The next token, which must be an `ident` or a `string`."""
        tok = self.toks[self.i]
        if tok.kind != kind:
            raise self.missing(kind)
        self.i += 1
        return tok

    def missing(self, want: str) -> ParseError:
        tok = self.toks[self.i]
        return ParseError(
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
        while self.toks[self.i].kind != "eof":
            decls += self.decl()
        return ast.IdlUnit(tuple(decls), self.source)

    def decl(self) -> list[ast.Decl]:
        tok = self.toks[self.i]
        text = tok.text
        if text == "sml_name":
            if self.saw_sml_name:
                raise self.fail("duplicate sml_name annotation")
            self.saw_sml_name = True
            return [self.annotation()]
        if text == "typedef":
            return [self.typedef()]
        if text == "const":
            return [self.const_decl()]
        if text == "interface" or text == "[":
            return self.interface()
        raise self.fail(
            f"expected a declaration, found {tok.text or tok.kind!r}",
            expected={"typedef", "const", "interface", "sml_name"},
        )

    def annotation(self) -> ast.SmlName:
        name_tok = self.toks[self.i]     # `decl` saw `sml_name`
        self.i += 1
        self.expect("(")
        value = self.expect_kind("string")
        self.expect(")")
        self.expect(";")
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
        toks = self.toks
        kw = toks[self.i]                # the caller saw `typedef`
        self.i += 1
        loc = ast.Loc(kw.line, kw.col)
        attrs = self.attr_list("typedef") if toks[self.i].text == "[" else {}
        tok = toks[self.i]
        if tok.text == "struct" or tok.text == "enum":
            # typedef struct|enum [TAG] { ... } NAME;
            self.i += 1
            tag = None
            if toks[self.i].kind == "ident":
                tag = toks[self.i].text
                self.i += 1
            self.expect("{")
            if tok.text == "struct":
                return self.struct_body(tag, loc)
            return self.enum_body(tag, loc)
        t, stars, name_tok = self.declarator()
        if toks[self.i].text == "(":
            # typedef RET *NAME (params);  -- function-pointer typedef
            if stars < 1:
                raise self.fail("function typedef requires the `*NAME` spelling", name_tok)
            params = self.param_list()
            self.expect(";")
            self._declare(name_tok.text, "callback typedef", name_tok)
            return ast.Typedef(name_tok.text, ast.FuncType(tuple(params), t.to),
                               string="string" in attrs, loc=loc)
        self.expect(";")
        self._declare(name_tok.text, "typedef", name_tok)
        return ast.Typedef(name_tok.text, t, string="string" in attrs, loc=loc)

    def struct_body(self, tag: Optional[str], loc: ast.Loc) -> ast.RecordDecl:
        toks = self.toks
        fields: list[ast.FieldDecl] = []
        names: set[str] = set()
        while toks[self.i].text != "}":
            t, _, fname = self.declarator()
            self.expect(";")
            if fname.text in names:
                raise DuplicateName(f"duplicate field {fname.text!r}",
                                    fname.line, fname.col, self.source)
            names.add(fname.text)
            fields.append(ast.FieldDecl(fname.text, t, loc=ast.Loc(fname.line, fname.col)))
        self.i += 1
        name_tok = self.expect_kind("ident")
        self.expect(";")
        self._declare(name_tok.text, "struct typedef", name_tok)
        return ast.RecordDecl(name_tok.text, tuple(fields), tag=tag, loc=loc)

    def enum_body(self, tag: Optional[str], loc: ast.Loc) -> ast.EnumDecl:
        toks = self.toks
        variants: list[ast.EnumVariant] = []
        while toks[self.i].text != "}":
            vname = self.expect_kind("ident")
            self.expect("=")
            vtok = toks[self.i]
            if vtok.kind not in ("int", "word"):
                raise self.fail("expected an integer or 0wx word literal", vtok,
                                expected={"int", "word"})
            self.i += 1
            value = int(vtok.value)  # type: ignore[arg-type]
            if value > 0xFFFFFFFF:      # only a decimal: the lexer bounds a 0wx word
                raise self.fail(f"enum value {value} does not fit in 32 bits", vtok)
            self._declare(vname.text, "enum variant", vname)
            variants.append(ast.EnumVariant(vname.text, value, hex=vtok.kind == "word",
                                            loc=ast.Loc(vname.line, vname.col)))
            if toks[self.i].text != ",":
                break
            self.i += 1
        self.expect("}")
        name_tok = self.expect_kind("ident")
        self.expect(";")
        self._declare(name_tok.text, "enum typedef", name_tok)
        return ast.EnumDecl(name_tok.text, tuple(variants), tag=tag, loc=loc)

    def const_decl(self) -> ast.Const:
        kw = self.toks[self.i]           # the caller saw `const`
        self.i += 1
        t, _, name_tok = self.declarator()
        self.expect("=")
        vtok = self.toks[self.i]
        if vtok.kind not in ("int", "word", "string", "char"):
            raise self.fail("expected a literal", vtok,
                            expected={"int", "word", "string", "char"})
        self.i += 1
        self.expect(";")
        self._declare(name_tok.text, "const", name_tok)
        return ast.Const(name_tok.text, t, vtok.value, loc=ast.Loc(kw.line, kw.col))

    def interface(self) -> list[ast.Decl]:
        toks = self.toks
        attrs = self.attr_list("interface") if toks[self.i].text == "[" else {}
        kw = self.expect("interface")
        name_tok = self.expect_kind("ident")
        parent = None
        if self.accept(":"):
            parent = self.expect_kind("ident").text
        self.expect("{")
        hoisted: list[ast.Decl] = []
        ops: list[ast.OpDecl] = []
        op_names: set[str] = set()
        while True:
            start = toks[self.i]
            if start.text == "}":
                self.i += 1
                break
            if start.text == "typedef":
                hoisted.append(self.typedef())
                continue
            if start.text == "const":
                # a const declaration, unless an operation's `(` follows the
                # declarator: a result type may start with `const` too
                at = self.i
                self.i += 1
                self.declarator()
                is_op = toks[self.i].text == "("
                self.i = at
                if not is_op:
                    hoisted.append(self.const_decl())
                    continue
            t, _, op_tok = self.declarator()
            params = self.param_list()
            self.expect(";")
            if op_tok.text in op_names:
                raise DuplicateName(f"duplicate operation {op_tok.text!r}",
                                    start.line, start.col, self.source)
            op_names.add(op_tok.text)
            ops.append(ast.OpDecl(op_tok.text, t, tuple(params),
                                  loc=ast.Loc(start.line, start.col)))
        self.accept(";")
        self._declare(name_tok.text, "interface", name_tok)
        iface = ast.Interface(name_tok.text, tuple(ops), parent=parent,
                              sml_source=attrs.get("sml_source"),
                              loc=ast.Loc(kw.line, kw.col))
        return hoisted + [iface]

    def param_list(self) -> list[ast.ParamDecl]:
        toks = self.toks
        self.expect("(")
        params: list[ast.ParamDecl] = []
        names: set[str] = set()
        if toks[self.i].text != ")":
            while True:
                p = self.param()
                if p.name in names:
                    raise DuplicateName(f"duplicate parameter {p.name!r}",
                                        p.loc.line, p.loc.col, self.source)
                names.add(p.name)
                params.append(p)
                if toks[self.i].text != ",":
                    break
                self.i += 1
        self.expect(")")
        return params

    def param(self) -> ast.ParamDecl:
        toks = self.toks
        attrs = self.attr_list("param") if toks[self.i].text == "[" else {}
        start = toks[self.i]
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
        """`[name, name (arg), ...]`, whose `[` the caller saw."""
        toks = self.toks
        allowed = _ATTRS[context]
        attrs: dict[str, Optional[str]] = {}
        self.i += 1
        while True:
            tok = toks[self.i]
            if tok.kind not in ("ident", "keyword"):
                raise self.fail("expected an attribute name", tok)
            self.i += 1
            name = tok.text
            arg: Optional[str] = None
            if toks[self.i].text == "(":
                self.i += 1
                atok = toks[self.i]
                if atok.kind not in ("ident", "string"):
                    raise self.fail("expected an attribute argument", atok)
                self.i += 1
                arg = str(atok.value)
                self.expect(")")
            if name in _RPC_ONLY_ATTRS:
                raise self.fail(
                    f"attribute {name!r} is RPC-distribution IDL and is not part "
                    f"of this dialect", tok)
            if name not in allowed:
                raise self.fail(f"attribute {name!r} not allowed on a {context}", tok)
            if name in attrs:
                raise self.fail(f"duplicate attribute {name!r}", tok)
            attrs[name] = arg
            if toks[self.i].text != ",":
                break
            self.i += 1
        self.expect("]")
        return attrs

    def declarator(self) -> tuple[ast.IdlType, int, Token]:
        """`[const] type [&] *... name`, the one spelling of a typedef,
        field, const, operation and parameter: the base or named type with
        its pointers (a C++-style `&`, then at most two `*`s), the number of
        `*`s and the name token.  `const` is kept on a named type only."""
        toks = self.toks
        tok = toks[self.i]
        is_const = tok.text == "const"
        if is_const:
            self.i += 1
            tok = toks[self.i]
        if tok.text == "unsigned":
            self.i += 1
            self.expect("long")
            t: ast.IdlType = ast.BaseType("unsigned long")
        elif tok.text in ast.BASE_TYPES:
            self.i += 1
            t = ast.BaseType(tok.text)
        elif tok.kind == "ident":
            self.i += 1
            t = ast.NamedType(tok.text, const=is_const)
        else:
            raise self.fail(f"expected a type, found {tok.text or tok.kind!r}", tok,
                            expected={"type"})
        tok = toks[self.i]
        if tok.text == "&":
            self.i += 1
            t = ast.PtrType(t, amp=True)
            tok = toks[self.i]
        stars = 0
        while tok.text == "*":
            self.i += 1
            stars += 1
            if stars > 2:
                raise self.fail("pointer depth greater than 2 is not supported", tok)
            t = ast.PtrType(t)
            tok = toks[self.i]
        if tok.kind != "ident":
            raise self.missing("ident")
        self.i += 1
        return t, stars, tok
