"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from ..errors import CompileError
from . import ast_nodes as ast
from .ctypes import (
    CType,
    FuncType,
    ArrayType,
    IntType,
    PtrType,
    StructType,
    VOID,
)
from .lexer import Token, tokenize

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}

#: Binary operator precedence (higher binds tighter).
_BIN_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.structs: dict[str, StructType] = {}

    # -- token plumbing ------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.tok
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text or kind
            raise CompileError(
                f"expected {want!r}, found {self.tok.text!r}",
                self.tok.line)
        return tok

    def expect_op(self, text: str) -> Token:
        return self.expect("op", text)

    # -- types ---------------------------------------------------------------

    def at_type(self) -> bool:
        tok = self.tok
        if tok.kind != "keyword":
            return False
        return tok.text in ("int", "char", "short", "void", "struct",
                            "unsigned", "const")

    def parse_base_type(self) -> CType:
        self.accept("keyword", "const")
        unsigned = bool(self.accept("keyword", "unsigned"))
        if self.accept("keyword", "int"):
            return IntType(4, signed=not unsigned)
        if self.accept("keyword", "char"):
            return IntType(1, signed=not unsigned)
        if self.accept("keyword", "short"):
            self.accept("keyword", "int")
            return IntType(2, signed=not unsigned)
        if unsigned:
            return IntType(4, signed=False)
        if self.accept("keyword", "void"):
            return VOID
        if self.accept("keyword", "struct"):
            name = self.expect("ident").text
            struct = self.structs.get(name)
            if struct is None:
                struct = StructType(name)
                self.structs[name] = struct
            if self.tok.kind == "op" and self.tok.text == "{":
                self.advance()
                if struct.complete:
                    raise CompileError(f"redefinition of struct {name}",
                                       self.tok.line)
                fields: list[tuple[str, CType]] = []
                while not self.accept("op", "}"):
                    base = self.parse_base_type()
                    while True:
                        fname, ftype = self.parse_declarator(base)
                        fields.append((fname, ftype))
                        if not self.accept("op", ","):
                            break
                    self.expect_op(";")
                struct.lay_out(fields)
            return struct
        raise CompileError(f"expected type, found {self.tok.text!r}",
                           self.tok.line)

    def parse_declarator(self, base: CType) -> tuple[str, CType]:
        """Parse pointers, name and suffixes. Returns (name, type).

        Supports ``int *p``, ``int a[4][4]``, ``int (*fp)(int, int)`` and
        plain function declarators ``int f(int x)`` (the caller decides
        whether a body follows).
        """
        ctype = base
        while self.accept("op", "*"):
            self.accept("keyword", "const")
            ctype = PtrType(ctype)
        if self.accept("op", "("):
            # Parenthesized declarator: "(*name)" or "(*name[N])" --
            # a function pointer or an array of function pointers.
            self.expect_op("*")
            name = self.expect("ident").text
            fp_dims: list[int] = []
            while self.tok.kind == "op" and self.tok.text == "[":
                self.advance()
                fp_dims.append(self.parse_const_int())
                self.expect_op("]")
            self.expect_op(")")
            params, vararg = self.parse_param_types()
            ctype = PtrType(FuncType(ctype, tuple(params), vararg))
            for dim in reversed(fp_dims):
                ctype = ArrayType(ctype, dim)
            return name, ctype
        name = self.expect("ident").text
        dims: list[int] = []
        while self.tok.kind == "op" and self.tok.text == "[":
            self.advance()
            if self.tok.kind == "op" and self.tok.text == "]":
                dims.append(-1)  # size from initializer
                self.advance()
            else:
                dims.append(self.parse_const_int())
                self.expect_op("]")
        for dim in reversed(dims):
            ctype = ArrayType(ctype, dim)
        return name, ctype

    def parse_param_types(self) -> tuple[list[CType], bool]:
        self.expect_op("(")
        params: list[CType] = []
        vararg = False
        if self.accept("op", ")"):
            return params, vararg
        if self.tok.kind == "keyword" and self.tok.text == "void" \
                and self.peek().text == ")":
            self.advance()
            self.expect_op(")")
            return params, vararg
        while True:
            if self.accept("op", "..."):
                vararg = True
                break
            base = self.parse_base_type()
            ctype = base
            while self.accept("op", "*"):
                ctype = PtrType(ctype)
            self.accept("ident")  # optional parameter name
            params.append(ctype)
            if not self.accept("op", ","):
                break
        self.expect_op(")")
        return params, vararg

    def parse_const_int(self) -> int:
        expr = self.parse_ternary()
        value = _const_eval(expr)
        if value is None:
            raise CompileError("expected constant expression",
                               self.tok.line)
        return value

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Node:
        expr = self.parse_assignment()
        while self.accept("op", ","):
            rhs = self.parse_assignment()
            expr = ast.Binary(",", expr, rhs, line=rhs.line)
        return expr

    def parse_assignment(self) -> ast.Node:
        lhs = self.parse_ternary()
        if self.tok.kind == "op" and self.tok.text in _ASSIGN_OPS:
            op = self.advance().text
            rhs = self.parse_assignment()
            return ast.Assign(op, lhs, rhs, line=lhs.line)
        return lhs

    def parse_ternary(self) -> ast.Node:
        cond = self.parse_binary(1)
        if self.accept("op", "?"):
            if_true = self.parse_assignment()
            self.expect_op(":")
            if_false = self.parse_ternary()
            return ast.Ternary(cond, if_true, if_false, line=cond.line)
        return cond

    def parse_binary(self, min_prec: int) -> ast.Node:
        lhs = self.parse_unary()
        while True:
            tok = self.tok
            if tok.kind != "op":
                return lhs
            prec = _BIN_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                return lhs
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = ast.Binary(tok.text, lhs, rhs, line=tok.line)

    def parse_unary(self) -> ast.Node:
        tok = self.tok
        if tok.kind == "op" and tok.text in ("-", "!", "~", "*", "&",
                                             "++", "--"):
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(tok.text, operand, line=tok.line)
        if tok.kind == "keyword" and tok.text == "sizeof":
            self.advance()
            if self.tok.kind == "op" and self.tok.text == "(" and \
                    self._type_follows(1):
                self.advance()
                ctype = self.parse_type_name()
                self.expect_op(")")
                return ast.SizeofType(ctype, line=tok.line)
            operand = self.parse_unary()
            return ast.SizeofExpr(operand, line=tok.line)
        if tok.kind == "op" and tok.text == "(" and self._type_follows(1):
            self.advance()
            ctype = self.parse_type_name()
            self.expect_op(")")
            operand = self.parse_unary()
            return ast.Cast(ctype, operand, line=tok.line)
        return self.parse_postfix()

    def _type_follows(self, offset: int) -> bool:
        tok = self.peek(offset)
        return tok.kind == "keyword" and tok.text in (
            "int", "char", "short", "void", "struct", "unsigned", "const")

    def parse_type_name(self) -> CType:
        ctype = self.parse_base_type()
        while self.accept("op", "*"):
            ctype = PtrType(ctype)
        return ctype

    def parse_postfix(self) -> ast.Node:
        expr = self.parse_primary()
        while True:
            tok = self.tok
            if tok.kind != "op":
                return expr
            if tok.text == "(":
                self.advance()
                args: list[ast.Node] = []
                if not self.accept("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                    self.expect_op(")")
                expr = ast.Call(expr, args, line=tok.line)
            elif tok.text == "[":
                self.advance()
                index = self.parse_expression()
                self.expect_op("]")
                expr = ast.Index(expr, index, line=tok.line)
            elif tok.text == ".":
                self.advance()
                name = self.expect("ident").text
                expr = ast.Member(expr, name, arrow=False, line=tok.line)
            elif tok.text == "->":
                self.advance()
                name = self.expect("ident").text
                expr = ast.Member(expr, name, arrow=True, line=tok.line)
            elif tok.text in ("++", "--"):
                self.advance()
                expr = ast.Postfix(tok.text, expr, line=tok.line)
            else:
                return expr

    def parse_primary(self) -> ast.Node:
        tok = self.tok
        if tok.kind == "int" or tok.kind == "char":
            self.advance()
            return ast.IntLit(tok.value, line=tok.line)
        if tok.kind == "string":
            self.advance()
            value = tok.value
            while self.tok.kind == "string":  # adjacent literal concat
                value += self.advance().value
            return ast.StrLit(value, line=tok.line)
        if tok.kind == "ident":
            self.advance()
            return ast.Ident(tok.text, line=tok.line)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        raise CompileError(f"unexpected token {tok.text!r}", tok.line)

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> ast.Node:
        tok = self.tok
        if tok.kind == "op" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "keyword":
            if tok.text == "if":
                self.advance()
                self.expect_op("(")
                cond = self.parse_expression()
                self.expect_op(")")
                then = self.parse_statement()
                otherwise = None
                if self.accept("keyword", "else"):
                    otherwise = self.parse_statement()
                return ast.If(cond, then, otherwise, line=tok.line)
            if tok.text == "while":
                self.advance()
                self.expect_op("(")
                cond = self.parse_expression()
                self.expect_op(")")
                body = self.parse_statement()
                return ast.While(cond, body, line=tok.line)
            if tok.text == "do":
                self.advance()
                body = self.parse_statement()
                self.expect("keyword", "while")
                self.expect_op("(")
                cond = self.parse_expression()
                self.expect_op(")")
                self.expect_op(";")
                return ast.DoWhile(body, cond, line=tok.line)
            if tok.text == "for":
                self.advance()
                self.expect_op("(")
                init: ast.Node | None = None
                if not self.accept("op", ";"):
                    if self.at_type():
                        init = self.parse_declaration_stmt()
                    else:
                        init = ast.ExprStmt(self.parse_expression(),
                                            line=tok.line)
                        self.expect_op(";")
                cond = None
                if not self.accept("op", ";"):
                    cond = self.parse_expression()
                    self.expect_op(";")
                step = None
                if not (self.tok.kind == "op" and self.tok.text == ")"):
                    step = self.parse_expression()
                self.expect_op(")")
                body = self.parse_statement()
                return ast.For(init, cond, step, body, line=tok.line)
            if tok.text == "return":
                self.advance()
                value = None
                if not (self.tok.kind == "op" and self.tok.text == ";"):
                    value = self.parse_expression()
                self.expect_op(";")
                return ast.Return(value, line=tok.line)
            if tok.text == "break":
                self.advance()
                self.expect_op(";")
                return ast.Break(line=tok.line)
            if tok.text == "continue":
                self.advance()
                self.expect_op(";")
                return ast.Continue(line=tok.line)
            if tok.text == "switch":
                return self.parse_switch()
            if tok.text in ("case", "default"):
                raise CompileError("case label outside switch", tok.line)
            if self.at_type() or tok.text in ("static", "extern"):
                return self.parse_declaration_stmt()
        if self.accept("op", ";"):
            return ast.ExprStmt(None, line=tok.line)
        expr = self.parse_expression()
        self.expect_op(";")
        return ast.ExprStmt(expr, line=tok.line)

    def parse_switch(self) -> ast.Node:
        tok = self.expect("keyword", "switch")
        self.expect_op("(")
        expr = self.parse_expression()
        self.expect_op(")")
        self.expect_op("{")
        body: list[ast.Node] = []
        while not self.accept("op", "}"):
            if self.accept("keyword", "case"):
                value = self.parse_const_int()
                self.expect_op(":")
                body.append(ast.CaseLabel(value, line=self.tok.line))
            elif self.accept("keyword", "default"):
                self.expect_op(":")
                body.append(ast.CaseLabel(None, line=self.tok.line))
            else:
                body.append(self.parse_statement())
        return ast.Switch(expr, body, line=tok.line)

    def parse_block(self) -> ast.Block:
        tok = self.expect_op("{")
        stmts: list[ast.Node] = []
        while not self.accept("op", "}"):
            stmts.append(self.parse_statement())
        return ast.Block(stmts, line=tok.line)

    def parse_declaration_stmt(self) -> ast.DeclStmt:
        line = self.tok.line
        static = bool(self.accept("keyword", "static"))
        self.accept("keyword", "extern")
        base = self.parse_base_type()
        decls: list[ast.VarDecl] = []
        if self.tok.kind == "op" and self.tok.text == ";":
            self.advance()  # bare struct declaration
            return ast.DeclStmt(decls, line=line)
        while True:
            name, ctype = self.parse_declarator(base)
            init = None
            if self.accept("op", "="):
                init = self.parse_initializer()
            ctype = _complete_array_from_init(ctype, init, line)
            decls.append(ast.VarDecl(name, ctype, init, static, line=line))
            if not self.accept("op", ","):
                break
        self.expect_op(";")
        return ast.DeclStmt(decls, line=line)

    def parse_initializer(self):
        if self.tok.kind == "op" and self.tok.text == "{":
            self.advance()
            items = []
            if not self.accept("op", "}"):
                while True:
                    items.append(self.parse_initializer())
                    if not self.accept("op", ","):
                        break
                    if self.tok.kind == "op" and self.tok.text == "}":
                        break  # trailing comma
                self.expect_op("}")
            return items
        return self.parse_assignment()

    # -- top level ---------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit([])
        while self.tok.kind != "eof":
            unit.decls.extend(self.parse_top_level())
        return unit

    def parse_top_level(self) -> list[ast.Node]:
        line = self.tok.line
        static = bool(self.accept("keyword", "static"))
        extern = bool(self.accept("keyword", "extern"))
        base = self.parse_base_type()
        if self.accept("op", ";"):
            return []  # bare struct definition
        name, ctype = self.parse_declarator(base)
        # Function definition or prototype?
        if self.tok.kind == "op" and self.tok.text == "(" and \
                not isinstance(ctype, PtrType):
            params = self.parse_params_with_names()
            if self.accept("op", ";"):
                return [ast.FuncDef(name, ctype, params, None, static,
                                    line=line)]
            body = self.parse_block()
            return [ast.FuncDef(name, ctype, params, body, static,
                                line=line)]
        decls: list[ast.Node] = []
        while True:
            init = None
            if self.accept("op", "="):
                init = self.parse_initializer()
            ctype = _complete_array_from_init(ctype, init, line)
            if not extern:
                decls.append(ast.VarDecl(name, ctype, init, static,
                                         line=line))
            if not self.accept("op", ","):
                break
            name, ctype = self.parse_declarator(base)
        self.expect_op(";")
        return decls

    def parse_params_with_names(self) -> list[tuple[str, CType]]:
        self.expect_op("(")
        params: list[tuple[str, CType]] = []
        if self.accept("op", ")"):
            return params
        if self.tok.kind == "keyword" and self.tok.text == "void" \
                and self.peek().text == ")":
            self.advance()
            self.expect_op(")")
            return params
        while True:
            base = self.parse_base_type()
            pname, ptype = self.parse_declarator(base)
            from .ctypes import decay
            params.append((pname, decay(ptype)))
            if not self.accept("op", ","):
                break
        self.expect_op(")")
        return params


def _complete_array_from_init(ctype: CType, init, line: int) -> CType:
    """Fill in ``[]`` array sizes from initializer lists / string
    literals."""
    if isinstance(ctype, ArrayType) and ctype.count == -1:
        if isinstance(init, list):
            return ArrayType(ctype.element, len(init))
        if isinstance(init, ast.StrLit):
            return ArrayType(ctype.element, len(init.value) + 1)
        raise CompileError("cannot size [] array without initializer",
                           line)
    return ctype


def _const_eval(expr) -> int | None:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _const_eval(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.Binary):
        lhs = _const_eval(expr.lhs)
        rhs = _const_eval(expr.rhs)
        if lhs is None or rhs is None:
            return None
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b,
               "/": lambda a, b: int(a / b) if b else None,
               "%": lambda a, b: a - int(a / b) * b if b else None,
               "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
               "|": lambda a, b: a | b, "&": lambda a, b: a & b,
               "^": lambda a, b: a ^ b}
        fn = ops.get(expr.op)
        return fn(lhs, rhs) if fn else None
    return None


def parse(source: str) -> ast.TranslationUnit:
    return Parser(source).parse_translation_unit()
