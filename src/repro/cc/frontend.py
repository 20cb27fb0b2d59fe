"""MiniC frontend: lowers the AST to repro IR.

The output is straightforward, unoptimized IR in the classic frontend
style: one alloca per local, parameters copied into allocas, loads and
stores everywhere.  The personality pipelines (:mod:`repro.cc.
personalities`) then shape it into gcc-4.4-like, gcc-12-like or
clang-16-like code before lowering.
"""

from __future__ import annotations

from ..errors import CompileError
from ..ir import (
    Builder,
    Const,
    FuncRef,
    Function,
    GlobalRef,
    GlobalVar,
    Module,
    Value,
)
from . import ast_nodes as ast
from .ctypes import (
    ArrayType,
    CHAR,
    CType,
    FuncType,
    INT,
    IntType,
    PtrType,
    StructType,
    UINT,
    VOID,
    decay,
    pointee_size,
)

#: Prototypes of the external C library (matches repro.emu.libc).
LIBC_PROTOS: dict[str, FuncType] = {
    "printf": FuncType(INT, (PtrType(CHAR),), vararg=True),
    "sprintf": FuncType(INT, (PtrType(CHAR), PtrType(CHAR)), vararg=True),
    "puts": FuncType(INT, (PtrType(CHAR),)),
    "putchar": FuncType(INT, (INT,)),
    "memcpy": FuncType(PtrType(VOID), (PtrType(VOID), PtrType(VOID), UINT)),
    "memmove": FuncType(PtrType(VOID), (PtrType(VOID), PtrType(VOID),
                                        UINT)),
    "memset": FuncType(PtrType(VOID), (PtrType(VOID), INT, UINT)),
    "memcmp": FuncType(INT, (PtrType(VOID), PtrType(VOID), UINT)),
    "strlen": FuncType(INT, (PtrType(CHAR),)),
    "strcpy": FuncType(PtrType(CHAR), (PtrType(CHAR), PtrType(CHAR))),
    "strcmp": FuncType(INT, (PtrType(CHAR), PtrType(CHAR))),
    "strcat": FuncType(PtrType(CHAR), (PtrType(CHAR), PtrType(CHAR))),
    "strtok": FuncType(PtrType(CHAR), (PtrType(CHAR), PtrType(CHAR))),
    "atoi": FuncType(INT, (PtrType(CHAR),)),
    "malloc": FuncType(PtrType(VOID), (UINT,)),
    "calloc": FuncType(PtrType(VOID), (UINT, UINT)),
    "free": FuncType(VOID, (PtrType(VOID),)),
    "exit": FuncType(VOID, (INT,)),
    "abs": FuncType(INT, (INT,)),
    "rand": FuncType(INT, ()),
    "srand": FuncType(VOID, (UINT,)),
    "read_int": FuncType(INT, ()),
    "read_buf": FuncType(INT, (PtrType(VOID), UINT)),
}


class _RV:
    """An rvalue: a 32-bit IR value plus its C type."""

    __slots__ = ("value", "ctype")

    def __init__(self, value: Value, ctype: CType):
        self.value = value
        self.ctype = ctype


class _LV:
    """An lvalue: an address plus the C type stored there."""

    __slots__ = ("addr", "ctype")

    def __init__(self, addr: Value, ctype: CType):
        self.addr = addr
        self.ctype = ctype


def _access_size(ctype: CType) -> int:
    if isinstance(ctype, IntType):
        return ctype.width
    return 4


class Frontend:
    def __init__(self, unit: ast.TranslationUnit, name: str = "minic"):
        self.unit = unit
        self.module = Module(name)
        self.func_types: dict[str, FuncType] = {}
        self.global_types: dict[str, CType] = {}
        self.strings: dict[bytes, str] = {}
        self._static_counter = 0
        self._label_counter = 0

    # -- driver ---------------------------------------------------------------

    def lower(self) -> Module:
        for decl in self.unit.decls:
            if isinstance(decl, ast.FuncDef):
                params = tuple(decay(t) for _n, t in decl.params)
                self.func_types[decl.name] = FuncType(decl.ret, params)
            elif isinstance(decl, ast.VarDecl):
                self._lower_global(decl)
        for decl in self.unit.decls:
            if isinstance(decl, ast.FuncDef) and decl.body is not None:
                self._lower_function(decl)
        if "main" not in self.module.functions:
            raise CompileError("program has no main function")
        self._emit_start()
        return self.module

    def _emit_start(self) -> None:
        start = Function("_start", [])
        self.module.add_function(start)
        self.module.entry_name = "_start"
        b = Builder(start)
        b.position(start.add_block("entry"))
        code = b.call("main", [])
        b.call_external("exit", [code])
        b.ret([Const(0)])

    # -- globals ----------------------------------------------------------------

    def _lower_global(self, decl: ast.VarDecl) -> None:
        init = self._global_init_payload(decl.ctype, decl.init, decl.line)
        self.module.add_global(GlobalVar(
            decl.name, max(decl.ctype.size, 1), init,
            align=decl.ctype.align))
        self.global_types[decl.name] = decl.ctype

    def _global_init_payload(self, ctype: CType, init, line: int):
        if init is None:
            return b""
        words = self._flatten_init(ctype, init, line)
        if all(isinstance(w, tuple) and w[0] == "byte" for w in words):
            return bytes(w[1] & 0xFF for w in words)
        # Mixed: encode as 32-bit word list (only word-aligned layouts).
        out = []
        for w in words:
            if w[0] == "word":
                out.append(w[1])
            elif w[0] == "byte":
                raise CompileError(
                    "byte-grain global initializer with symbolic words "
                    "is unsupported", line)
            else:
                out.append(w[1])  # ("ref", FuncRef/GlobalRef)
        return out

    def _flatten_init(self, ctype: CType, init, line: int) -> list:
        """Flatten an initializer into ('byte', v) / ('word', v) /
        ('ref', symbol) cells covering ``ctype`` exactly."""
        if isinstance(ctype, ArrayType):
            if isinstance(init, ast.StrLit) and ctype.element.size == 1:
                data = init.value + b"\x00"
                data += b"\x00" * (ctype.count - len(data))
                return [("byte", b) for b in data[:ctype.count]]
            if not isinstance(init, list):
                raise CompileError("array initializer must be a list",
                                   line)
            cells: list = []
            for i in range(ctype.count):
                item = init[i] if i < len(init) else None
                if item is None:
                    cells.extend(self._zero_cells(ctype.element))
                else:
                    cells.extend(self._flatten_init(ctype.element, item,
                                                    line))
            return cells
        if isinstance(ctype, StructType):
            if not isinstance(init, list):
                raise CompileError("struct initializer must be a list",
                                   line)
            cells = []
            for i, f in enumerate(ctype.fields):
                item = init[i] if i < len(init) else None
                if item is None:
                    cells.extend(self._zero_cells(f.ctype))
                else:
                    cells.extend(self._flatten_init(f.ctype, item, line))
            return cells
        # Scalar cell.
        value = self._const_scalar(init, line)
        if isinstance(value, tuple):  # symbolic ref
            return [value]
        size = _access_size(ctype)
        if size == 4:
            return [("word", value & 0xFFFFFFFF)]
        return [("byte", (value >> (8 * i)) & 0xFF) for i in range(size)]

    def _zero_cells(self, ctype: CType) -> list:
        if isinstance(ctype, (ArrayType, StructType)):
            return [("byte", 0)] * ctype.size
        size = _access_size(ctype)
        return [("word", 0)] if size == 4 else [("byte", 0)] * size

    def _const_scalar(self, init, line: int):
        from .parser import _const_eval
        if isinstance(init, ast.StrLit):
            return ("ref", GlobalRef(self._intern_string(init.value)))
        if isinstance(init, ast.Ident) and init.name in self.func_types:
            return ("ref", FuncRef(init.name))
        if isinstance(init, ast.Unary) and init.op == "&" and \
                isinstance(init.operand, ast.Ident):
            name = init.operand.name
            if name in self.func_types:
                return ("ref", FuncRef(name))
            if name in self.global_types:
                return ("ref", GlobalRef(name))
        value = _const_eval(init)
        if value is None:
            raise CompileError("global initializer must be constant", line)
        return value

    def _intern_string(self, value: bytes) -> str:
        name = self.strings.get(value)
        if name is None:
            name = f"str.{len(self.strings)}"
            self.strings[value] = name
            self.module.add_global(GlobalVar(
                name, len(value) + 1, value + b"\x00", align=1,
                writable=False))
        return name

    # -- functions ----------------------------------------------------------------

    def _lower_function(self, decl: ast.FuncDef) -> None:
        func = Function(decl.name, [n for n, _t in decl.params])
        self.module.add_function(func)
        self.func = func
        self.ret_type = decl.ret
        self.builder = Builder(func)
        self.builder.position(func.add_block("entry"))
        self.scopes: list[dict[str, _LV]] = [{}]
        self.break_stack: list = []
        self.continue_stack: list = []

        # Parameters land in allocas so their address can be taken.
        for param, (name, ctype) in zip(func.params, decl.params,
                                        strict=True):
            slot = self.builder.alloca(max(ctype.size, 4), ctype.align,
                                       name=name)
            self.builder.store(slot, param, 4)
            self.scopes[0][name] = _LV(slot, ctype)

        self._gen_stmt(decl.body)
        if not self.builder.block.is_terminated:
            self.builder.ret([Const(0)])

    def _new_label(self, base: str) -> str:
        self._label_counter += 1
        return f"{base}.{self._label_counter}"

    def _lookup(self, name: str, line: int) -> _LV | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.global_types:
            return _LV(GlobalRef(name), self.global_types[name])
        return None

    # -- statements ------------------------------------------------------------------

    def _gen_stmt(self, stmt: ast.Node) -> None:
        b = self.builder
        if isinstance(stmt, ast.Block):
            self.scopes.append({})
            for inner in stmt.stmts:
                self._gen_stmt(inner)
            self.scopes.pop()
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._gen_expr(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._gen_local_decl(decl)
        elif isinstance(stmt, ast.If):
            cond = self._gen_cond(stmt.cond)
            then_block = b.new_block(self._new_label("if.then"))
            end_block = b.new_block(self._new_label("if.end"))
            else_block = b.new_block(self._new_label("if.else")) \
                if stmt.otherwise is not None else end_block
            b.condbr(cond, then_block, else_block)
            b.position(then_block)
            self._gen_stmt(stmt.then)
            if not b.block.is_terminated:
                b.br(end_block)
            if stmt.otherwise is not None:
                b.position(else_block)
                self._gen_stmt(stmt.otherwise)
                if not b.block.is_terminated:
                    b.br(end_block)
            b.position(end_block)
        elif isinstance(stmt, ast.While):
            head = b.new_block(self._new_label("while.head"))
            body = b.new_block(self._new_label("while.body"))
            end = b.new_block(self._new_label("while.end"))
            b.br(head)
            b.position(head)
            cond = self._gen_cond(stmt.cond)
            b.condbr(cond, body, end)
            b.position(body)
            self.break_stack.append(end)
            self.continue_stack.append(head)
            self._gen_stmt(stmt.body)
            self.break_stack.pop()
            self.continue_stack.pop()
            if not b.block.is_terminated:
                b.br(head)
            b.position(end)
        elif isinstance(stmt, ast.DoWhile):
            body = b.new_block(self._new_label("do.body"))
            head = b.new_block(self._new_label("do.cond"))
            end = b.new_block(self._new_label("do.end"))
            b.br(body)
            b.position(body)
            self.break_stack.append(end)
            self.continue_stack.append(head)
            self._gen_stmt(stmt.body)
            self.break_stack.pop()
            self.continue_stack.pop()
            if not b.block.is_terminated:
                b.br(head)
            b.position(head)
            cond = self._gen_cond(stmt.cond)
            b.condbr(cond, body, end)
            b.position(end)
        elif isinstance(stmt, ast.For):
            self.scopes.append({})
            if stmt.init is not None:
                self._gen_stmt(stmt.init)
            head = b.new_block(self._new_label("for.head"))
            body = b.new_block(self._new_label("for.body"))
            step = b.new_block(self._new_label("for.step"))
            end = b.new_block(self._new_label("for.end"))
            b.br(head)
            b.position(head)
            if stmt.cond is not None:
                cond = self._gen_cond(stmt.cond)
                b.condbr(cond, body, end)
            else:
                b.br(body)
            b.position(body)
            self.break_stack.append(end)
            self.continue_stack.append(step)
            self._gen_stmt(stmt.body)
            self.break_stack.pop()
            self.continue_stack.pop()
            if not b.block.is_terminated:
                b.br(step)
            b.position(step)
            if stmt.step is not None:
                self._gen_expr(stmt.step)
            b.br(head)
            b.position(end)
            self.scopes.pop()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                rv = self._rvalue(stmt.value)
                b.ret([rv.value])
            else:
                b.ret([Const(0)])
            b.position(b.new_block(self._new_label("dead")))
        elif isinstance(stmt, ast.Break):
            if not self.break_stack:
                raise CompileError("break outside loop/switch", stmt.line)
            b.br(self.break_stack[-1])
            b.position(b.new_block(self._new_label("dead")))
        elif isinstance(stmt, ast.Continue):
            if not self.continue_stack:
                raise CompileError("continue outside loop", stmt.line)
            b.br(self.continue_stack[-1])
            b.position(b.new_block(self._new_label("dead")))
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        else:
            raise CompileError(f"unsupported statement {stmt!r}",
                               getattr(stmt, "line", 0))

    def _gen_switch(self, stmt: ast.Switch) -> None:
        b = self.builder
        value = self._rvalue(stmt.expr).value
        end = b.new_block(self._new_label("switch.end"))
        # One block per label position; fallthrough chains them.
        label_blocks: list = []
        cases: list[tuple[int, object]] = []
        default_block = None
        for item in stmt.body:
            if isinstance(item, ast.CaseLabel):
                block = b.new_block(self._new_label("switch.case"))
                label_blocks.append((item, block))
                if item.value is None:
                    default_block = block
                else:
                    cases.append((item.value, block))
        b.switch(value, cases, default_block or end)
        self.break_stack.append(end)
        current = None
        label_iter = iter(label_blocks)
        next_label = next(label_iter, None)
        for item in stmt.body:
            if isinstance(item, ast.CaseLabel):
                block = next_label[1]
                next_label = next(label_iter, None)
                if current is not None and not current.is_terminated:
                    b.position(current)
                    b.br(block)
                b.position(block)
                current = block
            else:
                if current is None:
                    raise CompileError("statement before first case label",
                                       item.line)
                b.position(current)
                self._gen_stmt(item)
                current = b.block
        if current is not None and not current.is_terminated:
            b.position(current)
            b.br(end)
        self.break_stack.pop()
        b.position(end)

    def _gen_local_decl(self, decl: ast.VarDecl) -> None:
        b = self.builder
        if decl.static:
            self._static_counter += 1
            gname = f"{self.func.name}.static.{decl.name}." \
                    f"{self._static_counter}"
            init = self._global_init_payload(decl.ctype, decl.init,
                                             decl.line)
            self.module.add_global(GlobalVar(
                gname, max(decl.ctype.size, 1), init,
                align=decl.ctype.align))
            self.scopes[-1][decl.name] = _LV(GlobalRef(gname), decl.ctype)
            return
        slot = self._entry_alloca(max(decl.ctype.size, 1),
                                  decl.ctype.align, decl.name)
        lv = _LV(slot, decl.ctype)
        self.scopes[-1][decl.name] = lv
        if decl.init is not None:
            self._gen_local_init(lv, decl.ctype, decl.init, decl.line)

    def _entry_alloca(self, size: int, align: int, name: str) -> Value:
        """Allocas always land in the entry block (static frame layout)."""
        from ..ir.values import Alloca
        alloca = Alloca(size, align, name)
        entry = self.func.entry
        index = 0
        for index, instr in enumerate(entry.instrs):
            if not isinstance(instr, Alloca):
                break
        else:
            index = len(entry.instrs)
        entry.insert(index, alloca)
        return alloca

    def _gen_local_init(self, lv: _LV, ctype: CType, init,
                        line: int) -> None:
        b = self.builder
        if isinstance(ctype, ArrayType):
            if isinstance(init, ast.StrLit) and ctype.element.size == 1:
                src = GlobalRef(self._intern_string(init.value))
                b.call_external("memcpy", [lv.addr, src,
                                           Const(len(init.value) + 1)])
                return
            if not isinstance(init, list):
                raise CompileError("array initializer must be a list",
                                   line)
            for i, item in enumerate(init):
                addr = b.add(lv.addr, Const(i * ctype.element.size))
                self._gen_local_init(_LV(addr, ctype.element),
                                     ctype.element, item, line)
            return
        if isinstance(ctype, StructType):
            if not isinstance(init, list):
                rv = self._rvalue(init)  # struct expression: copy it
                if not isinstance(rv.ctype, StructType):
                    raise CompileError(
                        "struct initializer must be a struct or list",
                        line)
                self._copy_struct(lv.addr, rv.value, ctype)
                return
            for f, item in zip(ctype.fields, init, strict=False):
                addr = b.add(lv.addr, Const(f.offset))
                self._gen_local_init(_LV(addr, f.ctype), f.ctype, item,
                                     line)
            return
        rv = self._rvalue(init)
        b.store(lv.addr, rv.value, _access_size(ctype))

    # -- expressions ---------------------------------------------------------------

    def _gen_cond(self, expr: ast.Node) -> Value:
        rv = self._rvalue(expr)
        return self.builder.icmp("ne", rv.value, Const(0))

    def _load(self, lv: _LV) -> _RV:
        ctype = lv.ctype
        if isinstance(ctype, (ArrayType, FuncType)):
            return _RV(lv.addr, decay(ctype))  # decay to pointer
        if isinstance(ctype, StructType):
            return _RV(lv.addr, ctype)  # struct rvalue = its address
        size = _access_size(ctype)
        loaded = self.builder.load(lv.addr, size)
        if isinstance(ctype, IntType) and ctype.width < 4 and ctype.signed:
            loaded = self.builder.unary(f"sext{ctype.width * 8}", loaded)
        return _RV(loaded, ctype)

    def _store(self, lv: _LV, rv: _RV, line: int) -> None:
        if isinstance(lv.ctype, StructType):
            self._copy_struct(lv.addr, rv.value, lv.ctype)
            return
        self.builder.store(lv.addr, rv.value, _access_size(lv.ctype))

    def _copy_struct(self, dst: Value, src: Value,
                     ctype: StructType) -> None:
        b = self.builder
        size = ctype.size
        if size > 64:
            b.call_external("memcpy", [dst, src, Const(size)])
            return
        offset = 0
        while offset + 4 <= size:
            word = b.load(b.add(src, Const(offset)), 4)
            b.store(b.add(dst, Const(offset)), word, 4)
            offset += 4
        while offset < size:
            byte = b.load(b.add(src, Const(offset)), 1)
            b.store(b.add(dst, Const(offset)), byte, 1)
            offset += 1

    def _rvalue(self, expr: ast.Node) -> _RV:
        rv = self._gen_expr(expr)
        if isinstance(rv, _LV):
            return self._load(rv)
        return rv

    def _lvalue(self, expr: ast.Node) -> _LV:
        out = self._gen_expr(expr)
        if isinstance(out, _LV):
            return out
        raise CompileError("expression is not an lvalue",
                           getattr(expr, "line", 0))

    def _gen_expr(self, expr: ast.Node) -> _RV | _LV:
        b = self.builder
        if isinstance(expr, ast.IntLit):
            return _RV(Const(expr.value), INT)
        if isinstance(expr, ast.StrLit):
            return _RV(GlobalRef(self._intern_string(expr.value)),
                       PtrType(CHAR))
        if isinstance(expr, ast.Ident):
            lv = self._lookup(expr.name, expr.line)
            if lv is not None:
                return lv
            if expr.name in self.func_types:
                return _RV(FuncRef(expr.name),
                           PtrType(self.func_types[expr.name]))
            if expr.name in LIBC_PROTOS:
                return _RV(Const(0), PtrType(LIBC_PROTOS[expr.name]))
            raise CompileError(f"undefined identifier {expr.name!r}",
                               expr.line)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Postfix):
            lv = self._lvalue(expr.operand)
            old = self._load(lv)
            delta = pointee_size(old.ctype) \
                if isinstance(decay(old.ctype), PtrType) else 1
            op = "add" if expr.op == "++" else "sub"
            new = b.binop(op, old.value, Const(delta))
            self._store(lv, _RV(new, old.ctype), expr.line)
            return old
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Ternary):
            return self._gen_ternary(expr)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        if isinstance(expr, ast.Index):
            base = self._rvalue(expr.base)
            ptr = decay(base.ctype)
            if not isinstance(ptr, PtrType):
                raise CompileError("indexing a non-pointer", expr.line)
            index = self._rvalue(expr.index)
            scale = pointee_size(base.ctype)
            offset = index.value if scale == 1 else \
                b.mul(index.value, Const(scale))
            addr = b.add(base.value, offset)
            return _LV(addr, ptr.pointee)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base = self._rvalue(expr.base)
                ptr = decay(base.ctype)
                if not isinstance(ptr, PtrType) or \
                        not isinstance(ptr.pointee, StructType):
                    raise CompileError("-> on non-struct-pointer",
                                       expr.line)
                struct = ptr.pointee
                addr = base.value
            else:
                lv = self._gen_expr(expr.base)
                if isinstance(lv, _LV) and isinstance(lv.ctype, StructType):
                    struct, addr = lv.ctype, lv.addr
                elif isinstance(lv, _RV) and isinstance(lv.ctype,
                                                        StructType):
                    struct, addr = lv.ctype, lv.value
                else:
                    raise CompileError(". on non-struct", expr.line)
            field = struct.field_named(expr.name)
            faddr = b.add(addr, Const(field.offset)) if field.offset \
                else addr
            return _LV(faddr, field.ctype)
        if isinstance(expr, ast.SizeofExpr):
            inner = self._gen_expr(expr.operand)
            ctype = inner.ctype
            return _RV(Const(max(ctype.size, 1)), UINT)
        if isinstance(expr, ast.SizeofType):
            return _RV(Const(max(expr.ctype.size, 1)), UINT)
        if isinstance(expr, ast.Cast):
            rv = self._rvalue(expr.operand)
            value = rv.value
            if isinstance(expr.ctype, IntType) and expr.ctype.width < 4:
                op = ("sext" if expr.ctype.signed else "zext") + \
                     str(expr.ctype.width * 8)
                value = b.unary(op, value)
            return _RV(value, expr.ctype)
        raise CompileError(f"unsupported expression {expr!r}",
                           getattr(expr, "line", 0))

    def _gen_unary(self, expr: ast.Unary) -> _RV | _LV:
        b = self.builder
        if expr.op == "&":
            lv = self._lvalue(expr.operand)
            return _RV(lv.addr, PtrType(lv.ctype))
        if expr.op == "*":
            rv = self._rvalue(expr.operand)
            ptr = decay(rv.ctype)
            if not isinstance(ptr, PtrType):
                raise CompileError("dereferencing a non-pointer",
                                   expr.line)
            if isinstance(ptr.pointee, FuncType):
                return _RV(rv.value, ptr)  # deref of fn ptr is a no-op
            return _LV(rv.value, ptr.pointee)
        if expr.op in ("++", "--"):
            lv = self._lvalue(expr.operand)
            old = self._load(lv)
            delta = pointee_size(old.ctype) \
                if isinstance(decay(old.ctype), PtrType) else 1
            op = "add" if expr.op == "++" else "sub"
            new = b.binop(op, old.value, Const(delta))
            self._store(lv, _RV(new, old.ctype), expr.line)
            return _RV(new, old.ctype)
        rv = self._rvalue(expr.operand)
        if expr.op == "-":
            return _RV(b.unary("neg", rv.value), INT)
        if expr.op == "~":
            return _RV(b.unary("not", rv.value), INT)
        if expr.op == "!":
            return _RV(b.icmp("eq", rv.value, Const(0)), INT)
        raise CompileError(f"unsupported unary {expr.op}", expr.line)

    def _gen_binary(self, expr: ast.Binary) -> _RV:
        b = self.builder
        op = expr.op
        if op == ",":
            self._gen_expr(expr.lhs)
            return self._rvalue(expr.rhs)
        if op in ("&&", "||"):
            return self._gen_logical(expr)
        lhs = self._rvalue(expr.lhs)
        rhs = self._rvalue(expr.rhs)
        lptr = isinstance(decay(lhs.ctype), PtrType)
        rptr = isinstance(decay(rhs.ctype), PtrType)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            unsigned = lptr or rptr or _is_unsigned(lhs.ctype) \
                or _is_unsigned(rhs.ctype)
            pred = _CMP_PRED[(op, unsigned)]
            return _RV(b.icmp(pred, lhs.value, rhs.value), INT)
        if op == "+":
            if lptr and rptr:
                raise CompileError("pointer + pointer", expr.line)
            if lptr or rptr:
                ptr, idx = (lhs, rhs) if lptr else (rhs, lhs)
                scale = pointee_size(ptr.ctype)
                offset = idx.value if scale == 1 else \
                    b.mul(idx.value, Const(scale))
                return _RV(b.add(ptr.value, offset), decay(ptr.ctype))
            return _RV(b.add(lhs.value, rhs.value), lhs.ctype)
        if op == "-":
            if lptr and rptr:
                diff = b.sub(lhs.value, rhs.value)
                scale = pointee_size(lhs.ctype)
                if scale != 1:
                    diff = b.binop("div", diff, Const(scale))
                return _RV(diff, INT)
            if lptr:
                scale = pointee_size(lhs.ctype)
                offset = rhs.value if scale == 1 else \
                    b.mul(rhs.value, Const(scale))
                return _RV(b.sub(lhs.value, offset), decay(lhs.ctype))
            return _RV(b.sub(lhs.value, rhs.value), lhs.ctype)
        if op in ("*", "/", "%"):
            if op == "/" and (_is_unsigned(lhs.ctype)
                              or _is_unsigned(rhs.ctype)):
                raise CompileError("unsigned division is unsupported",
                                   expr.line)
            ir_op = {"*": "mul", "/": "div", "%": "rem"}[op]
            return _RV(b.binop(ir_op, lhs.value, rhs.value), INT)
        if op in ("&", "|", "^"):
            ir_op = {"&": "and", "|": "or", "^": "xor"}[op]
            return _RV(b.binop(ir_op, lhs.value, rhs.value), lhs.ctype)
        if op == "<<":
            return _RV(b.binop("shl", lhs.value, rhs.value), lhs.ctype)
        if op == ">>":
            ir_op = "shr" if _is_unsigned(lhs.ctype) else "sar"
            return _RV(b.binop(ir_op, lhs.value, rhs.value), lhs.ctype)
        raise CompileError(f"unsupported binary {op}", expr.line)

    def _gen_logical(self, expr: ast.Binary) -> _RV:
        b = self.builder
        result = self._entry_alloca(4, 4, "logtmp")
        rhs_block = b.new_block(self._new_label("log.rhs"))
        end = b.new_block(self._new_label("log.end"))
        lhs = self._gen_cond(expr.lhs)
        b.store(result, lhs, 4)
        if expr.op == "&&":
            b.condbr(lhs, rhs_block, end)
        else:
            b.condbr(lhs, end, rhs_block)
        b.position(rhs_block)
        rhs = self._gen_cond(expr.rhs)
        b.store(result, rhs, 4)
        b.br(end)
        b.position(end)
        return _RV(b.load(result, 4), INT)

    def _gen_ternary(self, expr: ast.Ternary) -> _RV:
        b = self.builder
        result = self._entry_alloca(4, 4, "terntmp")
        then_block = b.new_block(self._new_label("tern.then"))
        else_block = b.new_block(self._new_label("tern.else"))
        end = b.new_block(self._new_label("tern.end"))
        cond = self._gen_cond(expr.cond)
        b.condbr(cond, then_block, else_block)
        b.position(then_block)
        tv = self._rvalue(expr.if_true)
        b.store(result, tv.value, 4)
        b.br(end)
        b.position(else_block)
        fv = self._rvalue(expr.if_false)
        b.store(result, fv.value, 4)
        b.br(end)
        b.position(end)
        return _RV(b.load(result, 4), tv.ctype)

    def _gen_assign(self, expr: ast.Assign) -> _RV:
        b = self.builder
        lv = self._lvalue(expr.target)
        if expr.op == "=":
            rv = self._rvalue(expr.value)
            self._store(lv, rv, expr.line)
            return rv
        old = self._load(lv)
        rhs = self._rvalue(expr.value)
        op = expr.op[:-1]
        combined = self._gen_binary_values(op, old, rhs, expr.line)
        self._store(lv, combined, expr.line)
        return combined

    def _gen_binary_values(self, op: str, lhs: _RV, rhs: _RV,
                           line: int) -> _RV:
        b = self.builder
        lptr = isinstance(decay(lhs.ctype), PtrType)
        if op in ("+", "-") and lptr:
            scale = pointee_size(lhs.ctype)
            offset = rhs.value if scale == 1 else \
                b.mul(rhs.value, Const(scale))
            ir_op = "add" if op == "+" else "sub"
            return _RV(b.binop(ir_op, lhs.value, offset),
                       decay(lhs.ctype))
        ir_op = {"+": "add", "-": "sub", "*": "mul", "/": "div",
                 "%": "rem", "&": "and", "|": "or", "^": "xor",
                 "<<": "shl"}.get(op)
        if op == ">>":
            ir_op = "shr" if _is_unsigned(lhs.ctype) else "sar"
        if ir_op is None:
            raise CompileError(f"unsupported compound op {op}=", line)
        return _RV(b.binop(ir_op, lhs.value, rhs.value), lhs.ctype)

    def _gen_call(self, expr: ast.Call) -> _RV:
        b = self.builder
        args = [self._rvalue(a) for a in expr.args]
        arg_values = [a.value for a in args]
        if isinstance(expr.callee, ast.Ident):
            name = expr.callee.name
            if self._lookup(name, expr.line) is None:
                if name in self.func_types:
                    call = b.call(name, arg_values)
                    return _RV(call, self.func_types[name].ret)
                if name in LIBC_PROTOS:
                    call = b.call_external(name, arg_values)
                    return _RV(call, LIBC_PROTOS[name].ret)
                raise CompileError(f"call to undefined function {name!r}",
                                   expr.line)
        target = self._rvalue(expr.callee)
        ftype = decay(target.ctype)
        if isinstance(ftype, PtrType) and isinstance(ftype.pointee,
                                                     FuncType):
            ret = ftype.pointee.ret
        else:
            ret = INT
        call = b.call_indirect(target.value, arg_values)
        return _RV(call, ret)


_CMP_PRED = {
    ("==", False): "eq", ("==", True): "eq",
    ("!=", False): "ne", ("!=", True): "ne",
    ("<", False): "slt", ("<", True): "ult",
    ("<=", False): "sle", ("<=", True): "ule",
    (">", False): "sgt", (">", True): "ugt",
    (">=", False): "sge", (">=", True): "uge",
}


def _is_unsigned(ctype: CType) -> bool:
    return isinstance(ctype, IntType) and not ctype.signed


def lower_to_ir(unit: ast.TranslationUnit, name: str = "minic") -> Module:
    return Frontend(unit, name).lower()
