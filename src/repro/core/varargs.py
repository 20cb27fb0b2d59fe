"""Variadic external call recovery (paper §5.2).

Lifted calls to printf-style functions initially use *stack switching*:
the emulated stack pointer is handed to the external function, which
reads its arguments directly from the emulated stack.  Stack switching is
incompatible with removing the emulated stack, so this refinement runs
the lifted program and inspects each variadic call site's format string
at runtime to determine an exact per-site prototype, then rewrites the
site to load and pass its arguments explicitly.
"""

from __future__ import annotations

from ..emu.libc import parse_format
from ..ir.interp import Interpreter
from ..ir.module import Module
from ..ir.values import CallExt, Const, Load, BinOp
from .extfuncs import EXTERNAL_DB


def find_vararg_sites(module: Module) -> list[CallExt]:
    sites = []
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.stack_args:
                sites.append(instr)
    return sites


class VarargObserver:
    """Records, per call site, the maximal argument count observed."""

    def __init__(self) -> None:
        self.max_args: dict[int, int] = {}

    def __call__(self, frame, instr: CallExt, sp: int | None,
                 args: list[int] | None) -> None:
        if sp is None:
            return  # already-explicit call
        sig = EXTERNAL_DB.get(instr.ext_name)
        if sig is None or sig.format_arg is None:
            # Unknown effect: keep the fixed arguments only.
            count = sig.nargs if sig else 0
        else:
            interp: Interpreter = self._interp
            fmt_addr = interp.mem.read(sp + 4 * sig.format_arg, 4)
            fmt = interp.mem.read_cstring(fmt_addr)
            count = sig.nargs + len(parse_format(fmt))
        site = id(instr)
        self.max_args[site] = max(self.max_args.get(site, 0), count)

    _interp: Interpreter = None  # the stage's interpreter


def recover_vararg_calls(module: Module,
                         inputs: list[list[int | bytes]],
                         check=None) -> int:
    """Run the module on all inputs, then rewrite variadic call sites
    with explicit arguments.  Returns the number of rewritten sites.

    ``check(n, run)``, if given, executes the ``n``-th input's run
    instead of the loop calling ``run()`` itself (the replay engine's
    :meth:`~repro.replay.ReplayEngine.checker` compares it with the
    trace).  A module without variadic call sites makes no run.
    """
    sites = find_vararg_sites(module)
    if not sites:
        return 0
    observer = VarargObserver()
    with Interpreter(module, callext_hook=observer) as interp:
        observer._interp = interp
        for n, input_items in enumerate(inputs):
            interp.reset(input_items)
            if check is None:
                interp.run()
            else:
                check(n, interp.run)

    rewritten = 0
    for site in sites:
        count = observer.max_args.get(id(site))
        if count is None:
            # Never executed under the traced inputs (cannot happen for
            # lifted code, which only contains traced paths).
            count = EXTERNAL_DB[site.ext_name].nargs
        sp = site.sp
        block = site.block
        index = block.instrs.index(site)
        args = []
        for i in range(count):
            addr = sp if i == 0 else BinOp("add", sp, Const(4 * i))
            if i:
                addr.block = block
                block.instrs.insert(index, addr)
                index += 1
            load = Load(addr if i else sp, 4)
            load.block = block
            block.instrs.insert(index, load)
            index += 1
            args.append(load)
        # Rewrite the call in place so existing uses stay valid.
        site.ops = args
        site.stack_args = False
        if block.function is not None:
            block.function.invalidate()
        rewritten += 1
    module.metadata["varargs_recovered"] = str(rewritten)
    return rewritten
