"""Variadic external call recovery (paper §5.2).

Lifted calls to printf-style functions initially use *stack switching*:
the emulated stack pointer is handed to the external function, which
reads its arguments directly from the emulated stack.  Stack switching is
incompatible with removing the emulated stack, so this refinement gives
each variadic call site an exact prototype and rewrites the site to load
and pass its arguments explicitly.

The prototype comes from the trace.  At every variadic import call the
emulator counts the fixed arguments plus one per conversion of the
format string the call is handed, and the merged
:class:`~repro.emu.tracer.TraceSet` keeps, per call address, the most
any call there passed (``vararg_counts``).  The lifter stamps each
stack-switched site with its call address, so the rewrite is a pure IR
rewrite right after lifting, with no run of its own: the first IR run
(the register observation) checks lifting and this rewrite together.
Only traced code is lifted, so every site has executed and has a count.
"""

from __future__ import annotations

from ..emu.tracer import TraceSet
from ..ir.module import Module
from ..ir.values import CallExt, Const, Load, BinOp


def find_vararg_sites(module: Module) -> list[CallExt]:
    sites = []
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.stack_args:
                sites.append(instr)
    return sites


def recover_vararg_calls(module: Module, traces: TraceSet) -> int:
    """Rewrite every variadic call site of ``module`` to pass as many
    explicit arguments as ``traces`` recorded at its call address.
    Returns the number of rewritten sites."""
    sites = find_vararg_sites(module)
    if not sites:
        return 0
    for site in sites:
        count = traces.vararg_counts[site.call_addr]
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
    module.metadata["varargs_recovered"] = str(len(sites))
    return len(sites)
