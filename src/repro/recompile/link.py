"""Module-level lowering and linking: IR module -> runnable binary."""

from __future__ import annotations

from ..binary.image import TEXT_BASE, BinaryImage
from ..errors import LowerError
from ..ir.module import GlobalVar, Module
from ..ir.values import CallExt, CallInd, FuncRef, GlobalRef
from ..isa import AsmProgram, DataItem, Label, assemble
from .lower import (
    STACK_SWITCH_SAVE,
    LowerOptions,
    build_resolver,
    lower_function,
)

#: Recompiled binaries are placed clear of the original image so pinned
#: original data sections can stay at their original addresses.
RECOMP_TEXT_BASE = 0x09000000


def _global_payload(g: GlobalVar):
    if isinstance(g.init, bytes):
        if g.fixed_addr is not None:
            return g.init  # pinned: no layout padding needed
        return g.init + b"\x00" * (g.size - len(g.init))
    words: list = []
    for word in g.init:
        if isinstance(word, int):
            words.append(word)
        elif isinstance(word, (GlobalRef, FuncRef)):
            words.append(Label(word.name))
        else:
            raise LowerError(f"bad initializer cell in global {g.name}")
    missing = g.size - 4 * len(words)
    if missing < 0:
        raise LowerError(f"global {g.name} initializer overflows size")
    words.extend([0] * ((missing + 3) // 4))
    return words


def lower_module(module: Module,
                 options: LowerOptions | None = None,
                 text_base: int = TEXT_BASE) -> AsmProgram:
    """Lower every function and global of ``module`` to an AsmProgram."""
    opts = options or LowerOptions()
    program = AsmProgram(entry=module.entry_name, text_base=text_base,
                         metadata=dict(module.metadata))

    imports: list[str] = []
    uses_stack_switching = False
    uses_indirect_calls = False
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt):
                if instr.ext_name not in imports:
                    imports.append(instr.ext_name)
                if instr.stack_args:
                    uses_stack_switching = True
            elif isinstance(instr, CallInd):
                uses_indirect_calls = True
        if func.nresults >= 7 and opts.frame_pointer:
            raise LowerError(
                f"{func.name}: 7-result functions require "
                f"frame_pointer=False (ebp carries a result)")
    program.imports = imports

    for func in module.functions.values():
        # Fingerprint-memoized: a warm compile touches only functions
        # whose IR content actually changed (see lower.lower_function).
        asm, data_items, ground_truth = lower_function(func, module,
                                                       opts)
        program.functions.append(asm)
        program.data.extend(data_items)
        if ground_truth is not None:
            program.ground_truth.append(ground_truth)

    for g in module.globals.values():
        program.data.append(DataItem(
            g.name, _global_payload(g), align=max(g.align, 1),
            writable=g.writable, fixed_addr=g.fixed_addr))
    if uses_stack_switching:
        program.data.append(DataItem(STACK_SWITCH_SAVE, b"\x00" * 4))
    if uses_indirect_calls and module.address_table:
        program.functions.append(build_resolver(module.address_table,
                                                opts.trap_code - 1))
    return program


def compile_ir(module: Module,
               options: LowerOptions | None = None,
               text_base: int = TEXT_BASE,
               metadata: dict[str, str] | None = None) -> BinaryImage:
    """Lower, assemble and link ``module`` into a binary image."""
    program = lower_module(module, options, text_base)
    if metadata:
        program.metadata.update(metadata)
    return assemble(program)


def recompile_ir(module: Module,
                 options: LowerOptions | None = None,
                 metadata: dict[str, str] | None = None) -> BinaryImage:
    """Recompile a lifted module (text placed clear of the original
    image; lifted modules never use a frame pointer so ebp can carry
    results)."""
    opts = options or LowerOptions(frame_pointer=False)
    return compile_ir(module, opts, RECOMP_TEXT_BASE, metadata)
