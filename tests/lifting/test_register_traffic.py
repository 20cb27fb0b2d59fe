"""The lifter's register and flag traffic, against a per-access reference.

The lifter keeps each ``vcpu.*`` slot's current value while it
translates a block: a block loads a slot once, on its first read and
only if it has not written it, and stores each slot it wrote once, just
before its terminator.  The reference lifter below emits one load or
store per register and flag access instead, and the reference mem2reg
is the algorithm the shipped one replaced.  Lifted, with the varargs
rewrite and the §4.1 promotion, both must print the same module, so
the §4.1 observation and everything after it see the same code.
"""

from pathlib import Path

import pytest

from repro.core.sp0fold import is_lifted_function
from repro.core.varargs import recover_vararg_calls
from repro.emu import run_binary, trace_binary
from repro.ir import Alloca, Load, Store, run_module, verify_module
from repro.ir.printer import module_to_text
from repro.isa import (
    AsmFunction,
    AsmProgram,
    DataItem,
    EAX,
    ESP,
    Imm,
    ImportRef,
    Label,
    Mem,
    assemble,
    ins,
)
from repro.lifting import translator
from repro.lifting.translator import FunctionTranslator, lift_traces
from repro.opt import promote_allocas
from repro.workloads import WORKLOADS
from tests.conftest import FEATURE_SOURCE, KERNEL_SOURCE, cached_image
from tests.opt.mem2reg_reference import reference_promote_allocas

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SOURCES = {"feature": FEATURE_SOURCE, "kernel": KERNEL_SOURCE,
           **{path.stem: path.read_text()
              for path in sorted(EXAMPLES.glob("*.c"))}}
PERSONALITIES = [(c, o) for c in ("gcc12", "gcc44", "clang16")
                 for o in ("0", "3")]


class PerAccessTranslator(FunctionTranslator):
    """The lifter with one load or store per register or flag access."""

    def _rread_name(self, name):
        return self.b.load(self.slots[name], 4)

    def _rwrite_name(self, name, value):
        self.b.store(self.slots[name], value, 4)

    _fread = _rread_name
    _fwrite = _rwrite_name


def _promote(module, traces, promote):
    recover_vararg_calls(module, traces)
    for func in module.functions.values():
        if is_lifted_function(func):
            promote(func)
    verify_module(module)
    return module_to_text(module)


def _reference_text(traces, monkeypatch) -> str:
    with monkeypatch.context() as patched:
        patched.setattr(translator, "FunctionTranslator",
                        PerAccessTranslator)
        module = lift_traces(traces, "wytiwyg")
    return _promote(module, traces, reference_promote_allocas)


def _slot_traffic_violations(module) -> list[str]:
    """Each block of a lifted function loads a slot at most once and
    before any store of it there, and stores it at most once, in the
    run of slot stores just before the terminator."""
    bad = []
    for func in module.functions.values():
        if not is_lifted_function(func):
            continue
        slots = {i for i in func.entry.instrs if isinstance(i, Alloca)
                 and i.var_name.startswith("vcpu.")}
        for block in func.blocks:
            body = block.instrs[:-1]
            stores = [n for n, i in enumerate(body)
                      if isinstance(i, Store) and i.addr in slots]
            loads = [i.addr for i in body
                     if isinstance(i, Load) and i.addr in slots]
            where = f"{func.name}/{block.name}"
            if stores != list(range(len(body) - len(stores), len(body))):
                bad.append(f"{where}: a slot store before other code")
            if len({body[n].addr for n in stores}) != len(stores):
                bad.append(f"{where}: a slot stored twice")
            if len(set(loads)) != len(loads):
                bad.append(f"{where}: a slot loaded twice")
    return bad


def _check(traces, monkeypatch) -> None:
    module = lift_traces(traces, "wytiwyg")
    assert _slot_traffic_violations(module) == []
    shipped = _promote(module, traces, promote_allocas)
    assert shipped == _reference_text(traces, monkeypatch)


@pytest.mark.parametrize("compiler, opt", PERSONALITIES)
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_lifted_registers_promote_as_per_access_traffic_does(
        source, compiler, opt, monkeypatch):
    image = cached_image(SOURCES[source], compiler, opt, source)
    inputs = [[5], [2]] if "read_int" in SOURCES[source] else [[]]
    _check(trace_binary(image.stripped(), inputs), monkeypatch)


@pytest.mark.parametrize("program", ["mcf", "gcc", "hmmer"])
def test_workloads_promote_as_per_access_traffic_does(program,
                                                      monkeypatch):
    workload = WORKLOADS[program]
    image = workload.compile("gcc12", "3")
    _check(trace_binary(image.stripped(), workload.inputs()), monkeypatch)


def tail_call_and_direct_call_image():
    """wrapper() tail-calls work(), which _start also calls directly:
    work is then its own function, and wrapper's jump to it lifts to a
    tail-call stub that loads the registers itself."""
    start = AsmFunction("_start", [
        ins("push", Imm(5)),
        ins("call", Label("wrapper")),
        ins("add", ESP, Imm(4)),
        ins("push", EAX),
        ins("push", Label("fmt")),
        ins("call", ImportRef("printf")),
        ins("add", ESP, Imm(8)),
        ins("push", Imm(7)),
        ins("call", Label("work")),
        ins("add", ESP, Imm(4)),
        ins("push", EAX),
        ins("push", Label("fmt")),
        ins("call", ImportRef("printf")),
        ins("add", ESP, Imm(8)),
        ins("mov", EAX, Imm(0)),
        ins("hlt"),
    ])
    wrapper = AsmFunction("wrapper", [
        ins("mov", EAX, Mem(ESP, disp=4)),
        ins("add", EAX, Imm(1)),
        ins("mov", Mem(ESP, disp=4), EAX),
        ins("jmp", Label("work")),      # tail call
    ])
    work = AsmFunction("work", [
        ins("mov", EAX, Mem(ESP, disp=4)),
        ins("imul", EAX, Imm(10)),
        ins("ret"),
    ])
    return assemble(AsmProgram(
        functions=[start, wrapper, work],
        data=[DataItem("fmt", b"%d\n\x00")],
        imports=["printf"]))


def test_tail_call_stub_promotes_as_per_access_traffic_does(monkeypatch):
    image = tail_call_and_direct_call_image()
    traces = trace_binary(image.stripped(), [[]])
    module = lift_traces(traces)
    stubs = [block for func in module.functions.values()
             for block in func.blocks if block.name.startswith("tail_")]
    assert len(stubs) == 1
    assert run_module(module).stdout == run_binary(image).stdout \
        == b"60\n70\n"
    _check(traces, monkeypatch)
