"""Golden digests: what each execution engine and the optimizer produce
on fixed programs and inputs, pinned.

``engine_digests.json`` holds one sha256 per output:

* ``run-<program>`` — per input, the stdout, exit code, cycles and
  instructions of mcf, gcc and hmmer at gcc12-O3 traced on their
  ``workload.inputs()``;
* ``trace-<program>`` — the merged :class:`~repro.emu.tracer.TraceSet`
  of those runs: sorted transfers, sorted executed addresses, the
  inputs and the vararg counts;
* ``lift-<program>`` — the layouts and notes that ``wytiwyg_lift``
  recovers from that trace set, widened from static evidence as every
  recompile widens them;
* ``bounds-O<n>`` — the bounds stage's ``TracingRuntime.snapshot()``
  for ``KERNEL_SOURCE`` at gcc12-O<n>, with ``stack_vars`` and
  ``arg_accesses`` in first-touch order;
* ``regsave-O<n>`` and ``regsave-<program>`` — for the same programs,
  the §4.1 observation state that ``classify_registers`` hands its
  check (``used``, ``forwarded`` and ``modified`` in insertion order,
  the sets sorted) and the ``RegSaveResult`` it resolves, by function
  name;
* ``regsave-asm`` — the same for a hand-assembled program whose
  function reads two carried registers in one straight-line segment,
  calls, and reads a third in a later segment: the only pin whose
  ``used`` is not empty, in the order the segments report it;
* ``opt-<source>-o<n>``, ``canonicalize-kernel`` and
  ``compile_ir-o<n>`` — ``module_to_text`` after ``optimize_module``
  or ``canonicalize_module``, and the recompiled image's JSON.

Beside the digests, the module recovered from each trace set must
reproduce its traced runs when the IR interpreter executes it.

A change that must keep these outputs keeps the digests; a change that
alters one on purpose regenerates them and says why::

    PYTHONPATH=src python -m tests.golden.test_engine_digests
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.cc.driver import compile_to_ir
from repro.core import driver
from repro.core.driver import wytiwyg_lift
from repro.emu import trace_binary
from repro.isa import EAX, EBX, ECX, EDX, AsmFunction, Imm, Label, ins
from repro.ir.interp import Interpreter
from repro.ir.printer import module_to_text
from repro.opt import OptOptions, canonicalize_module, optimize_module
from repro.recompile.link import compile_ir
from repro.replay import ReplayEngine
from repro.replay.engine import StageCheck
from repro.workloads import WORKLOADS
from tests.conftest import FEATURE_SOURCE, KERNEL_SOURCE, cached_image
from tests.core.test_refinements import _exit_with_eax, asm_image

DIGESTS = Path(__file__).resolve().with_name("engine_digests.json")
PROGRAMS = ("mcf", "gcc", "hmmer")
SOURCES = {"feature": FEATURE_SOURCE, "kernel": KERNEL_SOURCE}
LEVELS = ("o0", "o1", "o2", "o3")


def _canon(obj):
    """A JSON-ready form of ``obj`` that keeps every order the code
    determines: dataclasses field by field, dicts as ordered key/value
    pairs, sets sorted."""
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [
            _canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        return [[_canon(k), _canon(v)] for k, v in obj.items()]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canon(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, bytes):
        return obj.hex()
    return obj


def digest(obj) -> str:
    """sha256 of ``obj``: text and bytes as they are, anything else in
    its :func:`_canon` form."""
    if isinstance(obj, str):
        obj = obj.encode()
    elif not isinstance(obj, bytes):
        obj = json.dumps(_canon(obj), separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()


@functools.cache
def traces(program: str):
    workload = WORKLOADS[program]
    image = workload.compile("gcc12", "3").stripped()
    return trace_binary(image, workload.inputs())


def run_doc(program: str):
    return [(r.stdout, r.exit_code, r.cycles, r.instructions)
            for r in traces(program).results]


def trace_doc(program: str):
    ts = traces(program)
    return {
        "transfers": sorted((t.src, t.dst, t.kind) for t in ts.transfers),
        "executed": sorted(ts.executed),
        "inputs": ts.inputs,
        "vararg_counts": sorted(ts.vararg_counts.items()),
    }


def observed_lift(trace_set):
    """``wytiwyg_lift(trace_set)`` and its §4.1 observation: the state
    the observation hands its check and the classification it
    resolves."""
    real_classify, real_passed = driver.classify_registers, \
        StageCheck.passed
    states, results = [], []

    def passed(self, state):
        if self.stage == "lifting":
            states.append(copy.deepcopy(state))
        return real_passed(self, state)

    def classify(*args, **kwargs):
        results.append(real_classify(*args, **kwargs))
        return results[-1]

    with mock.patch.object(StageCheck, "passed", passed), \
            mock.patch.object(driver, "classify_registers", classify):
        lift = wytiwyg_lift(trace_set)
    (state,), (result,) = states, results
    # The result's dicts are built from a set of names, so they iterate
    # in hash order; what a later stage reads of them is sorted.
    resolved = {"args": sorted(result.args.items()),
                "outputs": sorted(result.outputs.items()),
                "indirect_targets": result.indirect_targets}
    return lift, {"state": state, "result": resolved}


@functools.cache
def lifted(program: str):
    return observed_lift(traces(program))


def lift_doc(program: str):
    _, layouts, notes, _ = lifted(program)[0]
    return {"layouts": layouts, "notes": notes}


def bounds_snapshot(opt_level: str) -> dict:
    """The runtime the bounds stage of ``wytiwyg_lift`` leaves behind,
    for ``KERNEL_SOURCE`` traced on no input."""
    image = cached_image(KERNEL_SOURCE, opt_level=opt_level)
    trace_set = trace_binary(image.stripped(), [[]])
    real = ReplayEngine.run_instrumented
    snapshots = []

    def run_instrumented(self, module, stage, classification):
        runtime = real(self, module, stage, classification)
        snapshots.append(copy.deepcopy(runtime.snapshot()))
        return runtime

    with mock.patch.object(ReplayEngine, "run_instrumented",
                           run_instrumented):
        wytiwyg_lift(trace_set)
    (snapshot,) = snapshots
    return snapshot


def regsave_observation(opt_level: str) -> dict:
    """The §4.1 observation of ``wytiwyg_lift`` for ``KERNEL_SOURCE``
    traced on no input (:func:`observed_lift`)."""
    image = cached_image(KERNEL_SOURCE, opt_level=opt_level)
    return observed_lift(trace_binary(image.stripped(), [[]]))[1]


def regsave_asm_observation() -> dict:
    """The §4.1 observation of a program whose ``f`` reads ecx and edx
    in its first segment, calls ``g`` (which returns with eax set and
    ebx untouched) and then reads ebx, handed back by ``g``'s clean
    exit (:func:`observed_lift`)."""
    start = _exit_with_eax(
        ins("mov", ECX, Imm(3)), ins("mov", EDX, Imm(4)),
        ins("mov", EBX, Imm(5)), ins("call", Label("f")))
    f = AsmFunction("f", [
        ins("mov", EAX, ECX),
        ins("add", EAX, EDX),
        ins("call", Label("g")),
        ins("add", EAX, EBX),
        ins("ret"),
    ])
    g = AsmFunction("g", [ins("mov", EAX, Imm(1)), ins("ret")])
    image = asm_image([start, f, g])
    return observed_lift(trace_binary(image, [[]]))[1]


def optimized(source: str, level: str):
    module = compile_to_ir(SOURCES[source], name="t", config=None)
    optimize_module(module, getattr(OptOptions, level)())
    return module


def canonicalized(source: str):
    module = compile_to_ir(SOURCES[source], name="t", config=None)
    canonicalize_module(module)
    return module


#: digest name -> producer of the output it pins.
OUTPUTS = {
    **{f"run-{p}": functools.partial(run_doc, p) for p in PROGRAMS},
    **{f"trace-{p}": functools.partial(trace_doc, p) for p in PROGRAMS},
    **{f"lift-{p}": functools.partial(lift_doc, p) for p in PROGRAMS},
    **{f"bounds-O{n}": functools.partial(bounds_snapshot, n)
       for n in ("0", "3")},
    **{f"regsave-O{n}": functools.partial(regsave_observation, n)
       for n in ("0", "3")},
    **{f"regsave-{p}": (lambda p=p: lifted(p)[1]) for p in PROGRAMS},
    "regsave-asm": regsave_asm_observation,
    **{f"opt-{s}-{lv}": (lambda s=s, lv=lv:
                          module_to_text(optimized(s, lv)))
       for s in SOURCES for lv in LEVELS},
    "canonicalize-kernel":
        lambda: module_to_text(canonicalized("kernel")),
    **{f"compile_ir-{lv}": (lambda lv=lv:
                             compile_ir(optimized("feature", lv)).to_json())
       for lv in ("o1", "o3")},
}


@functools.cache
def golden() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_matches_golden_digest(name):
    assert digest(OUTPUTS[name]()) == golden()[name]


@pytest.mark.parametrize("program", PROGRAMS)
def test_lifted_module_reproduces_traced_runs(program):
    # The emulator traced the binary; the IR interpreter runs the
    # module recovered from those traces on the same inputs.
    ts = traces(program)
    module = lifted(program)[0][0]
    with Interpreter(module) as interp:
        for items, expected in zip(ts.inputs, ts.results, strict=True):
            interp.reset(items)
            got = interp.run()
            assert got.stdout == expected.stdout
            assert got.exit_code == expected.exit_code & 0xFFFFFFFF


def main() -> int:
    digests = {name: digest(produce()) for name, produce in OUTPUTS.items()}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
