"""Control-transfer tracing and trace merging."""

import pytest

from repro import compile_source
from repro.emu import Machine, TraceSet, Tracer, Transfer, trace_binary
from repro.isa import (
    AsmFunction,
    AsmProgram,
    EAX,
    ECX,
    Imm,
    ImportRef,
    Label,
    assemble,
    ins,
    jcc,
)
from repro.isa.disassembler import Disassembler


def image_with_branch():
    f = AsmFunction("_start", [
        ins("mov", EAX, Imm(0)),
        ins("call", ImportRef("read_int")),
        ins("cmp", EAX, Imm(5)),
        jcc("l", Label("low")),
        ins("mov", EAX, Imm(1)),
        ins("hlt"),
        "low",
        ins("mov", EAX, Imm(2)),
        ins("hlt"),
    ])
    return assemble(AsmProgram(functions=[f], imports=["read_int"]))


def test_trace_records_taken_direction_only():
    image = image_with_branch()
    traces = trace_binary(image, [[9]])
    kinds = {t.kind for t in traces.transfers}
    assert "fallthrough" in kinds
    assert "import" in kinds
    jumps = [t for t in traces.transfers if t.kind == "jump"]
    assert not jumps  # branch not taken with input 9


def test_trace_merging_accumulates_coverage():
    image = image_with_branch()
    solo = trace_binary(image, [[9]])
    both = trace_binary(image, [[9], [1]])
    assert len(both.executed) > len(solo.executed)
    assert len(both.results) == 2
    assert both.results[0].exit_code == 1
    assert both.results[1].exit_code == 2


def test_call_targets_extracted():
    f = AsmFunction("_start", [
        ins("call", Label("fn")),
        ins("hlt"),
    ])
    g = AsmFunction("fn", [ins("mov", EAX, Imm(3)), ins("ret")])
    image = assemble(AsmProgram(functions=[f, g]))
    traces = trace_binary(image, [[]])
    assert image.symbols["fn"] in traces.call_targets


def image_with_loop():
    """``_start`` calls ``step`` once per iteration, ``read_int()``
    times."""
    start = AsmFunction("_start", [
        ins("call", ImportRef("read_int")),
        ins("mov", ECX, EAX),
        "_start.loop",
        ins("call", Label("step")),
        ins("sub", ECX, Imm(1)),
        jcc("ne", Label("_start.loop")),
        ins("hlt"),
    ])
    step = AsmFunction("step", [ins("add", EAX, Imm(2)), ins("ret")])
    return assemble(AsmProgram(functions=[start, step],
                               imports=["read_int"]))


def loop_edges(image):
    """The loop's five distinct transfers, from its instruction sizes."""
    at = Disassembler(image).at
    entry, loop = image.entry, image.symbols["_start.loop"]
    step = image.symbols["step"]
    after_call = loop + at(loop).size
    branch = after_call + at(after_call).size
    ret = step + at(step).size
    return {
        (entry, entry + at(entry).size, "import"),
        (loop, step, "call"),
        (ret, after_call, "ret"),
        (branch, loop, "jump"),
        (branch, branch + at(branch).size, "fallthrough"),
    }


@pytest.mark.parametrize("iterations", [2, 3, 50])
def test_sink_keeps_each_distinct_edge_once(iterations):
    image = image_with_loop()
    tracer = Tracer()
    result = Machine(image, [iterations], trace_sink=tracer.sink).run()
    assert result.exit_code == 3 * iterations
    assert tracer.edges == loop_edges(image)
    traces = trace_binary(image, [[iterations]])
    assert traces.transfers == {Transfer(*e) for e in loop_edges(image)}
    assert len(traces.transfers) == 5


#: A branch on the input and a printf whose argument count follows it.
VARIADIC_SOURCE = r"""
int main() {
    int k = read_int();
    char *fmt = k ? "%d %d %d\n" : "%d\n";
    if (k > 1) printf("big\n");
    printf(fmt, 1, 2, k);
    return 0;
}
"""


def test_each_distinct_input_is_emulated_once(monkeypatch):
    image = compile_source(VARIADIC_SOURCE, "gcc12", "0", "repeats")
    runs = [[0], [1], [0], [2], [1], [0]]
    # What tracing each run on its own and absorbing it in order builds.
    expected = TraceSet(image)
    for items in runs:
        single = trace_binary(image, [items])
        expected.absorb(single.transfers, single.executed,
                        single.vararg_counts, single.results[0], items)
    emulated = []
    real_run = Machine.run

    def run(self):
        emulated.append(list(self.input_items))
        return real_run(self)

    monkeypatch.setattr(Machine, "run", run)
    traces = trace_binary(image, runs)
    assert emulated == [[0], [1], [2]]
    assert traces.inputs == expected.inputs == runs
    assert traces.results == expected.results
    assert traces.transfers == expected.transfers
    assert traces.executed == expected.executed
    assert traces.vararg_counts == expected.vararg_counts
    assert [r.stdout for r in traces.results] == [
        b"1\n", b"1 2 1\n", b"1\n", b"big\n1 2 2\n", b"1 2 1\n", b"1\n"]
