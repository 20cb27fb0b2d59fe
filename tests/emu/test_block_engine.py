"""Superblock engine: memory fast paths, cached-block semantics, and
block-level trace and observability accounting, checked against the
values the per-step engine computed for the same programs."""

import pytest

from repro import obs
from repro.emu import RunResult, run_binary, trace_binary
from repro.emu.memory import Memory, PAGE_SIZE
from repro.errors import EmulationError
from repro.isa import (
    AH,
    AL,
    AsmFunction,
    AsmProgram,
    AX,
    EAX,
    EBX,
    Imm,
    Label,
    Mem,
    assemble,
    ins,
    jcc,
)


def run(items, **kw):
    prog = AsmProgram(functions=[AsmFunction("_start", list(items))])
    return run_binary(assemble(prog), [], **kw)


# -- memory fast paths ------------------------------------------------------


def test_cross_page_dword_read_write():
    mem = Memory()
    addr = 5 * PAGE_SIZE - 2  # two bytes in one page, two in the next
    mem.write(addr, 4, 0xDEADBEEF)
    assert mem.read(addr, 4) == 0xDEADBEEF
    # Byte-level view straddles the boundary correctly (little endian).
    assert [mem.read(addr + i, 1) for i in range(4)] == \
        [0xEF, 0xBE, 0xAD, 0xDE]
    # In-page accesses around it are untouched zero-fill.
    assert mem.read(addr - 4, 4) == 0
    assert mem.read(addr + 4, 4) == 0


def test_cross_page_write_preserves_neighbors():
    mem = Memory()
    boundary = 9 * PAGE_SIZE
    mem.write(boundary - 4, 4, 0x11111111)
    mem.write(boundary, 4, 0x22222222)
    mem.write(boundary - 2, 4, 0xAABBCCDD)  # straddles
    assert mem.read(boundary - 2, 4) == 0xAABBCCDD
    assert mem.read(boundary - 4, 2) == 0x1111
    assert mem.read(boundary + 2, 2) == 0x2222


def test_read_outside_address_space_raises():
    mem = Memory()
    with pytest.raises(EmulationError):
        mem.read(0xFFFFFFFE, 4)
    with pytest.raises(EmulationError):
        mem.write(-4, 4, 0)


def test_read_cstring_across_page_boundary():
    mem = Memory()
    addr = 3 * PAGE_SIZE - 5
    mem.write_bytes(addr, b"hello, world\x00")
    assert mem.read_cstring(addr) == b"hello, world"


def test_read_cstring_unterminated_raises():
    mem = Memory()
    addr = 2 * PAGE_SIZE
    mem.write_bytes(addr, b"x" * 64)
    with pytest.raises(EmulationError):
        mem.read_cstring(addr, limit=32)


# -- sub-register writes through the cached block path ----------------------


def subreg_program():
    return [
        ins("mov", EAX, Imm(0x11223344)),
        ins("mov", AL, Imm(0xAA)),        # -> 0x112233AA
        ins("mov", AH, Imm(0xBB)),        # -> 0x1122BBAA
        ins("mov", AX, Imm(0xCCDD)),      # -> 0x1122CCDD
        ins("mov", EBX, Imm(0)),          # split into a second block
        ins("hlt"),
    ]


def test_subregister_writes_preserve_high_bytes():
    assert run(subreg_program()).exit_code == 0x1122CCDD


def test_block_cache_replay_is_deterministic():
    # Same image executed twice: the second run replays cached blocks.
    prog = AsmProgram(
        functions=[AsmFunction("_start", subreg_program())])
    image = assemble(prog)
    first = run_binary(image, [])
    second = run_binary(image, [])
    assert first.exit_code == second.exit_code
    assert first.cycles == second.cycles
    assert first.instructions == second.instructions


# -- block-level trace accounting -------------------------------------------


def loop_program():
    return [
        ins("mov", EAX, Imm(0)),
        ins("mov", EBX, Imm(10)),
        "loop",
        ins("add", EAX, Imm(3)),
        ins("dec", EBX),
        jcc("ne", Label("loop")),
        ins("hlt"),
    ]


#: Every instruction address of ``loop_program``: coverage is reported
#: per instruction, though the engine reports it once per block.
LOOP_ADDRS = {0x8048000, 0x8048009, 0x8048012, 0x804801B, 0x804801F,
              0x8048026}
#: The loop's only branch, taken back nine times and then falling out.
LOOP_TRANSFERS = {(0x804801F, 0x8048012, "jump"),
                  (0x804801F, 0x8048026, "fallthrough")}
LOOP_RESULT = RunResult(exit_code=30, stdout=b"", cycles=42,
                        instructions=33)


def loop_image():
    return assemble(
        AsmProgram(functions=[AsmFunction("_start", loop_program())]))


def test_block_coverage_matches_per_instruction():
    traces = trace_binary(loop_image(), [[]])
    assert traces.executed == LOOP_ADDRS
    assert {(t.src, t.dst, t.kind) for t in traces.transfers} == \
        LOOP_TRANSFERS
    assert traces.results == [LOOP_RESULT]


def test_observed_run_reports_block_cache_and_hot_blocks():
    """With a recorder active the loop also counts block-cache hits and
    misses and profiles each block's executions; its result is the one
    an unobserved run returns."""
    obs.enable(reset=True)
    try:
        traces = trace_binary(loop_image(), [[]])
        registry = obs.recorder().registry
        counters = dict(registry.counters)
        hot = dict(registry.profile("emu.hot_blocks").counts)
    finally:
        obs.disable()
    assert counters["emu.block_cache.hit"] == 8
    assert counters["emu.block_cache.miss"] == 3
    assert counters["emu.block_cache.compiled_blocks"] == 3
    assert counters["emu.instructions_retired"] == 33
    assert counters["emu.cycles"] == 42
    assert hot == {0x8048000: 1, 0x8048012: 9, 0x8048026: 1}
    assert traces.results == [LOOP_RESULT]
    assert trace_binary(loop_image(), [[]]).results == [LOOP_RESULT]


def test_instruction_budget_enforced_through_blocks():
    items = ["forever", ins("jmp", Label("forever"))]
    prog = AsmProgram(functions=[AsmFunction("_start", items)])
    with pytest.raises(EmulationError, match="budget"):
        run_binary(assemble(prog), [], max_instructions=1000)


def test_uncovered_operand_shape_raises_when_run():
    # ``lea`` of a register has no template: its block compiles, and the
    # instruction raises when it is reached.
    with pytest.raises(EmulationError, match="unimplemented"):
        run([ins("mov", EAX, Imm(1)), ins("lea", EAX, EBX), ins("hlt")])


def test_memory_operand_loop_differential():
    # Store/load through memory in a loop: exercises the Mem operand
    # closures (base+disp addressing); the values are the per-step
    # engine's.
    buf = Mem(base=EBX, disp=0, size=4)
    items = [
        ins("mov", EBX, Imm(0x0D000000)),
        ins("mov", EAX, Imm(7)),
        ins("mov", buf, EAX),
        ins("mov", EAX, Imm(0)),
        "loop",
        ins("add", EAX, buf),
        ins("add", EBX, Imm(4)),
        ins("mov", buf, EAX),
        ins("cmp", EBX, Imm(0x0D000000 + 16)),
        jcc("ne", Label("loop")),
        ins("mov", EAX, buf),
        ins("hlt"),
    ]
    result = run(items)
    assert (result.exit_code, result.cycles, result.instructions) == \
        (56, 59, 26)
