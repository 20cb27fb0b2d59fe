"""Dynamic control-flow tracing (the S2E role in the paper's Figure 4).

A :class:`Tracer` attaches to the machine emulator and records, for a set
of inputs, every distinct control transfer and every executed instruction
address.  Its sink is two sets' own ``add`` methods: the emulator hands
each transfer over as a ``(src, dst, kind)`` tuple, built once per
static target, so recording one costs no Python-level call.
:class:`TraceSet` merges traces across inputs (the paper's "Merge CFGs"
step), holding one :class:`Transfer` per distinct edge, and is the sole
source of control-flow information for the lifter — the dynamic-only
discipline that lets WYTIWYG avoid heuristic CFG recovery.  It also
keeps, per variadic import call site, the most arguments one call there
passed, which is the prototype the varargs refinement (paper §5.2) gives
the site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.image import BinaryImage
from .blocks import shared_block_cache
from .costs import DEFAULT_COSTS, CostModel
from .machine import Machine, RunResult


#: Version of what a trace records (:class:`TraceSet`'s fields and the
#: store's per-input trace records).  Keys of stored traces include it,
#: so a change of fields makes old entries miss instead of loading
#: without the new field.
TRACE_SCHEMA = "2"


@dataclass(frozen=True)
class Transfer:
    """One observed control transfer."""

    src: int
    dst: int
    kind: str  # "call" | "ret" | "jump" | "fallthrough" | "import"


class _Sink:
    """The Machine's ControlSink, built from bound recorder callables.

    The machine fetches ``.transfer``, ``.executed`` and ``.varargs``
    and calls them directly; the first two are the recording sets' own
    ``add`` methods, so a transfer or a newly executed address costs no
    Python-level call.
    """

    __slots__ = ("transfer", "executed", "varargs")

    def __init__(self, transfer, executed, varargs):
        self.transfer = transfer
        self.executed = executed
        self.varargs = varargs


class Tracer:
    """Collects transfers, coverage and variadic argument counts during
    one or more executions."""

    def __init__(self) -> None:
        #: The distinct transfers, as the ``(src, dst, kind)`` tuples the
        #: emulator reports; :func:`trace_binary` turns them into
        #: :class:`Transfer` records.
        self.edges: set[tuple[int, int, str]] = set()
        self.executed: set[int] = set()
        #: Variadic import call address -> most arguments one call there
        #: passed.
        self.vararg_counts: dict[int, int] = {}
        #: ControlSink view (an attribute named ``executed`` would
        #: collide with the coverage set, so the sink is a separate
        #: object).
        self.sink = _Sink(self.edges.add, self.executed.add, self.varargs)

    def varargs(self, src: int, count: int) -> None:
        if count > self.vararg_counts.get(src, -1):
            self.vararg_counts[src] = count


@dataclass
class TraceSet:
    """Merged dynamic information for one binary across traced inputs."""

    image: BinaryImage
    transfers: set[Transfer] = field(default_factory=set)
    executed: set[int] = field(default_factory=set)
    results: list[RunResult] = field(default_factory=list)
    inputs: list[list[int | bytes]] = field(default_factory=list)
    #: Variadic import call address -> most arguments one call there
    #: passed, over every traced input (the §5.2 prototype).
    vararg_counts: dict[int, int] = field(default_factory=dict)

    def absorb(self, transfers: set[Transfer], executed: set[int],
               vararg_counts: dict[int, int], result: RunResult,
               input_items: list[int | bytes]) -> None:
        """Fold one input run in.

        :func:`trace_binary` folds each run it emulates; trace records
        loaded from the artifact store come here too, so absorbing each
        input's record in request order reconstructs exactly the
        TraceSet that :func:`trace_binary` would build by tracing every
        input.
        """
        self.transfers |= transfers
        self.executed |= executed
        for src, count in vararg_counts.items():
            if count > self.vararg_counts.get(src, -1):
                self.vararg_counts[src] = count
        self.results.append(result)
        self.inputs.append(list(input_items))

    @property
    def call_targets(self) -> set[int]:
        return {t.dst for t in self.transfers if t.kind == "call"}

    @property
    def jump_edges(self) -> set[tuple[int, int]]:
        return {(t.src, t.dst) for t in self.transfers
                if t.kind in ("jump", "fallthrough")}


def trace_binary(image: BinaryImage,
                 inputs: list[list[int | bytes]],
                 costs: CostModel = DEFAULT_COSTS,
                 max_instructions: int = 80_000_000) -> TraceSet:
    """Run ``image`` on every input, merging traces (incremental lifting).

    This is the paper's initial tracing phase: each input contributes
    coverage, and the merged trace set drives lifting.  All per-input
    machines share one decoded/compiled block cache, so the binary is
    decoded once no matter how many inputs are traced.  Execution is
    deterministic, so each distinct input is emulated once and its run
    is absorbed again for each repeat, as if traced anew.
    """
    traces = TraceSet(image)
    blocks = shared_block_cache(image, costs)
    #: repr of an input run -> what absorbing its run takes.
    runs: dict[str, tuple] = {}
    for input_items in inputs:
        key = repr(list(input_items))
        record = runs.get(key)
        if record is None:
            tracer = Tracer()
            machine = Machine(image, list(input_items), costs=costs,
                              max_instructions=max_instructions,
                              trace_sink=tracer.sink, blocks=blocks)
            result = machine.run()
            record = runs[key] = (
                {Transfer(*edge) for edge in tracer.edges},
                tracer.executed, tracer.vararg_counts, result)
        traces.absorb(*record, input_items)
    return traces
