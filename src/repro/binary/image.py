"""The repro binary container format.

A :class:`BinaryImage` is the unit that the toolchain passes around: the
MiniC compiler produces one, the emulator runs one, the lifter consumes
one, and the recompiler emits a new one.  It holds loadable sections, an
entry point, an import table (names of external libc functions), an
optional symbol table, and an optional **debug section** carrying the
compiler's ground-truth stack layouts.

The debug section is the analogue of the paper's LLVM "Stack Frame Layout"
ground truth (Section 6.3): it is written by the compiler, *never* read by
the lifter or symbolizer, and consumed only by the accuracy evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import LinkError

# Canonical load addresses, loosely modelled on a classic 32-bit ELF layout.
TEXT_BASE = 0x08048000
STACK_TOP = 0x0BF00000
STACK_SIZE = 0x00200000  # default 2 MiB; gcc/xalan-style runs may raise it
HEAP_BASE = 0x0A000000
HEAP_SIZE = 0x01000000


@dataclass
class Section:
    """A loadable section: raw bytes at a fixed virtual address."""

    name: str
    base: int
    data: bytes
    writable: bool = False

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


@dataclass
class StackObject:
    """One ground-truth stack allocation within a function frame.

    ``offset`` is relative to ``sp0``, the stack pointer value at function
    entry (so offsets are negative for locals, following the paper's
    convention in Figure 2).  ``kind`` distinguishes source variables from
    compiler-introduced slots.
    """

    name: str
    offset: int
    size: int
    kind: str = "var"  # "var" | "spill" | "saved_reg" | "arg_out"

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.offset < hi and lo < self.offset + self.size


@dataclass
class FrameGroundTruth:
    """Ground-truth frame layout for one compiled function."""

    func_name: str
    entry: int
    frame_size: int
    objects: list[StackObject] = field(default_factory=list)


@dataclass
class BinaryImage:
    """A complete, runnable program image."""

    text: Section
    data_sections: list[Section] = field(default_factory=list)
    entry: int = TEXT_BASE
    imports: list[str] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    ground_truth: list[FrameGroundTruth] = field(default_factory=list)
    #: Free-form provenance, e.g. {"compiler": "gcc12", "opt": "O3"}.
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def sections(self) -> list[Section]:
        return [self.text, *self.data_sections]

    def section_at(self, addr: int) -> Section | None:
        for sec in self.sections:
            if sec.contains(addr):
                return sec
        return None

    def symbol_for(self, addr: int) -> str | None:
        for name, a in self.symbols.items():
            if a == addr:
                return name
        return None

    def stripped(self) -> "BinaryImage":
        """Return a copy without symbols or ground truth (a COTS binary).

        Memoized: callers strip the same image repeatedly (once per
        evaluation cell), and returning one object lets the per-image
        block cache stay warm across those runs.  An image that is
        already stripped is returned as is, not memoized on itself: that
        reference cycle would keep it, with its block cache, alive until
        the cyclic collector ran.
        """
        if not self.symbols and not self.ground_truth:
            return self
        cached = self.__dict__.get("_stripped")
        if cached is not None:
            return cached
        stripped = self._strip()
        self.__dict__["_stripped"] = stripped
        return stripped

    def _strip(self) -> "BinaryImage":
        return BinaryImage(
            text=self.text,
            data_sections=list(self.data_sections),
            entry=self.entry,
            imports=list(self.imports),
            symbols={},
            ground_truth=[],
            metadata=dict(self.metadata),
        )

    def validate(self) -> None:
        """Check that sections do not overlap and the entry is in text."""
        placed = sorted(self.sections, key=lambda s: s.base)
        for a, b in zip(placed, placed[1:], strict=False):
            if a.end > b.base:
                raise LinkError(f"sections {a.name} and {b.name} overlap")
        if not self.text.contains(self.entry):
            raise LinkError(f"entry {self.entry:#x} outside text section")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON document (bytes hex-encoded)."""
        def sec(s: Section) -> dict:
            return {"name": s.name, "base": s.base,
                    "data": s.data.hex(), "writable": s.writable}

        doc = {
            "text": sec(self.text),
            "data_sections": [sec(s) for s in self.data_sections],
            "entry": self.entry,
            "imports": self.imports,
            "symbols": self.symbols,
            "ground_truth": [
                {"func_name": g.func_name, "entry": g.entry,
                 "frame_size": g.frame_size,
                 "objects": [{"name": o.name, "offset": o.offset,
                              "size": o.size, "kind": o.kind}
                             for o in g.objects]}
                for g in self.ground_truth
            ],
            "metadata": self.metadata,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "BinaryImage":
        doc = json.loads(text)

        def sec(d: dict) -> Section:
            return Section(d["name"], d["base"], bytes.fromhex(d["data"]),
                           d["writable"])

        return cls(
            text=sec(doc["text"]),
            data_sections=[sec(d) for d in doc["data_sections"]],
            entry=doc["entry"],
            imports=list(doc["imports"]),
            symbols={k: int(v) for k, v in doc["symbols"].items()},
            ground_truth=[
                FrameGroundTruth(
                    g["func_name"], g["entry"], g["frame_size"],
                    [StackObject(o["name"], o["offset"], o["size"],
                                 o["kind"]) for o in g["objects"]])
                for g in doc["ground_truth"]
            ],
            metadata=dict(doc["metadata"]),
        )

    @classmethod
    def parse(cls, text: str | bytes, source: str) -> "BinaryImage":
        """:meth:`from_json` of ``text``, where text that holds no
        binary image raises :class:`~repro.errors.LinkError` naming
        ``source`` (the file or field the text came from)."""
        try:
            return cls.from_json(text)
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise LinkError(f"{source} is not a binary image "
                            f"({type(exc).__name__}: {exc})") from None
