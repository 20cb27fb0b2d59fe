"""Workload infrastructure: a benchmark is MiniC source plus inputs.

Each workload mirrors the role its SPECint 2006 namesake plays in the
paper's evaluation: a distinct mix of stack-usage idioms (arrays of
structs, spills, deep recursion, variadic I/O, pointer loops) with
deterministic, checkable output.  ``ref_inputs`` are the inputs used both
for tracing and for measurement, like the paper's use of the ref
datasets for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..binary.image import BinaryImage
from ..cc.driver import compile_source

InputItems = list  # list[int | bytes]


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    ref_inputs: tuple = ()          # tuple[tuple[int|bytes, ...], ...]
    description: str = ""

    def inputs(self) -> list[InputItems]:
        if not self.ref_inputs:
            return [[]]
        return [list(items) for items in self.ref_inputs]

    def compile(self, compiler: str = "gcc12",
                opt_level: str = "3") -> BinaryImage:
        return _compile_cached(self.name, self.source, compiler,
                               opt_level)


@lru_cache(maxsize=128)
def _compile_cached(name: str, source: str, compiler: str,
                    opt_level: str) -> BinaryImage:
    return compile_source(source, compiler, opt_level, name)


def deterministic_bytes(n: int, seed: int = 1) -> bytes:
    """A reproducible pseudo-random byte string (inputs for the
    compression/transform workloads)."""
    out = bytearray()
    state = seed & 0x7FFFFFFF or 1
    while len(out) < n:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append((state >> 16) & 0xFF)
    return bytes(out)
