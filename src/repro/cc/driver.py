"""MiniC compiler driver: source text -> binary image."""

from __future__ import annotations

from ..binary.image import BinaryImage
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..opt.pipeline import optimize_module
from ..recompile.link import compile_ir
from .frontend import lower_to_ir
from .parser import parse
from .personalities import Personality, personality


def compile_to_ir(source: str, name: str = "minic",
                  config: Personality | None = None) -> Module:
    """Parse, lower and optimize MiniC to IR under ``config``
    (optimization runs the worklist pass manager,
    :mod:`repro.opt.manager`)."""
    unit = parse(source)
    module = lower_to_ir(unit, name)
    verify_module(module)
    if config is not None and config.opt.level > 0:
        optimize_module(module, config.opt)
        verify_module(module)
    return module


def compile_source(source: str,
                   compiler: str = "gcc12",
                   opt_level: str = "3",
                   name: str = "minic") -> BinaryImage:
    """Compile MiniC source into a binary with the given personality.

    The resulting image carries ground-truth stack layouts in its debug
    section and provenance in its metadata.
    """
    config = personality(compiler, opt_level)
    module = compile_to_ir(source, name, config)
    module.metadata.update({
        "compiler": config.compiler,
        "opt": config.opt_level,
        "program": name,
    })
    return compile_ir(module, config.lower,
                      metadata=dict(module.metadata))
