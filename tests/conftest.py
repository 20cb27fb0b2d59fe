"""Shared fixtures: small MiniC programs and compiled images.

Compilation results are cached per session so the suite stays fast.
"""

from __future__ import annotations

import functools
import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cc import compile_source, compile_to_ir, personality

#: A program touching most MiniC features (structs, arrays, pointers,
#: recursion, switch, function pointers, strings, varargs).
FEATURE_SOURCE = r"""
struct point { int x; int y; };
int squares[10];
char msg[] = "hi";
int add(int a, int b) { return a + b; }
int mul2(int a, int b) { return a * b; }
int apply(int (*fn)(int, int), int a, int b) { return fn(a, b); }
int sum_array(int *arr, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += arr[i];
    return s;
}
int classify(int v) {
    switch (v) {
    case 0: return 100;
    case 1:
    case 2: return 200;
    case 3: return 300;
    case 5: return 500;
    default: return -1;
    }
}
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() {
    struct point p; struct point q;
    int i;
    p.x = 3; p.y = 4;
    q = p;
    for (i = 0; i < 10; i++) squares[i] = i * i;
    printf("%s %d %d\n", msg, q.x + q.y, sum_array(squares, 10));
    printf("%d %d %d\n", classify(2), classify(5), classify(9));
    printf("%d %d fib=%d\n", apply(add, 6, 7), apply(mul2, 6, 7),
           fib(9));
    char buf[24];
    sprintf(buf, "x=%d", 42);
    puts(buf);
    return 0;
}
"""

FEATURE_STDOUT = (b"hi 7 285\n200 500 -1\n13 42 fib=34\nx=42\n")

#: A tiny compute kernel used where a fast lift/recompile cycle matters.
KERNEL_SOURCE = r"""
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() {
    int arr[8];
    int i;
    for (i = 0; i < 8; i++) arr[i] = i * 3;
    int s = 0;
    for (i = 0; i < 8; i++) s += arr[i];
    printf("fib=%d sum=%d\n", fib(8), s);
    return 0;
}
"""

KERNEL_STDOUT = b"fib=21 sum=84\n"

_image_cache: dict = {}


@functools.cache
def e2e_cells():
    """The end-to-end benchmark's workload definitions
    (``benchmarks/e2e/cells.py``), imported by path: ``build_cells``,
    ``WORKLOAD_SPECS`` and ``Cell``."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" \
        / "cells.py"
    spec = importlib.util.spec_from_file_location("e2e_cells", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def cached_image(source: str, compiler: str = "gcc12",
                 opt_level: str = "3", name: str = "t"):
    key = (source, compiler, opt_level)
    if key not in _image_cache:
        _image_cache[key] = compile_source(source, compiler, opt_level,
                                           name)
    return _image_cache[key]


@pytest.fixture(scope="session")
def feature_image():
    return cached_image(FEATURE_SOURCE)


@pytest.fixture(scope="session")
def kernel_image():
    return cached_image(KERNEL_SOURCE)


@pytest.fixture(scope="session")
def kernel_module():
    return compile_to_ir(KERNEL_SOURCE, "kernel", personality("gcc12",
                                                              "3"))


@pytest.fixture
def feature_source():
    return FEATURE_SOURCE


@pytest.fixture
def kernel_source():
    return KERNEL_SOURCE


@pytest.fixture
def collector_on():
    """CPython's cyclic collector on for the test, then as it was."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()
