"""MiniC type system: sizes, alignment, decay."""

import pytest

from repro.cc.ctypes import (
    ArrayType,
    CHAR,
    FuncType,
    INT,
    PtrType,
    SHORT,
    StructType,
    VOID,
    decay,
    is_pointerish,
    pointee_size,
)
from repro.errors import CompileError


def test_scalar_sizes():
    assert INT.size == 4 and CHAR.size == 1 and SHORT.size == 2
    assert PtrType(INT).size == 4
    assert VOID.size == 0


def test_array_size_and_align():
    arr = ArrayType(INT, 10)
    assert arr.size == 40 and arr.align == 4
    carr = ArrayType(CHAR, 5)
    assert carr.size == 5 and carr.align == 1


def test_struct_layout_with_padding():
    s = StructType("s")
    s.lay_out([("c", CHAR), ("x", INT), ("d", CHAR)])
    offsets = {f.name: f.offset for f in s.fields}
    assert offsets == {"c": 0, "x": 4, "d": 8}
    assert s.size == 12  # tail padding to align 4


def test_incomplete_struct_rejected():
    s = StructType("fwd")
    with pytest.raises(CompileError):
        _ = s.size


def test_field_lookup():
    s = StructType("s")
    s.lay_out([("a", INT)])
    assert s.field_named("a").offset == 0
    with pytest.raises(CompileError):
        s.field_named("zz")


def test_decay():
    assert decay(ArrayType(INT, 4)) == PtrType(INT)
    f = FuncType(INT, (INT,))
    assert decay(f) == PtrType(f)
    assert decay(INT) == INT


def test_pointee_size_scaling():
    assert pointee_size(PtrType(INT)) == 4
    assert pointee_size(ArrayType(SHORT, 4)) == 2
    assert pointee_size(PtrType(VOID)) == 1
    with pytest.raises(CompileError):
        pointee_size(INT)


def test_is_pointerish():
    assert is_pointerish(PtrType(CHAR))
    assert is_pointerish(ArrayType(INT, 2))
    assert not is_pointerish(INT)
