"""Deterministic model of the external C library.

Both execution engines link against this module: the machine emulator
reads call arguments from the emulated stack (cdecl), while recompiled IR
may pass arguments explicitly once the varargs refinement (paper §5.2) has
recovered call-site signatures.  The :class:`Args` abstraction hides the
difference.

Every function is deterministic (``rand`` is a fixed LCG, input comes from
an explicit input stream), so "same stdout bytes + same exit code" is a
sound functional-equivalence check between an input binary and its
recompiled counterpart.
"""

from __future__ import annotations

from ..binary.image import HEAP_BASE, HEAP_SIZE
from ..errors import EmulationError
from .memory import Memory


class ExitProgram(Exception):
    """Raised by ``exit`` to unwind the executing engine."""

    def __init__(self, code: int):
        self.code = code & 0xFFFFFFFF
        super().__init__(f"exit({code})")


class Args:
    """Accessor for the 32-bit arguments of one external call."""

    def get(self, index: int) -> int:
        raise NotImplementedError


class StackArgs(Args):
    """Arguments laid out on the stack, cdecl-style, at ``base``."""

    def __init__(self, mem: Memory, base: int):
        self._mem = mem
        self._base = base

    def get(self, index: int) -> int:
        return self._mem.read(self._base + 4 * index, 4)


class ListArgs(Args):
    """Arguments passed as an explicit list (post-recovery IR calls)."""

    def __init__(self, values: list[int]):
        self._values = values

    def get(self, index: int) -> int:
        try:
            return self._values[index] & 0xFFFFFFFF
        except IndexError:
            raise EmulationError(
                f"external call read missing argument {index}") from None


def parse_format(fmt: bytes) -> list[str]:
    """Return the conversion kinds of a printf-style format string.

    Kinds are ``"int"`` (%d/%u/%x/%c) and ``"str"`` (%s).  The tracer
    counts them at every variadic import call (:func:`vararg_counter`),
    which gives the varargs refinement (paper §5.2) each call site's
    prototype.
    """
    kinds: list[str] = []
    i = 0
    while i < len(fmt):
        if fmt[i] != ord("%"):
            i += 1
            continue
        i += 1
        # Skip flags/width (a small, fixed subset: '-', '0'..'9').
        while i < len(fmt) and fmt[i:i + 1] in b"-0123456789":
            i += 1
        if i >= len(fmt):
            break
        conv = fmt[i:i + 1]
        i += 1
        if conv == b"%":
            continue
        if conv == b"s":
            kinds.append("str")
        elif conv in (b"d", b"u", b"x", b"c"):
            kinds.append("int")
        else:
            raise EmulationError(f"unsupported conversion %{conv.decode()}")
    return kinds


def vararg_counter(name: str):
    """``count(mem, sp)`` for a variadic external with a format string,
    else None: the number of arguments one call at stack pointer ``sp``
    passes, its fixed arguments plus one per conversion of its format
    string.  Both emulator engines report it to the tracer at each such
    import call, before the call runs, and only while tracing; the block
    engine looks it up once, when it compiles the call."""
    # Imported here: repro.core's package imports the emulator.
    from ..core.extfuncs import EXTERNAL_DB
    sig = EXTERNAL_DB.get(name)
    if sig is None or not sig.vararg or sig.format_arg is None:
        return None
    nargs, fmt_slot = sig.nargs, 4 * sig.format_arg

    def count(mem: Memory, sp: int) -> int:
        fmt = mem.read_cstring(mem.read((sp + fmt_slot) & 0xFFFFFFFF, 4))
        return nargs + len(parse_format(fmt))
    return count


def _signed(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


class LibC:
    """Deterministic libc model bound to one memory image.

    ``input_items`` is the run's input: a list of ints and byte strings,
    consumed in order by ``read_int`` and ``read_buf``.  Output accumulates
    in :attr:`stdout`.
    """

    def __init__(self, mem: Memory,
                 input_items: list[int | bytes] | None = None):
        self.mem = mem
        self.reset(input_items)
        self._dispatch = {
            "printf": self._printf,
            "sprintf": self._sprintf,
            "puts": self._puts,
            "putchar": self._putchar,
            "memcpy": self._memcpy,
            "memmove": self._memcpy,
            "memset": self._memset,
            "memcmp": self._memcmp,
            "strlen": self._strlen,
            "strcpy": self._strcpy,
            "strcmp": self._strcmp,
            "strcat": self._strcat,
            "strtok": self._strtok,
            "atoi": self._atoi,
            "malloc": self._malloc,
            "calloc": self._calloc,
            "free": self._free,
            "exit": self._exit,
            "abs": self._abs,
            "rand": self._rand,
            "srand": self._srand,
            "read_int": self._read_int,
            "read_buf": self._read_buf,
        }

    def reset(self, input_items: list[int | bytes] | None = None) -> None:
        """Start a new process on ``input_items``: empty stdout, the
        input stream rewound, and fresh heap, ``rand`` and ``strtok``
        state (the bound memory is reset by its owner)."""
        self.stdout = bytearray()
        self._input = list(input_items or [])
        self._input_pos = 0
        self._heap_next = HEAP_BASE
        self._rand_state = 1
        self._strtok_ptr = 0

    def call(self, name: str, args: Args) -> int:
        """Invoke external function ``name``; returns the eax value."""
        try:
            impl = self._dispatch[name]
        except KeyError:
            raise EmulationError(f"call to unknown external {name!r}") \
                from None
        return impl(args) & 0xFFFFFFFF

    # -- formatted output ---------------------------------------------------

    def format(self, fmt: bytes, args: Args, first_vararg: int) -> bytes:
        """Render ``fmt`` with varargs starting at ``first_vararg``."""
        out = bytearray()
        argi = first_vararg
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != ord("%"):
                out.append(ch)
                i += 1
                continue
            i += 1
            pad_zero = False
            left = False
            width = 0
            while i < len(fmt) and fmt[i:i + 1] in b"-0123456789":
                c = fmt[i:i + 1]
                if c == b"-":
                    left = True
                elif c == b"0" and width == 0:
                    pad_zero = True
                else:
                    width = width * 10 + int(c)
                i += 1
            conv = fmt[i:i + 1]
            i += 1
            if conv == b"%":
                piece = b"%"
            elif conv == b"d":
                piece = str(_signed(args.get(argi))).encode()
                argi += 1
            elif conv == b"u":
                piece = str(args.get(argi) & 0xFFFFFFFF).encode()
                argi += 1
            elif conv == b"x":
                piece = format(args.get(argi) & 0xFFFFFFFF, "x").encode()
                argi += 1
            elif conv == b"c":
                piece = bytes([args.get(argi) & 0xFF])
                argi += 1
            elif conv == b"s":
                piece = self.mem.read_cstring(args.get(argi))
                argi += 1
            else:
                raise EmulationError(
                    f"unsupported conversion %{conv.decode()}")
            if len(piece) < width:
                fill = b"0" if pad_zero and not left else b" "
                pad = fill * (width - len(piece))
                piece = piece + pad if left else pad + piece
            out += piece
        return bytes(out)

    def _printf(self, args: Args) -> int:
        fmt = self.mem.read_cstring(args.get(0))
        rendered = self.format(fmt, args, 1)
        self.stdout += rendered
        return len(rendered)

    def _sprintf(self, args: Args) -> int:
        dst = args.get(0)
        fmt = self.mem.read_cstring(args.get(1))
        rendered = self.format(fmt, args, 2)
        self.mem.write_bytes(dst, rendered + b"\x00")
        return len(rendered)

    def _puts(self, args: Args) -> int:
        s = self.mem.read_cstring(args.get(0))
        self.stdout += s + b"\n"
        return len(s) + 1

    def _putchar(self, args: Args) -> int:
        c = args.get(0) & 0xFF
        self.stdout.append(c)
        return c

    # -- memory and strings -------------------------------------------------

    def _memcpy(self, args: Args) -> int:
        dst, src, n = args.get(0), args.get(1), args.get(2)
        self.mem.write_bytes(dst, self.mem.read_bytes(src, n))
        return dst

    def _memset(self, args: Args) -> int:
        dst, c, n = args.get(0), args.get(1), args.get(2)
        self.mem.write_bytes(dst, bytes([c & 0xFF]) * n)
        return dst

    def _memcmp(self, args: Args) -> int:
        a = self.mem.read_bytes(args.get(0), args.get(2))
        b = self.mem.read_bytes(args.get(1), args.get(2))
        return 0 if a == b else (1 if a > b else -1)

    def _strlen(self, args: Args) -> int:
        return len(self.mem.read_cstring(args.get(0)))

    def _strcpy(self, args: Args) -> int:
        dst = args.get(0)
        s = self.mem.read_cstring(args.get(1))
        self.mem.write_bytes(dst, s + b"\x00")
        return dst

    def _strcmp(self, args: Args) -> int:
        a = self.mem.read_cstring(args.get(0))
        b = self.mem.read_cstring(args.get(1))
        return 0 if a == b else (1 if a > b else -1)

    def _strcat(self, args: Args) -> int:
        dst = args.get(0)
        existing = self.mem.read_cstring(dst)
        s = self.mem.read_cstring(args.get(1))
        self.mem.write_bytes(dst + len(existing), s + b"\x00")
        return dst

    def _strtok(self, args: Args) -> int:
        s, delims_ptr = args.get(0), args.get(1)
        delims = self.mem.read_cstring(delims_ptr)
        ptr = s if s != 0 else self._strtok_ptr
        if ptr == 0:
            return 0
        while self.mem.read(ptr, 1) != 0 and \
                self.mem.read(ptr, 1) in delims:
            ptr += 1
        if self.mem.read(ptr, 1) == 0:
            self._strtok_ptr = 0
            return 0
        start = ptr
        while self.mem.read(ptr, 1) != 0 and \
                self.mem.read(ptr, 1) not in delims:
            ptr += 1
        if self.mem.read(ptr, 1) != 0:
            self.mem.write(ptr, 1, 0)
            self._strtok_ptr = ptr + 1
        else:
            self._strtok_ptr = 0
        return start

    def _atoi(self, args: Args) -> int:
        s = self.mem.read_cstring(args.get(0))
        text = s.decode("latin-1").strip()
        sign = 1
        if text[:1] in ("+", "-"):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        digits = ""
        for ch in text:
            if not ch.isdigit():
                break
            digits += ch
        return sign * int(digits) if digits else 0

    # -- heap ---------------------------------------------------------------

    def _malloc(self, args: Args) -> int:
        size = args.get(0)
        aligned = (size + 15) & ~15
        if self._heap_next + aligned > HEAP_BASE + HEAP_SIZE:
            raise EmulationError("heap exhausted")
        ptr = self._heap_next
        self._heap_next += max(aligned, 16)
        return ptr

    def _calloc(self, args: Args) -> int:
        total = args.get(0) * args.get(1)
        ptr = self._malloc(ListArgs([total]))
        self.mem.write_bytes(ptr, b"\x00" * total)
        return ptr

    def _free(self, args: Args) -> int:
        return 0  # bump allocator: free is a no-op

    # -- process / misc -----------------------------------------------------

    def _exit(self, args: Args) -> int:
        raise ExitProgram(args.get(0))

    def _abs(self, args: Args) -> int:
        return abs(_signed(args.get(0)))

    def _rand(self, args: Args) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) \
            & 0x7FFFFFFF
        return (self._rand_state >> 16) & 0x7FFF

    def _srand(self, args: Args) -> int:
        self._rand_state = args.get(0) & 0x7FFFFFFF or 1
        return 0

    # -- input stream -------------------------------------------------------

    def _next_input(self) -> int | bytes | None:
        if self._input_pos >= len(self._input):
            return None
        item = self._input[self._input_pos]
        self._input_pos += 1
        return item

    def _read_int(self, args: Args) -> int:
        item = self._next_input()
        if not isinstance(item, int):
            return 0xFFFFFFFF  # -1: end of input
        return item

    def _read_buf(self, args: Args) -> int:
        dst, maxlen = args.get(0), args.get(1)
        item = self._next_input()
        if not isinstance(item, bytes):
            return 0
        blob = item[:maxlen]
        self.mem.write_bytes(dst, blob)
        return len(blob)
