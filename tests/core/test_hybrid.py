"""Untraced branch directions in a recompiled image.

Only traced code is lifted: there is no static extension to the blocks
the traced runs executed, so an input that takes a branch direction no
traced run took traps in the recompiled image instead of running code
that was never observed."""

import pytest

from repro.cc import compile_source
from repro.core import wytiwyg_recompile
from repro.emu import run_binary

BRANCHY = r'''
int score(int kind, int value) {
    if (kind == 0) return value * 2;
    if (kind == 1) return value + 100;
    return -value;
}
int main() {
    int kind = read_int();
    int value = read_int();
    printf("score=%d\n", score(kind, value));
    return 0;
}
'''


@pytest.fixture(scope="module")
def image():
    return compile_source(BRANCHY, "gcc12", "3", "hybrid")


def test_plain_mode_traps_on_untraced(image):
    result = wytiwyg_recompile(image, [[0, 7]])
    assert run_binary(result.recovered, [0, 7]).stdout == b"score=14\n"
    assert run_binary(result.recovered, [1, 7]).exit_code in (198, 199)
