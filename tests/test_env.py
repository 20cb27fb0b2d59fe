"""Boolean ``REPRO_*`` switches share one truthiness rule: a set value
is stripped and lower-cased, and ``""``, ``0``, ``false``, ``off`` and
``no`` mean off; an unset switch takes its default."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import driver

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _analysis_cache_enabled():
    """``REPRO_ANALYSIS_CACHE`` is read once, at import: ask a fresh
    interpreter that inherits the patched environment."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.opt.analysis import analysis_cache_enabled as f; "
         "print(f())"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout.strip() == "True"


#: switch -> (reader, default when unset)
SWITCHES = {
    "REPRO_CHECK": (lambda: driver._resolve_check(None), False),
    "REPRO_STATIC_WIDEN":
        (lambda: driver._resolve_static_widen(None), False),
    "REPRO_ANALYSIS_CACHE": (_analysis_cache_enabled, True),
}


@pytest.mark.parametrize("value,expected", [
    (None, None), ("", False), ("0", False), ("false", False),
    ("off", False), ("no", False), ("OFF", False), (" False ", False),
    ("1", True), ("yes", True), (" TRUE ", True),
])
@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_boolean_switches_share_one_rule(monkeypatch, name, value,
                                         expected):
    reader, default = SWITCHES[name]
    if value is None:
        monkeypatch.delenv(name, raising=False)
        expected = default
    else:
        monkeypatch.setenv(name, value)
    assert reader() is expected
