"""Boolean ``REPRO_*`` switches share one truthiness rule: a set value
is stripped and lower-cased, and ``""``, ``0``, ``false``, ``off`` and
``no`` mean off; an unset switch takes its default."""

import pytest

from repro.core import driver
from repro.sanalysis import interproc_enabled

#: switch -> (reader, default when unset)
SWITCHES = {
    "REPRO_CHECK": (lambda: driver._resolve_check(None), False),
    "REPRO_INTERPROC": (interproc_enabled, True),
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
