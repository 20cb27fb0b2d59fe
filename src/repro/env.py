"""The one truthiness rule for boolean ``REPRO_*`` switches.

A value is stripped and lower-cased; ``""``, ``0``, ``false``, ``off``
and ``no`` mean off, anything else means on.  An unset switch takes
its default.
"""

from __future__ import annotations

import os

_OFF = ("", "0", "false", "off", "no")


def truthy(value: str) -> bool:
    """Whether a switch value means on."""
    return value.strip().lower() not in _OFF


def env_flag(name: str, default: bool = False) -> bool:
    """The boolean switch ``name``: its default when unset, else
    :func:`truthy` of its value."""
    value = os.environ.get(name)
    return default if value is None else truthy(value)
