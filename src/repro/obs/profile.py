"""Execution-count profiles (e.g. the emulator's hot-block profile).

A :class:`Profile` is a key -> count map with a top-N view.  The hot
paths that feed one (the superblock dispatch loop, the IR call path)
grab ``profile.counts`` once and update the plain dict directly, so the
per-event cost is a dict get/set and nothing more.
"""

from __future__ import annotations

__all__ = ["Profile"]


class Profile:
    """A named execution-count profile."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict = {}

    def add(self, key, n: int = 1) -> None:
        counts = self.counts
        counts[key] = counts.get(key, 0) + n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def top(self, n: int = 10) -> list[tuple]:
        """The ``n`` hottest keys as (key, count), hottest first."""
        ranked = sorted(self.counts.items(),
                        key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[:n]

    def to_dict(self, top: int = 10) -> dict:
        def _key(k):
            return f"{k:#x}" if isinstance(k, int) else str(k)
        return {
            "total": self.total,
            "unique": len(self.counts),
            "top": [[_key(k), n] for k, n in self.top(top)],
        }
