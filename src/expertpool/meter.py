"""Word-level accounting of learner state.

One word holds one stored scalar (a loss sum, a count, an id, an epoch index,
a cumulative MWU loss). Harness-side bookkeeping such as full loss matrices
and regret traces is deliberately outside the meter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WordMeter"]


@dataclass
class WordMeter:
    current: int = 0
    peak: int = 0
    by_category: dict[str, int] = field(default_factory=dict)

    def charge(self, category: str, words: int) -> None:
        if words < 0:
            raise ValueError(f"cannot charge {words} words")
        self.by_category[category] = self.by_category.get(category, 0) + words
        self.current += words
        if self.current > self.peak:
            self.peak = self.current

    def release(self, category: str, words: int) -> None:
        if words < 0:
            raise ValueError(f"cannot release {words} words")
        held = self.by_category.get(category, 0)
        if words > held:
            raise ValueError(
                f"release of {words} words exceeds balance {held} in {category!r}"
            )
        self.by_category[category] = held - words
        self.current -= words
