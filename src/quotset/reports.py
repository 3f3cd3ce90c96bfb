"""Small pass/fail reports shared by the verification operations."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckItem", "CheckReport", "law_item"]


@dataclass(frozen=True)
class CheckItem:
    """One named check; ``passed`` is None for informational/skipped entries."""

    name: str
    passed: bool | None
    detail: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skip"
        return "pass" if self.passed else "fail"


def law_item(name: str, counterexample, name_of) -> CheckItem:
    """The check of a law whose exhaustive search found ``counterexample``:
    passed when it is None, and otherwise failed at that element id or
    tuple of ids, each written by ``name_of``."""
    if counterexample is None:
        return CheckItem(name, True)
    if isinstance(counterexample, tuple):
        return CheckItem(name, False, f"fails at ({', '.join(map(name_of, counterexample))})")
    return CheckItem(name, False, f"fails at {name_of(counterexample)}")


@dataclass(frozen=True)
class CheckReport:
    """An ordered bundle of checks; ``ok`` ignores informational entries."""

    title: str
    items: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.passed is not False for item in self.items)

    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(item for item in self.items if item.passed is False)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": i.name, "status": i.status, "detail": i.detail}
                for i in self.items
            ],
        }
