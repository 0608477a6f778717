"""Check reports shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["Check", "CheckReport"]

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class Check:
    """One verified identity: what was checked, the outcome, a witness on failure."""

    name: str
    rule: str
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "rule": self.rule, "status": self.status, "detail": self.detail}


@dataclass
class CheckReport:
    """Ordered collection of checks with an overall verdict."""

    title: str
    checks: List[Check] = field(default_factory=list)

    def record(self, name: str, rule: str, ok: bool, detail: str = "") -> Check:
        check = Check(name, rule, PASS if ok else FAIL, detail)
        self.checks.append(check)
        return check

    def skip(self, name: str, rule: str, reason: str) -> Check:
        check = Check(name, rule, SKIP, reason)
        self.checks.append(check)
        return check

    def merge(self, other: "CheckReport") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if c.status == FAIL]
