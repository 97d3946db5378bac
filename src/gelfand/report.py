"""Verification reports: named pass/fail checks with failure witnesses."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    scope: str
    n: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "scope": self.scope,
            "n": self.n,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"verify {self.scope} n={self.n}: {status} ({len(self.checks)} checks)"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}{suffix}")
        return "\n".join(lines)
