"""Verification reports: named pass/fail checks with failure witnesses."""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def first_failure(name: str, failures: Iterable[str], passed: str = "") -> Check:
    """Fail with the first witness in ``failures``, or pass with ``passed``.

    ``failures`` is read lazily, so a search stops at its first witness.
    """
    witness = next(iter(failures), None)
    return Check(name, witness is None, passed if witness is None else witness)


class Report(NamedTuple):
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
