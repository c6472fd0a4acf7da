"""Uniform pass/fail check records shared by the verifiers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
WARN = "warn"


@dataclass(frozen=True)
class Check:
    name: str
    lhs: object
    rhs: object
    status: str

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def residual_zero(name: str, value) -> Check:
    zero = not value if not hasattr(value, "is_zero") else value.is_zero
    return Check(name, value, 0, PASS if zero else FAIL)


def warn(name: str, detail) -> Check:
    return Check(name, detail, None, WARN)


def all_ok(checks) -> bool:
    return all(c.ok for c in checks)
