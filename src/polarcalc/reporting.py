"""Uniform pass/fail check records shared by the verifiers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import Poly

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


def is_zero(value) -> bool:
    """True for a zero number or the zero polynomial."""
    return value.is_zero if isinstance(value, Poly) else not value


def residual_zero(name: str, value) -> Check:
    return Check(name, value, 0, PASS if is_zero(value) else FAIL)


def warn(name: str, detail) -> Check:
    return Check(name, detail, None, WARN)


def all_ok(checks) -> bool:
    return all(c.ok for c in checks)
