"""Verification reports: named residual checks with tolerances and verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_complex(z) -> list:
    """[real, imag] as 17-significant-digit strings."""
    z = complex(z)
    return [fmt_float(z.real), fmt_float(z.imag)]


@dataclass
class CheckResult:
    """One named residual check."""

    name: str
    residual: float
    tolerance: float
    samples: int = 1
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        out = {
            "check": self.name,
            "max_residual": fmt_float(self.residual),
            "tolerance": fmt_float(self.tolerance),
            "samples": self.samples,
            "verdict": self.verdict,
        }
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class VerificationReport:
    """Collection of checks run against one target, with its provenance."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name, residual, tolerance, samples=1, **details) -> CheckResult:
        res = CheckResult(name, float(residual), float(tolerance), samples, dict(details))
        self.checks.append(res)
        return res

    def check(self, name) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "report": self.name,
            "params": self.params,
            "seed": self.seed,
            "verdict": "pass" if self.passed else "fail",
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "notes": self.notes,
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            lines.append(
                f"{self.name}.{c.name}: {c.verdict}  residual {c.residual:.3e}"
                f" (tol {c.tolerance:.1e}, samples {c.samples})"
            )
        return lines
