"""Run configuration, verification reports, and deterministic CSV/JSON emission.

Reports are plain data: a suite name, an ordered list of case results, and an
echo of the numeric configuration.  Nothing time- or path-dependent goes into
a report, so identical (seed, config) runs serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Optional

from .sequences import json_safe_float

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def fmt17(v: float) -> str:
    """17-significant-digit decimal rendering (round-trips binary64)."""
    return f"{float(v):.17g}"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    window: int = 65536
    trials: int = 200
    tolerance_exact: float = 1e-12
    tolerance_fast: float = 1e-9

    def __post_init__(self):
        if self.window < 16:
            raise ValueError("window must be at least 16")
        if not (self.tolerance_exact > 0 and self.tolerance_fast > 0):
            raise ValueError("tolerances must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.trials < 1:
            raise ValueError("trials must be positive")

    def environment_echo(self) -> dict:
        """The configuration, echoed into every report."""
        return {
            "seed": self.seed,
            "window": self.window,
            "trials": self.trials,
            "tolerance_exact": self.tolerance_exact,
            "tolerance_fast": self.tolerance_fast,
        }


@dataclass
class CaseResult:
    name: str
    status: str
    observed_constant: Optional[float] = None
    witness: Optional[dict] = None
    note: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"unknown status: {self.status!r}")

    def to_json_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.observed_constant is not None:
            d["observed_constant"] = json_safe_float(self.observed_constant)
        if self.witness is not None:
            d["witness"] = self.witness
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class VerificationReport:
    suite: str
    cases: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def add(self, case: CaseResult) -> CaseResult:
        self.cases.append(case)
        return case

    def extend(self, other) -> None:
        """Append the cases of another report, or an iterable of cases."""
        self.cases.extend(other.cases if isinstance(other, VerificationReport) else other)

    @property
    def failed(self) -> list:
        return [c for c in self.cases if c.status == FAIL]

    @property
    def passed(self) -> bool:
        return not self.failed

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for c in self.cases:
            out[c.status] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [c.to_json_dict() for c in self.cases],
            "counts": self.counts(),
            "environment": self.environment,
        }


def emit_report_json(report: VerificationReport, fh: IO[str]) -> None:
    fh.write(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    fh.write("\n")


def emit_report_csv(report: VerificationReport, fh: IO[str]) -> None:
    fh.write("case,status,observed_constant\n")
    for c in report.cases:
        oc = "" if c.observed_constant is None else fmt17(c.observed_constant)
        fh.write(f"{c.name},{c.status},{oc}\n")


def emit_values_csv(indices, values, halfwidths, fh: IO[str]) -> None:
    """`index,value,tail_halfwidth` rows; header always present."""
    fh.write("index,value,tail_halfwidth\n")
    for i, v, h in zip(indices, values, halfwidths):
        fh.write(f"{int(i)},{fmt17(v)},{fmt17(h)}\n")
