"""Report record produced by every quantitative verification."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class EstimateReport:
    """One measured-versus-bound comparison.

    ``passed`` holds exactly when measured <= bound * (1 + tolerance);
    ``ratio`` is measured / bound (zero when both vanish).
    """

    name: str
    measured: float
    bound: float
    ratio: float
    passed: bool
    params: dict = field(default_factory=dict)
    tolerance: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def make_report(
    name: str,
    measured: float,
    bound: float,
    tolerance: float,
    params: dict | None = None,
) -> EstimateReport:
    measured = float(measured)
    bound = float(bound)
    if bound > 0:
        ratio = measured / bound
    else:
        ratio = 0.0 if measured == 0.0 else math.inf
    passed = measured <= bound * (1.0 + tolerance) or (bound == 0.0 and measured == 0.0)
    return EstimateReport(
        name=name,
        measured=measured,
        bound=bound,
        ratio=ratio,
        passed=bool(passed),
        params=dict(params or {}),
        tolerance=float(tolerance),
    )
