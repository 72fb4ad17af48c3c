"""Shared result type for the executable invariant and lemma checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    """Outcome of one executable check.

    ``status`` is "ok" for a completed check, or a short tag such as
    "precondition_unmet" when the check could not be asserted.
    """

    name: str
    passed: bool
    status: str = "ok"
    details: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> str:
        import json
        from dataclasses import asdict

        return json.dumps(asdict(self), sort_keys=True, default=float)


def mean_and_sigma(samples) -> tuple[float, float]:
    """Sample mean and the standard error of the mean."""
    import numpy as np

    arr = np.asarray(samples, dtype=float)
    m = float(arr.mean())
    if arr.size < 2:
        return m, 0.0
    return m, float(arr.std(ddof=1) / math.sqrt(arr.size))
