"""Shared result type for the executable invariant and lemma checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


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


def mean_and_sigma(samples):
    """Sample mean and the standard error of the mean over the last axis:
    two floats for a 1-D sample, one entry per row for a 2-D one."""
    arr = np.asarray(samples, dtype=float)
    size = arr.shape[-1]
    mean = arr.mean(axis=-1)
    sigma = arr.std(axis=-1, ddof=1) / math.sqrt(size) if size > 1 else np.zeros_like(mean)
    return (float(mean), float(sigma)) if arr.ndim == 1 else (mean, sigma)
