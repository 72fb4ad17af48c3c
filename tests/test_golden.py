"""Seeded reports stay what ``golden_reports.json`` says they are.

Every golden job (see ``golden.py``) is run again and compared with its
entry.  Under the Python and numpy versions the file records, every field
must match exactly, the report's SHA-256 included.  Under other versions a
float may round differently while the code is right, so exit codes and
oracle calls must still match exactly and achieved values within 1e-9
relative, but the digest comparison is skipped and says why.  A change that
is meant to change outputs regenerates the file (``golden.COMMAND``).
"""

import json
import math
import platform

import numpy as np
import pytest

import golden

RECORDED = json.loads(golden.GOLDEN.read_text())
SAME_ENVIRONMENT = golden.environment() == {"python": RECORDED["python"], "numpy": RECORDED["numpy"]}


@pytest.fixture(scope="module")
def computed():
    return golden.compute()


def _differs(field: str, old, new) -> bool:
    if old == new:
        return False
    # under other versions an achieved value may round differently
    if SAME_ENVIRONMENT or field != "achieved_value" or None in (old, new):
        return True
    return not math.isclose(old, new, rel_tol=1e-9)


def _changes(computed, fields) -> list[str]:
    """One line per recorded job and field whose value changed."""
    return [
        f"{name}: {field} {old.get(field)!r} -> {computed.get(name, {}).get(field)!r}"
        for name, old in RECORDED["entries"].items()
        for field in fields
        if _differs(field, old.get(field), computed.get(name, {}).get(field))
    ]


def test_golden_jobs_are_the_recorded_ones(computed):
    assert sorted(computed) == sorted(RECORDED["entries"]), f"regenerate with: {golden.COMMAND}"


def test_golden_exit_codes_oracle_calls_and_values(computed):
    changes = _changes(computed, ("exit_code", "oracle_calls", "achieved_value"))
    assert not changes, "\n".join([f"{len(changes)} fields changed (regenerate: {golden.COMMAND}):", *changes])


def test_golden_report_digests(computed):
    if not SAME_ENVIRONMENT:
        pytest.skip(f"digests were recorded under Python {RECORDED['python']}, numpy {RECORDED['numpy']}; "
                    f"this is Python {platform.python_version()}, numpy {np.__version__}")
    changes = _changes(computed, ("report_sha256",))
    assert not changes, "\n".join([f"{len(changes)} digests changed (regenerate: {golden.COMMAND}):", *changes])
