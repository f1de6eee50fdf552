"""Acceptance gate: every registered check at its full declared bound.

Each check prints one line; run with `pytest tests/test_acceptance.py -s`
to see the report.
"""

import pytest

from coxcat import verify


def test_registered_checks_are_named_uniquely():
    keys = [(e.suite, e.name) for e in verify.CHECKS]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("entry", verify.CHECKS, ids=lambda e: f"{e.suite}: {e.name}")
def test_registered_check(entry):
    full = entry.lo if entry.bound is None else entry.bound
    c = verify.run_check(entry, full)
    text = f"n = {entry.lo}..{full} {c.detail}".rstrip()
    print(f"ACCEPTANCE {c.suite}: {c.name}: {'PASS' if c.ok else 'FAIL'} - {text}")
    assert c.ok, text
