"""Faults the registry must catch.

Each row of FAULTS patches one name with a wrong version and lists the
registered checks that must fail under it, each at the least n that shows
the fault.  Only those checks run, through verify.run_check, so a row costs
milliseconds.  A change to a check body that costs it its power shows as a
row that no longer fails.
"""

import pytest

from coxcat import verify

CHECK = {(e.suite, e.name): e for e in verify.CHECKS}

# (module, name, replacement, {(suite, check name): least failing n})
FAULTS = [
    pytest.param(
        verify, "nonnesting_wrt", lambda blocks, order: True,
        {("core", "pairwise arc definition agrees with both scans"): 4},
        id="nonnesting_wrt accepts everything",
    ),
]


@pytest.mark.parametrize("module, name, fault, caught_by", FAULTS)
def test_fault_is_caught(monkeypatch, module, name, fault, caught_by):
    monkeypatch.setattr(module, name, fault)
    for (suite, check), n in caught_by.items():
        assert verify.run_check(CHECK[suite, check], n) == verify.Check(suite, check, False, f"n={n}")
