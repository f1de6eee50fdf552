"""Faults the registry must catch.

Each row of FAULTS patches one name with a wrong version and lists the
registered checks that must fail under it, each at the least n that shows
the fault and in the way it fails there: by a false predicate, or by
raising the exception named.  Only those checks run, through
verify.run_check, so a row costs milliseconds.  A change to a check body
that costs it its power shows as a row that no longer fails.  Each row
runs on fresh caches, so that a fault neither meets objects built by the
right code nor leaves wrong ones behind.
"""

import pytest

from coxcat import core, models, typemaps, verify
from coxcat.core import SetPartition

CHECK = {(e.suite, e.name): e for e in verify.CHECKS}


def _scan_drops_last_nonnested(blocks, order):
    """core.noncrossing_wrt, except that the nonnested blocks its natural-order scan leaves lose their last."""
    ok = core.noncrossing_wrt(blocks, order)
    if ok and isinstance(blocks, SetPartition) and order == range(1, blocks.n + 1):
        object.__setattr__(blocks, "_nonnested", blocks._nonnested[:-1])
    return ok


# (module, name, replacement,
#  {(suite, check name): (least failing n, exception raised there or None)})
FAULTS = [
    pytest.param(
        verify, "nonnesting_wrt", lambda blocks, order: True,
        {("core", "pairwise arc definition agrees with both scans"): (4, None)},
        id="nonnesting_wrt accepts everything",
    ),
    pytest.param(
        models, "noncrossing_wrt", _scan_drops_last_nonnested,
        {
            ("models", "bijective enumerations agree with filtering signed partitions"): (2, None),
            ("interpret", "nc_b: bijective with type clause"): (1, None),
            ("interpret", "nc_d: bijective with type clause"): (2, None),
            ("typemaps", "marked-pair maps are bijections on their classes"): (1, IndexError),
            ("encode", "kappa is a bijection onto the restricted pairs"): (2, None),
            ("encode", "path reflection is bijective and restricts to the avoiding paths"): (2, None),
        },
        id="the noncrossing scan caches all but the last nonnested block",
    ),
]


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    monkeypatch.setattr(typemaps, "_rho_index", {})
    models.enumerate_family.cache_clear()
    models.type_census.cache_clear()
    yield
    models.enumerate_family.cache_clear()
    models.type_census.cache_clear()


@pytest.mark.parametrize("module, name, fault, caught_by", FAULTS)
def test_fault_is_caught(monkeypatch, module, name, fault, caught_by):
    monkeypatch.setattr(module, name, fault)
    for (suite, check), (n, raises) in caught_by.items():
        result = verify.run_check(CHECK[suite, check], n)
        if raises is None:
            assert result == verify.Check(suite, check, False, f"n={n}")
        else:
            assert not result.ok and result.detail.startswith(f"n={n}: {raises.__name__}: ")
