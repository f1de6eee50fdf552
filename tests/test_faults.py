"""Faults the registry must catch.

Each row of FAULTS patches one name with a wrong version and lists the
registered checks that must fail under it, each at the least n that shows
the fault and in the way it fails there: by a false predicate, or by
raising the exception named.  Only those checks run, through
verify.run_check, so a row costs milliseconds.  A change to a check body
that costs it its power shows as a row that no longer fails.  Each row
runs on fresh caches, so that a fault neither meets objects built by the
right code nor leaves wrong ones behind.

The name is a module attribute, or a key when the row patches a dict, such
as a row of models.SIGNED_FAMILIES: the entry is replaced in place, so every
module that imported the dict sees the fault.
"""

import dataclasses

import pytest

from coxcat import core, interpret, models, signed, typemaps, verify
from coxcat.core import SetPartition, ValidationError
from coxcat.models import SIGNED_FAMILIES, SignedFamily

CHECK = {(e.suite, e.name): e for e in verify.CHECKS}


def _scan_drops_last_nonnested(blocks, order):
    """core.noncrossing_wrt, except that the nonnested blocks its natural-order scan leaves lose their last."""
    ok = core.noncrossing_wrt(blocks, order)
    if ok and isinstance(blocks, SetPartition) and order == range(1, blocks.n + 1):
        object.__setattr__(blocks, "_nonnested", blocks._nonnested[:-1])
    return ok


def _all_matchings_but_the_last(items, matchings=signed.maximal_matchings):
    """signed.maximal_matchings, bound before the patch, less its last matching."""
    return list(matchings(items))[:-1]


def _decompose_without_gamma(p, decompose=signed.decompose_triple):
    """signed.decompose_triple with an empty matching gamma."""
    return dataclasses.replace(decompose(p), gamma=())


def _image_type_without_pairs(family, m):
    """interpret.image_type without the sizes of the image's pairs: the type of sigma minus X alone."""
    marked = set(m.marked)
    return tuple(sorted((len(b) for b in m.sigma.blocks if b not in marked), reverse=True))


# (module or dict, name or key, replacement,
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
    pytest.param(
        signed, "maximal_matchings", _all_matchings_but_the_last,
        {
            ("signed", "enumeration is duplicate-free and matches the counting formula"): (1, None),
            ("models", "bijective enumerations agree with filtering signed partitions"): (1, None),
        },
        id="maximal_matchings drops its last matching",
    ),
    pytest.param(
        verify, "decompose_triple", _decompose_without_gamma,
        {
            ("signed", "compose then decompose is the identity on triples"): (2, None),
            ("signed", "triple decomposition round-trips and parity marks the zero block"): (2, ValidationError),
        },
        id="decompose_triple loses the matching",
    ),
    pytest.param(
        typemaps, "_iota", lambda family, m, check, inverse=False: m,
        {("typemaps", "composed maps are type-preserving bijections"): (4, None)},
        id="iota is the identity",
    ),
    pytest.param(
        SIGNED_FAMILIES, "nn_b", SignedFamily("nn_na", "middle"),
        {("models", "bijective enumerations agree with filtering signed partitions"): (3, None)},
        id="nn_b holds its middle marks",
    ),
    pytest.param(
        SIGNED_FAMILIES, "nn_c", SignedFamily("nn_na", "first"),
        {("models", "bijective enumerations agree with filtering signed partitions"): (3, None)},
        id="nn_c holds its first marks",
    ),
    pytest.param(
        SIGNED_FAMILIES, "nc_d", SignedFamily("nc_nn_pm", "first"),
        {
            ("typemaps", "marked-pair maps are bijections on their classes"): (4, None),
            ("encode", "pair encoding of the D family is bijective with its type clause"): (4, None),
        },
        id="nc_d holds its first marks",
    ),
    pytest.param(
        SIGNED_FAMILIES, "nc_b", SignedFamily("nc_na", "middle"),
        {
            ("models", "bijective enumerations agree with filtering signed partitions"): (3, None),
            ("interpret", "nc_b: bijective with type clause"): (3, None),
            ("typemaps", "composed maps are type-preserving bijections"): (3, KeyError),
        },
        id="nc_b marks its nonaligned blocks",
    ),
    pytest.param(
        interpret, "image_type", _image_type_without_pairs,
        {
            ("interpret", "nc_b: bijective with type clause"): (2, None),
            ("interpret", "nn_b: bijective with type clause"): (2, None),
            ("interpret", "nn_c: bijective with type clause"): (2, None),
            ("interpret", "nc_d: bijective with type clause"): (1, None),
            ("interpret", "nn_d: bijective with type clause"): (1, None),
        },
        id="image_type drops the pair sizes",
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


@pytest.mark.parametrize("target, name, fault, caught_by", FAULTS)
def test_fault_is_caught(monkeypatch, target, name, fault, caught_by):
    if isinstance(target, dict):
        monkeypatch.setitem(target, name, fault)
    else:
        monkeypatch.setattr(target, name, fault)
    for (suite, check), (n, raises) in caught_by.items():
        result = verify.run_check(CHECK[suite, check], n)
        if raises is None:
            assert result == verify.Check(suite, check, False, f"n={n}")
        else:
            assert not result.ok and result.detail.startswith(f"n={n}: {raises.__name__}: ")
