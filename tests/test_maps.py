"""The contracts of the map table (coxcat.maps), each tested once over its rows
or domains: the large-n round trip, the least rank, the domain guard and the
JSON round trip.

The exhaustive sweeps of the same rows run in coxcat.verify up to each
check's bound; the round-trip test takes them to n = 20..60, sizes no
enumeration reaches.  The maps are called with check=True, so a forward map
also confirms that the inverse image lies in its source family.
"""

import json

import pytest
from conftest import RANK_ONE, SAMPLED, guard_params, large_member, raises_guard_text
from hypothesis import given, settings, strategies as st

from coxcat import interpret, jsonio, maps, models, typemaps
from coxcat.core import ValidationError


@pytest.mark.parametrize("row", maps.PAIRS, ids=lambda row: row.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_round_trip(row, data):
    x = data.draw(large_member(row.source), label="source")
    y = row.forward(x, check=True)
    assert row.inverse(y, check=True) == x
    assert row.keeps(x, y)
    # the JSON readers build through the checked constructors, which change a non-canonical object
    assert _through_json(row.source, x) == x and _through_json(row.target, y) == y
    if row.target in SAMPLED:
        y = data.draw(large_member(row.target), label="target")
        x = row.inverse(y, check=True)
        assert row.forward(x, check=True) == y
        assert row.keeps(x, y)


@pytest.mark.parametrize("domain", maps.DOMAINS)
def test_domain_rank_contract(domain):
    """Below its least rank a domain is an error; at it the domain is nonempty
    and every pair through it meets a target as large as its source."""
    least = 1 if domain in RANK_ONE else 0
    members = maps.DOMAINS[domain][1]
    with pytest.raises(ValidationError, match=f"^n must be >= {least}$"):
        list(members(least - 1))
    assert list(members(least))
    for row in maps.PAIRS:
        if domain in (row.source, row.target):
            assert len(list(maps.DOMAINS[row.source][1](least))) == len(list(maps.DOMAINS[row.target][1](least)))


@pytest.mark.parametrize("call,x,text", guard_params())
def test_domain_guard(call, x, text):
    """Every map of the table but g_map_inverse (every path lies in its
    domain) rejects an object just outside its domain with that domain's text."""
    raises_guard_text(call, x, text)


def _through_json(domain, x):
    """x written and read back as the JSON of its domain's kind."""
    kind = maps.DOMAINS[domain][0]
    to_obj, from_obj = getattr(jsonio, f"{kind}_to_obj"), getattr(jsonio, f"{kind}_from_obj")
    return from_obj(json.loads(json.dumps(to_obj(x))))


@pytest.mark.parametrize("domain", maps.DOMAINS)
def test_json_round_trip(domain):
    members = maps.DOMAINS[domain][1]
    for n in range(1 if domain in RANK_ONE else 0, 5):
        for x in members(n):
            assert _through_json(domain, x) == x


@pytest.mark.parametrize("letter", typemaps.CHAINS)
def test_composed_rows_forward_check(letter, monkeypatch):
    """A composed row called with check=False tests no membership; with check=True it does."""
    row = maps.MAP[f"nc_to_nn_{letter.lower()}"]
    members = list(maps.DOMAINS[row.source][1](4))
    calls = []

    def counted(f):
        def wrapper(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)

        return wrapper

    for module, name in ((models, "is_member"), (models, "member_triple"), (interpret, "member_triple")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    for x in members:
        assert row.inverse(row.forward(x, check=False), check=False) == x
    assert calls == []
    row.inverse(row.forward(members[-1], check=True), check=True)
    assert calls
