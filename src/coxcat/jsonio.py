"""JSON (de)serialization for every object kind handled by the CLI."""

from __future__ import annotations

import itertools
import json

from .core import SetPartition, ValidationError
from .encode import BPair, DPair, LatticePath, ShiftedTableau
from .models import MarkedPair, MarkedTriple
from .signed import SignedPartition


def set_partition_to_obj(p: SetPartition) -> dict:
    return _partition_to_obj(p)


def set_partition_from_obj(o: dict) -> SetPartition:
    return _partition_from_obj(o, SetPartition)


def signed_partition_to_obj(p: SignedPartition) -> dict:
    return _partition_to_obj(p)


def signed_partition_from_obj(o: dict) -> SignedPartition:
    return _partition_from_obj(o, SignedPartition)


def partition_from_obj(o: dict):
    """Unsigned when every element is positive, signed otherwise."""
    return _partition_from_obj(o, None)


def marked_pair_to_obj(m: MarkedPair) -> dict:
    return {"sigma": set_partition_to_obj(m.sigma), "marked": [list(b) for b in m.marked]}


def marked_pair_from_obj(o: dict) -> MarkedPair:
    _need(o, "sigma", "marked")
    return MarkedPair.make(set_partition_from_obj(o["sigma"]), _int_lists(o["marked"], "marked"))


def marked_triple_to_obj(t: MarkedTriple) -> dict:
    out = marked_pair_to_obj(t.pair)
    out["epsilon"] = t.epsilon
    return out


def marked_triple_from_obj(o: dict) -> MarkedTriple:
    _need(o, "sigma", "marked", "epsilon")
    if not _is_int(o["epsilon"]):
        raise ValidationError("epsilon must be -1, 0 or 1")
    return MarkedTriple.make(set_partition_from_obj(o["sigma"]), _int_lists(o["marked"], "marked"), o["epsilon"])


def path_to_obj(p: LatticePath) -> dict:
    return {"steps": p.steps}


def path_from_obj(o: dict) -> LatticePath:
    _need(o, "steps")
    return LatticePath.make(o["steps"])


def tableau_to_obj(t: ShiftedTableau) -> dict:
    return {
        "south": list(t.south),
        "east": list(t.east),
        "ones": sorted([r, c] for r, c in t.ones),
    }


def tableau_from_obj(o: dict) -> ShiftedTableau:
    _need(o, "south", "east", "ones")
    ones = _int_lists(o["ones"], "ones")
    if any(len(rc) != 2 for rc in ones):
        raise ValidationError("each of ones must be a [row, column] pair")
    return ShiftedTableau.make(_ints(o["south"], "south"), _ints(o["east"], "east"), [tuple(rc) for rc in ones])


def b_pair_to_obj(bp: BPair) -> dict:
    return _pair_to_obj(bp)


def b_pair_from_obj(o: dict) -> BPair:
    return _pair_from_obj(o, BPair)


def d_pair_to_obj(dp: DPair) -> dict:
    return _pair_to_obj(dp)


def d_pair_from_obj(o: dict) -> DPair:
    return _pair_from_obj(o, DPair)


# Shared bodies of the public readers and writers.  They stay private and are
# not aliased, so a tracer that counts calls by name sees each kind apart.


def _partition_to_obj(p: SetPartition | SignedPartition) -> dict:
    return {"n": p.n, "blocks": [list(b) for b in p.blocks]}


def _partition_from_obj(o: dict, cls: type[SetPartition] | type[SignedPartition] | None):
    """The partition o describes, of class cls; when cls is None, signed iff an element is negative."""
    _need(o, "blocks")
    blocks = _int_lists(o["blocks"], "blocks")
    if cls is None:
        cls = SignedPartition if any(x < 0 for b in blocks for x in b) else SetPartition
    return cls.from_blocks(blocks, _n(o))


def _pair_to_obj(pair: BPair | DPair) -> dict:
    x = pair.x
    if x is not None:
        x = {x[0]: x[1] if x[0] == "int" else list(x[1])}
    return {"sigma": set_partition_to_obj(pair.sigma), "x": x}


def _pair_from_obj(o: dict, cls: type[BPair] | type[DPair]) -> BPair | DPair:
    _need(o, "sigma", "x")
    sigma, x = set_partition_from_obj(o["sigma"]), o["x"]
    if x is None:
        return cls.make(sigma, None)
    if isinstance(x, dict) and "edge" in x:
        return cls.make(sigma, ("edge", tuple(_ints(x["edge"], "edge"))))
    if isinstance(x, dict) and "block" in x:
        return cls.make(sigma, ("block", tuple(sorted(_ints(x["block"], "block")))))
    if isinstance(x, dict) and "int" in x and _is_int(x["int"]):
        return cls.make(sigma, ("int", x["int"]))
    raise ValidationError(f"bad x slot {_quote(x)}")


def _need(o, *keys):
    if not isinstance(o, dict):
        raise ValidationError("expected a JSON object")
    for k in keys:
        if k not in o:
            raise ValidationError(f"missing key {k!r}")


def _quote(v) -> str:
    """v as JSON, so that an error quotes the input as the user wrote it.

    repr for a value JSON cannot encode, which only a Python caller can pass.
    """
    try:
        return json.dumps(v)
    except (TypeError, ValueError):
        return repr(v)


def _is_int(x) -> bool:
    # JSON true and false arrive as bool, which Python counts as int
    return type(x) is int


def _n(o: dict) -> int | None:
    n = o.get("n")
    if n is not None and not _is_int(n):
        raise ValidationError(f"n must be an integer, got {_quote(n)}")
    return n


def _ints(v, what: str) -> list:
    # one C-level pass over the element types; as in _is_int, a bool is not an int
    if not isinstance(v, list) or not {*map(type, v)} <= {int}:
        raise ValidationError(f"{what} must be a list of integers, got {_quote(v)}")
    return v


def _int_lists(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{what} must be a list of lists of integers, got {_quote(v)}")
    # one type set for the blocks and one for all their elements; only a failure reads block by block
    if {*map(type, v)} <= {list} and {*map(type, itertools.chain.from_iterable(v))} <= {int}:
        return v
    each = f"each of {what}"
    for b in v:
        _ints(b, each)
    return v
