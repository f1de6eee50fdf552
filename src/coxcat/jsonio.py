"""JSON (de)serialization for every object kind handled by the CLI."""

from __future__ import annotations

from .core import SetPartition, ValidationError
from .encode import BPair, DPair, LatticePath, ShiftedTableau
from .models import MarkedPair, MarkedTriple
from .signed import SignedPartition


def set_partition_to_obj(p: SetPartition) -> dict:
    return {"n": p.n, "blocks": [list(b) for b in p.blocks]}


def set_partition_from_obj(o: dict) -> SetPartition:
    _need(o, "blocks")
    return SetPartition.from_blocks(_int_lists(o["blocks"], "blocks"), _n(o))


def signed_partition_to_obj(p: SignedPartition) -> dict:
    return {"n": p.n, "blocks": [list(b) for b in p.blocks]}


def signed_partition_from_obj(o: dict) -> SignedPartition:
    _need(o, "blocks")
    return SignedPartition.from_blocks(_int_lists(o["blocks"], "blocks"), _n(o))


def partition_from_obj(o: dict):
    """Unsigned when every element is positive, signed otherwise."""
    _need(o, "blocks")
    if any(x < 0 for b in _int_lists(o["blocks"], "blocks") for x in b):
        return signed_partition_from_obj(o)
    return set_partition_from_obj(o)


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
    if not isinstance(o["steps"], str):
        raise ValidationError("steps must be a string of N and E")
    return LatticePath(o["steps"])


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


def _xslot_to_obj(x):
    if x is None:
        return None
    kind, val = x
    if kind == "edge":
        return {"edge": list(val)}
    if kind == "block":
        return {"block": list(val)}
    return {"int": val}


def _xslot_from_obj(o):
    if o is None:
        return None
    if isinstance(o, dict) and "edge" in o:
        return ("edge", tuple(_ints(o["edge"], "edge")))
    if isinstance(o, dict) and "block" in o:
        return ("block", tuple(sorted(_ints(o["block"], "block"))))
    if isinstance(o, dict) and "int" in o and _is_int(o["int"]):
        return ("int", o["int"])
    raise ValidationError(f"bad x slot {o!r}")


def b_pair_to_obj(bp: BPair) -> dict:
    return {"sigma": set_partition_to_obj(bp.sigma), "x": _xslot_to_obj(bp.x)}


def b_pair_from_obj(o: dict) -> BPair:
    _need(o, "sigma", "x")
    return BPair(set_partition_from_obj(o["sigma"]), _xslot_from_obj(o["x"]))


def d_pair_to_obj(dp: DPair) -> dict:
    return {"sigma": set_partition_to_obj(dp.sigma), "x": _xslot_to_obj(dp.x)}


def d_pair_from_obj(o: dict) -> DPair:
    _need(o, "sigma", "x")
    return DPair(set_partition_from_obj(o["sigma"]), _xslot_from_obj(o["x"]))


def _need(o, *keys):
    if not isinstance(o, dict):
        raise ValidationError("expected a JSON object")
    for k in keys:
        if k not in o:
            raise ValidationError(f"missing key {k!r}")


def _is_int(x) -> bool:
    # JSON true and false arrive as bool, which Python counts as int
    return type(x) is int


def _n(o: dict) -> int | None:
    n = o.get("n")
    if n is not None and not _is_int(n):
        raise ValidationError(f"n must be an integer, got {n!r}")
    return n


def _ints(v, what: str) -> list:
    if not isinstance(v, list) or not all(_is_int(x) for x in v):
        raise ValidationError(f"{what} must be a list of integers, got {v!r}")
    return v


def _int_lists(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{what} must be a list of lists of integers, got {v!r}")
    for b in v:
        _ints(b, f"each of {what}")
    return v
