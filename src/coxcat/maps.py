"""The bijection pairs, each declared once: its two CLI names, its forward map
and inverse (called as ``f(x, check)``), the domains of its two sides and the
statistic it preserves.  ``cli.MAPS``, the bijection checks of ``verify`` and
the large-n round-trip test all read this table.

The maps are looked up on their modules at each call, so a rebinding of a
module attribute (a tracer, a test's monkeypatch) is seen through the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import encode, interpret, typemaps
from .core import noncrossing_partitions, nonnesting_partitions, type_of
from .models import (
    MARKED_CLASSES,
    MARKED_TRIPLE_CLASSES,
    SIGNED_FAMILIES,
    enumerate_family,
    marked_members,
    validate_marked,
)
from .signed import signed_type, zero_block_size


@dataclass(frozen=True)
class MapPair:
    """A bijection from the domain ``source`` onto ``target`` and its inverse.

    ``keeps(x, forward(x))`` holds when the pair preserves its statistic and
    the image meets any condition that a round trip does not show.
    """

    name: str
    inverse_name: str
    source: str
    target: str
    forward: Callable
    inverse: Callable
    keeps: Callable = lambda x, y: True


def _late(module, attr: str) -> Callable:
    return lambda x, check=True: getattr(module, attr)(x, check=check)


def _named(module, name: str, source: str, target: str, keeps: Callable, inverse: str | None = None) -> MapPair:
    """A pair whose CLI names are its maps' names in module; the inverse is ``<name>_inverse`` unless given."""
    inverse = inverse or f"{name}_inverse"
    return MapPair(name, inverse, source, target, _late(module, name), _late(module, inverse), keeps)


def _sizes(blocks) -> list[int]:
    return [len(b) for b in blocks]


def _profile(p) -> list[tuple[int, int]]:
    return sorted((b[-1], len(b)) for b in p.blocks)


# ---------------------------------------------------------------------------
# Domains: name -> (JSON kind, members at rank n).  The kind names the jsonio
# parse and dump.  The entries are plain tuples, which a rebinding of
# module-level dict values reaches.

DOMAINS = {
    "nc_a": ("set_partition", noncrossing_partitions),
    "nn_a": ("set_partition", nonnesting_partitions),
    **{cls: ("marked_pair", lambda n, cls=cls: marked_members(cls, n)) for cls in MARKED_CLASSES},
    **{cls: ("marked_triple", lambda n, cls=cls: marked_members(cls, n)) for cls in MARKED_TRIPLE_CLASSES},
    **{fam: ("signed_partition", lambda n, fam=fam: enumerate_family(fam, n)) for fam in SIGNED_FAMILIES},
    "restricted": ("marked_pair", encode.restricted_pairs),
    "b_pairs": ("b_pair", encode.b_pairs),
    "d_pairs": ("d_pair", encode.d_pairs),
    "dyck": ("path", lambda n: (q for q in encode.lattice_paths(n) if encode.is_dyck(q))),
    "paths": ("path", encode.lattice_paths),
    "CT_B": ("tableau", lambda n: encode.catalan_tableaux(n, "CT_B")),
}


# ---------------------------------------------------------------------------
# Statistics: independent oracles, written from the definitions


def _b_pair_type(bp) -> tuple[int, ...]:
    if bp.x is not None and bp.x[0] == "block":
        return tuple(sorted((len(b) for b in bp.sigma.blocks if b != bp.x[1]), reverse=True))
    return type_of(bp.sigma)


def _d_pair_type(dp) -> tuple[int, ...]:
    if dp.x is None or dp.x[0] == "edge":
        return tuple(sorted(_sizes(dp.sigma.blocks) + [1], reverse=True))
    if dp.x[0] == "block":
        return _b_pair_type(dp)
    blk = dp.sigma.block_containing(abs(dp.x[1]))
    rest = [len(b) for b in dp.sigma.blocks if b != blk]
    return tuple(sorted(rest + [len(blk) + 1], reverse=True))


def _over_absolute(p, pair, drop: int | None = None) -> bool:
    """Whether pair's partition is |p|, the blocks {|x| : x in B} of the signed
    partition p, less drop: psi_b's image is over |p| and psi_d's over |p| less
    n (Biane-Goodman-Nica 2003)."""
    absolute = {frozenset(abs(x) for x in b) - {drop} for b in p.blocks} - {frozenset()}
    return absolute == {frozenset(b) for b in pair.sigma.blocks}


def _phi(fam: str) -> MapPair:
    cls = SIGNED_FAMILIES[fam].marked
    return _named(interpret, f"phi_{fam}", fam, cls,
                  lambda p, m: validate_marked(m, cls) and signed_type(p) == interpret.image_type(fam, m))


def _composed(letter: str, src: str, dst: str) -> MapPair:
    def same_type(p, q):
        return signed_type(q) == signed_type(p) and zero_block_size(q) == zero_block_size(p)

    return MapPair(f"nc_to_nn_{letter.lower()}", f"nn_to_nc_{letter.lower()}", src, dst,
                   lambda p, check=True: typemaps.nc_to_nn(letter, p, check=check),
                   lambda q, check=True: typemaps.nn_to_nc(letter, q, check=check), same_type)


def _iota_d_keeps(t, q) -> bool:
    return q.epsilon == t.epsilon and (t.epsilon != 0 or typemaps.iota_b(t.pair, check=False) == q.pair)


def _f_map_keeps(m, t) -> bool:
    # every image is a type-B Catalan tableau, of type D exactly when {n} is not marked
    return encode.tableau_validate(t, "CT_B") and encode.tableau_validate(t, "CT_D") == ((m.sigma.n,) not in m.marked)


PAIRS = (
    *(_phi(fam) for fam in SIGNED_FAMILIES),
    _named(typemaps, "rho", "nc_a", "nn_a", lambda p, q: _profile(q) == _profile(p)),
    _named(typemaps, "xi", "nc_a", "nc_a", lambda p, q: type_of(q) == type_of(p), inverse="xi"),
    _named(typemaps, "rho_bar", "nc_na", "nn_na",
           lambda m, q: validate_marked(q, "nn_na") and [b[-1] for b in q.marked] == [b[-1] for b in m.marked]),
    _named(typemaps, "xi_bar", "nc_nn", "nc_na",
           lambda m, q: validate_marked(q, "nc_na") and _sizes(q.marked) == _sizes(m.marked)),
    _named(typemaps, "iota_b", "nc_nn", "nc_nn", lambda m, q: len(m.marked) % 2 == 1 or q == m),
    _named(typemaps, "iota_d", "nc_nn_pm", "nc_nn_pm", _iota_d_keeps),
    *(_composed(letter, nc, nn) for letter, (nc, nn) in typemaps.CHAINS.items()),
    _named(encode, "psi_b", "nc_b", "b_pairs",
           lambda p, bp: signed_type(p) == _b_pair_type(bp) and _over_absolute(p, bp)),
    _named(encode, "psi_d", "nc_d", "d_pairs",
           lambda p, dp: signed_type(p) == _d_pair_type(dp) and _over_absolute(p, dp, p.n)),
    _named(encode, "kappa", "nc_nn_pm", "restricted", lambda t, m: encode.is_restricted_pair(m)),
    MapPair("nc_to_dyck", "nc_to_dyck_inverse", "nc_a", "dyck", _late(encode, "nc_to_dyck"),
            lambda q, check=True: encode.dyck_to_nc(q)),
    MapPair("g_map", "g_map_inverse", "nc_nn", "paths", _late(encode, "g_map"),
            lambda q, check=True: encode.g_map_inverse(q)),
    _named(encode, "f_map", "nc_nn", "CT_B", _f_map_keeps),
)

MAP = {row.name: row for row in PAIRS}
