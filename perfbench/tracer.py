"""Per-layer call tracing for coxcat, installed from outside the package.

The tracer wraps the public functions and classmethods of every coxcat
module and rebinds each wrapper under every name, in every ``coxcat.*``
module, that holds the original object (module attributes, and values of
module-level dicts such as ``verify.SUITES`` or the tuples in ``cli.MAPS``).
``from .core import x`` binds at import time while the deferred imports in
``models`` and ``encode`` resolve at call time, so both kinds of reference
must be replaced for the trace to see every call.

Accounting is single-threaded and stack based:

* every wrapped call, and every ``next`` on a wrapped generator, is a span
  with a name, a layer, start and end times, its parent span and the op id
  the workload set;
* a layer's self time is the time during which its span is the innermost
  open span, i.e. a span's duration minus the time its child spans cover;
* a counter's busy time is the time during which at least one of its spans
  is open, so nested calls inside one counter are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
import types
from array import array

LAYERS = ("core", "signed", "models", "interpret", "typemaps", "encode", "series", "verify", "cli")
# The benchmark's own code between calls into coxcat; its spans are the roots.
BENCH_LAYER = "bench"

LAYER_OF_MODULE = {
    "coxcat.core": "core",
    "coxcat.signed": "signed",
    "coxcat.models": "models",
    "coxcat.interpret": "interpret",
    "coxcat.typemaps": "typemaps",
    "coxcat.encode": "encode",
    "coxcat.series": "series",
    "coxcat.verify": "verify",
    "coxcat.cli": "cli",
    "coxcat.jsonio": "cli",
    "coxcat.render": "cli",
}

# Operators that are the unit of work of their layer although they are
# neither module-level functions nor classmethods.
EXTRA_METHODS = {"coxcat.series": {"Series": ("__mul__", "inverse")}}

# Spans stored per traced rep (about 60 bytes each); the counters see them all.
SPAN_LIMIT = 400_000

# Calls whose truthy results are counted, for accept ratios.
COUNT_ACCEPTED = frozenset({"models.is_member"})

_CALLABLE_TYPES = (types.FunctionType, functools._lru_cache_wrapper)


def coxcat_modules() -> list[types.ModuleType]:
    """Every imported coxcat module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items()) if name == "coxcat" or name.startswith("coxcat.")]


def public_callables(module: types.ModuleType):
    """(qualified name, owner class or None, attribute, original) for one module.

    Module-level public functions and ``lru_cache`` objects defined in the
    module, the classmethods of its classes, and the EXTRA_METHODS.
    """
    short = module.__name__.split(".", 1)[1]
    extra = EXTRA_METHODS.get(module.__name__, {})
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        if isinstance(obj, _CALLABLE_TYPES) and getattr(obj, "__module__", None) == module.__name__:
            yield f"{short}.{attr}", None, attr, obj
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for meth, raw in sorted(vars(obj).items()):
                if isinstance(raw, classmethod):
                    yield f"{short}.{attr}.{meth}", obj, meth, raw
                elif meth in extra.get(attr, ()):
                    yield f"{short}.{attr}.{meth}", obj, meth, raw


def rebind(replacements: dict) -> dict:
    """Replace objects under every name that holds them in coxcat modules.

    ``replacements`` maps an original object to its replacement.  Module
    attributes, values of module-level dicts, and tuples held as such values
    are rewritten.  Returns the reverse mapping, which undoes the rebinding.
    """
    by_id = {id(k): v for k, v in replacements.items()}

    def swap(v):
        return by_id.get(id(v), v)

    for module in coxcat_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, swap(value))
            elif isinstance(value, dict):
                for k, item in list(value.items()):
                    if id(item) in by_id:
                        value[k] = swap(item)
                    elif isinstance(item, tuple) and any(id(x) in by_id for x in item):
                        value[k] = tuple(swap(x) for x in item)
    return {v: k for k, v in replacements.items()}


class Tracer:
    """Spans and counters for the wrapped coxcat callables.

    Counters are numbered; each layer, each wrapped name and each metric
    group (a set of names, e.g. every enumeration generator of core) is one
    counter.  Spans are kept in parallel arrays up to SPAN_LIMIT; later
    spans still feed every counter but are not stored.
    """

    def __init__(self, groups: dict[str, tuple[str, ...]]):
        self.clock = time.perf_counter
        self.groups = dict(groups)
        self.op = 0
        self.layers = LAYERS + (BENCH_LAYER,)
        self.layer_self = [0.0] * len(self.layers)
        self.counter_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.entries: list[int] = []
        self.items: list[int] = []
        self.accepted: list[int] = []
        self.failures: list[int] = []
        self.busy: list[float] = []
        self.depth: list[int] = []
        self.outer_start: list[float] = []
        for layer in self.layers:
            self._counter("layer:" + layer)
        for group in self.groups:
            self._counter("group:" + group)
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_counters: list[tuple[int, ...]] = []
        self.stack: list[list] = []
        self.next_span = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_ok = array("b")
        self.unbind: dict = {}
        self.class_originals: list[tuple] = []

    # -- registration ------------------------------------------------------

    def _counter(self, key: str) -> int:
        idx = self.counter_index.get(key)
        if idx is None:
            idx = self.counter_index[key] = len(self.counter_index)
            for col in (self.calls, self.entries, self.items, self.accepted, self.failures, self.depth):
                col.append(0)
            self.busy.append(0.0)
            self.outer_start.append(0.0)
        return idx

    def register(self, name: str, layer: str) -> int:
        """A name id for spans of ``name``, feeding its layer, itself and its groups."""
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(self.layers.index(layer))
        counters = [self.counter_index["layer:" + layer], self._counter("name:" + name)]
        counters += [self.counter_index["group:" + g] for g, members in self.groups.items() if name in members]
        self.name_counters.append(tuple(counters))
        return nid

    # -- span bookkeeping --------------------------------------------------

    def enter(self, nid: int) -> None:
        t = self.clock()
        for c in self.name_counters[nid]:
            if self.depth[c] == 0:
                self.outer_start[c] = t
                self.entries[c] += 1
            self.depth[c] += 1
            self.calls[c] += 1
        sid = self.next_span
        self.next_span += 1
        self.stack.append([sid, nid, t, 0.0])

    def exit(self, ok: bool = True, item: bool = False, accepted: bool = False) -> None:
        t = self.clock()
        sid, nid, start, child = self.stack.pop()
        dur = t - start
        self.layer_self[self.name_layer[nid]] += dur - child
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[0]
        for c in self.name_counters[nid]:
            self.depth[c] -= 1
            if self.depth[c] == 0:
                self.busy[c] += t - self.outer_start[c]
                if not ok:
                    self.failures[c] += 1
                if item:
                    self.items[c] += 1
            if accepted:
                self.accepted[c] += 1
        if len(self.span_id) < SPAN_LIMIT:
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(t)
            self.span_ok.append(1 if ok else 0)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code (layer ``bench``)."""
        self.enter(self.register(name, BENCH_LAYER))
        ok = False
        try:
            yield
            ok = True
        finally:
            self.exit(ok=ok)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        nid = self.register(name, layer)
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(nid)
                    try:
                        x = next(it)
                    except StopIteration:
                        exit_()
                        return
                    except BaseException:
                        exit_(ok=False)
                        raise
                    exit_(item=True)
                    yield x

            return functools.wraps(fn)(traced_gen)

        count_accepted = name in COUNT_ACCEPTED

        def traced(*args, **kwargs):
            enter(nid)
            try:
                r = fn(*args, **kwargs)
            except BaseException:
                exit_(ok=False)
                raise
            exit_(accepted=count_accepted and bool(r))
            return r

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every public callable of the imported coxcat modules."""
        replacements = {}
        for module in coxcat_modules():
            layer = LAYER_OF_MODULE.get(module.__name__)
            if layer is None:
                continue
            for name, owner, attr, orig in public_callables(module):
                if owner is None:
                    replacements[orig] = self.wrap(orig, name, layer)
                    continue
                self.class_originals.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(orig.__func__, name, layer)))
                else:
                    setattr(owner, attr, self.wrap(orig, name, layer))
        self.unbind = rebind(replacements)

    def uninstall(self) -> None:
        rebind(self.unbind)
        for owner, attr, orig in self.class_originals:
            setattr(owner, attr, orig)
        self.unbind, self.class_originals = {}, []

    # -- reporting ---------------------------------------------------------

    def counter(self, key: str) -> dict:
        idx = self.counter_index.get(key)
        if idx is None:
            return {"calls": 0, "entries": 0, "items": 0, "accepted": 0, "failures": 0, "busy_s": 0.0}
        return {
            "calls": self.calls[idx],
            "entries": self.entries[idx],
            "items": self.items[idx],
            "accepted": self.accepted[idx],
            "failures": self.failures[idx],
            "busy_s": self.busy[idx],
        }

    def layer_summary(self) -> dict[str, dict]:
        out = {}
        for i, layer in enumerate(self.layers):
            c = self.counter("layer:" + layer)
            c["self_s"] = self.layer_self[i]
            out[layer] = c
        return out

    def write_spans(self, path) -> int:
        """Write the stored spans as gzip'd tab-separated lines; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\top\tname\tlayer\tstart\tend\tok\n")
            names, layers, nl = self.names, self.layers, self.name_layer
            for i in range(len(self.span_id)):
                nid = self.span_name[i]
                f.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\t{names[nid]}\t"
                    f"{layers[nl[nid]]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t{self.span_ok[i]}\n"
                )
        return len(self.span_id)

