"""Span tracer for the traced benchmark run.

``instrument`` wraps, from outside the package, every public function and
public method of the semsec layers, plus two dependency boundaries: calls
from ``semsec.gaussian`` into ``numpy.linalg`` and calls from
``semsec.rdf`` into ``scipy.optimize``. Each wrapped call records one span
(name, start, end, index of the enclosing span) in flat arrays, so a run
with a million calls stays small. ``Tracer.summary`` turns the spans into
per-name call counts, inclusive and self times, and layer totals.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time
import types

PACKAGE = "semsec"
LAYERS = ("info", "rdf", "gaussian", "binary", "regions", "config", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``observe(result)`` runs after the span closes, for result-derived
        counters. A generator function gets one span per resumption.
        """
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(start)
                    name_id.append(nid)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(idx)
                    start.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        stack.pop()
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result
        return traced

    def summary(self, per_call: tuple[str, ...] = ()) -> dict:
        """Per-name and per-layer totals of the recorded spans.

        ``s`` is the inclusive time of the outermost spans of a name (a call
        nested in a call of the same name is not counted twice); ``self_s``
        is span time minus the time covered by child spans. A layer's
        ``entry_s`` is the inclusive time of its spans whose parent lies in
        another layer, keyed by that parent layer (``-`` for top level).
        Names in ``per_call`` also get the list of their span durations.
        """
        import numpy as np

        n = len(self.start)
        names = self.names
        if n == 0:
            return {"names": {}, "layers": {}, "durations": {name: [] for name in per_call}}
        nid = np.frombuffer(self.name_id, dtype=np.intc).astype(np.intp)
        par = np.frombuffer(self.parent, dtype=np.intc).astype(np.intp)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = par >= 0
        child = np.bincount(par[nested], weights=dur[nested], minlength=n)
        self_t = dur - child
        parent_nid = np.where(nested, nid[np.maximum(par, 0)], -1)
        outer = parent_nid != nid
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(nid, weights=self_t, minlength=k)
        per_name = {
            names[i]: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i in range(k) if calls[i]
        }

        layer_of = [name.split(".", 1)[0] for name in names]
        layer_ids = {layer: i for i, layer in enumerate(sorted(set(layer_of)))}
        span_layer = np.array([layer_ids[l] for l in layer_of], dtype=np.intp)[nid]
        parent_layer = np.where(nested, span_layer[np.maximum(par, 0)], -1)
        layers = {}
        for layer, li in layer_ids.items():
            mine = span_layer == li
            entry = {}
            crossing = mine & (parent_layer != li)
            for pl in np.unique(parent_layer[crossing]):
                key = "-" if pl < 0 else next(l for l, i in layer_ids.items() if i == pl)
                entry[key] = float(dur[crossing & (parent_layer == pl)].sum())
            layers[layer] = {"self_s": float(self_t[mine].sum()), "entry_s": entry}
        durations = {
            name: dur[nid == self._ids[name]].tolist() if name in self._ids else []
            for name in per_call
        }
        return {"names": per_name, "layers": layers, "durations": durations}

    def dump(self, path) -> None:
        """Write the raw spans as an ``.npz`` file (names, name_id, parent, start, end)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _wrap_class(tracer: Tracer, cls, prefix: str, observers: dict) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{cls.__name__}.{attr}"
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(member.__func__, name, observers.get(name))))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(member.__func__, name, observers.get(name))))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(member, name, observers.get(name)))


def instrument(tracer: Tracer, observers: dict | None = None) -> None:
    """Route every public call into the semsec layers through ``tracer``.

    Module-level functions are replaced in every ``semsec`` module that
    holds a reference to them (``from .info import star`` copies the
    reference), so cross-layer calls are traced too. Properties are left
    alone. ``observers`` maps a span name to a callback on its results.
    """
    observers = observers or {}
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                replaced[obj] = tracer.wrap(obj, name, observers.get(name))
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, layer, observers)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])

    # gaussian -> numpy.linalg: give the module its own numpy namespace whose
    # linalg functions are traced, leaving numpy itself untouched.
    import numpy

    gaussian = sys.modules[f"{PACKAGE}.gaussian"]
    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(vars(numpy.linalg))
    for attr in numpy.linalg.__all__:
        obj = getattr(numpy.linalg, attr)
        if callable(obj) and not isinstance(obj, type):
            setattr(linalg, attr, tracer.wrap(obj, f"numpy.{attr}"))
    np_view = types.ModuleType("numpy")
    np_view.__dict__.update(vars(numpy))
    np_view.linalg = linalg
    gaussian.np = np_view

    # rdf -> scipy.optimize: rdf imports the solvers by name.
    rdf = sys.modules[f"{PACKAGE}.rdf"]
    for attr, obj in list(vars(rdf).items()):
        if callable(obj) and str(getattr(obj, "__module__", "")).startswith("scipy.optimize"):
            setattr(rdf, attr, tracer.wrap(obj, f"scipy.{attr}"))
