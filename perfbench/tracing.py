"""Span tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces every public function of the seven layer
modules -- in every module namespace that binds it, so a call through
``master_equation.partial_trace`` is recorded like one through
``linalg.partial_trace`` -- plus a few ``Superoperator`` methods, with a
wrapper that records a span (name, parent span, start, end).  Spans stay in
compact arrays in memory and are written out once, at the end of a run.
``uninstall()`` puts the original objects back.

Self time of a span is its duration minus the durations of its child spans.
A few boundaries also feed counters (``PROBES``): computed flops of a
collision step, distinct collision channels per job, and the size of the
oracle's state vector.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("cli", "models", "mps", "embedding", "master_equation", "linalg", "oracle")
SUPEROPERATOR_METHODS = (
    # (attribute, span label, is classmethod)
    ("from_map", "from_map", True),
    ("from_kraus", "from_kraus", True),
    ("__matmul__", "matmul", False),
    ("apply", "apply", False),
)


def _step_flops(counters, args, kwargs, result):
    """Computed flops of one collision: Kraus build einsum plus A R A^dag."""
    model, state = args[0], args[1]
    b = model.env.site(state.step)
    dl, dr = b.shape[1], b.shape[2]
    d_s = model.d_system
    m_eff = model.effective_mode_dim(state.step)
    n_in, n_out = d_s * dl, d_s * dr
    build = 8 * m_eff * m_eff * d_s * d_s * dl * dr
    sandwich = 8 * m_eff * (n_out * n_in * n_in + n_out * n_in * n_out)
    counters["embedding.step.flops"] += build + sandwich


def _kraus_channel(counters, args, kwargs, result):
    """Remember which (site tensor, unitary) channel a Kraus build served."""
    model, k = args[0], args[1]
    key = hash((model.env.site(k).tobytes(), model.base_unitary(k).tobytes(),
                model.env.ancilla_dim))
    counters.channels.add(key)


def _oracle_entries(counters, args, kwargs, result):
    run = args[0]
    env = run.model.env
    size = run.model.d_system * int(np.linalg.matrix_rank(env.chi0, hermitian=True))
    for k in range(run.n_sites):
        size *= env.phys_dim(k)
    counters["oracle.state_entries"] += size


PROBES = {
    "embedding.step": _step_flops,
    "embedding.kraus_operators": _kraus_channel,
    "oracle.brute_force_trajectory": _oracle_entries,
}


class Counters(defaultdict):
    """Float counters plus the distinct-channel set of the current job."""

    def __init__(self):
        super().__init__(float)
        self.channels = set()

    def end_job(self) -> None:
        self["embedding.kraus_operators.distinct"] += len(self.channels)
        self.channels = set()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = Counters()
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, probe=None):
        idx = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if probe is not None:
                probe(tracer.counters, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        package = importlib.import_module("mpscollision")
        modules = {short: importlib.import_module(f"mpscollision.{short}") for short in LAYERS}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                label = f"{short}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(label, obj, PROBES.get(label)))
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        superop = modules["master_equation"].Superoperator
        for attr, label, is_classmethod in SUPEROPERATOR_METHODS:
            raw = superop.__dict__[attr]
            fn = raw.__func__ if is_classmethod else raw
            traced = self.wrap(f"master_equation.Superoperator.{label}", fn)
            self._restore.append((superop, attr, raw))
            setattr(superop, attr, classmethod(traced) if is_classmethod else traced)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------
    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "counters": {k: float(v) for k, v in self.counters.items()},
        }


def save_spans(path: Path, spans: dict) -> None:
    np.savez_compressed(
        path, name=spans["name"], parent=spans["parent"], start=spans["start"],
        end=spans["end"], names=np.array(json.dumps(spans["names"])),
        counters=np.array(json.dumps(spans["counters"])),
    )


def load_spans(path: Path) -> dict:
    with np.load(path) as data:
        return {
            "names": json.loads(str(data["names"])),
            "name": data["name"], "parent": data["parent"],
            "start": data["start"], "end": data["end"],
            "counters": json.loads(str(data["counters"])),
        }


def merge_spans(parts: list[dict]) -> dict:
    """Concatenate span sets, renumbering names and parent indices."""
    names, index = [], {}
    cols = {"name": [], "parent": [], "start": [], "end": []}
    counters = defaultdict(float)
    offset = 0
    for part in parts:
        remap = np.array([index.setdefault(n, len(index)) for n in part["names"]] or [0],
                         dtype=np.int32)
        cols["name"].append(remap[part["name"]] if len(part["name"]) else part["name"])
        parent = part["parent"].astype(np.int64)
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        cols["start"].append(part["start"])
        cols["end"].append(part["end"])
        offset += len(part["name"])
        for k, v in part["counters"].items():
            counters[k] += v
    names = [None] * len(index)
    for n, i in index.items():
        names[i] = n
    merged = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
    merged["names"] = names
    merged["counters"] = dict(counters)
    return merged


def layer_totals(spans: dict) -> dict:
    """Per span name: calls, self seconds and inclusive seconds."""
    dur = spans["end"] - spans["start"]
    parent = np.asarray(spans["parent"], dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    names = spans["names"]
    idx = np.asarray(spans["name"], dtype=np.int64)
    calls = np.bincount(idx, minlength=len(names))
    self_s = np.bincount(idx, weights=self_time, minlength=len(names))
    incl_s = np.bincount(idx, weights=dur, minlength=len(names))
    return {n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, n in enumerate(names)}
