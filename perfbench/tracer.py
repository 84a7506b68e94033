"""Span tracing of the critvar layers, installed from outside the package.

`Tracer.install()` rebinds every public function of every loaded
`critvar.*` module, and of the `critvar` package namespace, to a wrapper
that records a span; it also wraps the public methods (and `__call__`)
of the classes those modules define.  Modules import functions by name
(`minimizer` holds its own `weighted_gradient_energy`), so a function is
rebound in every namespace that holds it, always to the same wrapper.
Modules are found through `sys.modules`: the attribute `critvar.energy`
is the re-exported function `energy`, not the module.

A span is [label index, parent span index, start, end] and lives in
memory until `take()` hands the spans of one run to the caller.  A
span's self time is its duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).
The layer of a span is the module that defines the function; `cli` is
folded into `harness`, whose thin argparse shell it is.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

PACKAGE = "critvar"
LAYERS = ("grid", "weights", "energy", "constants", "spectral", "minimizer",
          "asymptotics", "nonexistence", "harness")
_LAYER_OF_MODULE = {"cli": "harness"}


def layer_of(label: str) -> str:
    module = label.split(".", 1)[0]
    return _LAYER_OF_MODULE.get(module, module)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, types.FunctionType] = {}
        self._patches: list[tuple] = []
        # label -> callback(args, kwargs, result), for counts that only
        # the arguments or results of a call carry
        self.observers: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [sys.modules[name] for name in sorted(sys.modules)
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        label = fn.__module__[len(PACKAGE) + 1:] + "." + fn.__qualname__
        label_index = len(self.labels)
        self.labels.append(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observers = self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [label_index, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            observer = observers.get(label)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        self._wrappers[id(fn)] = traced
        return traced

    @staticmethod
    def _ours(obj) -> bool:
        return getattr(obj, "__module__", "").startswith(PACKAGE + ".")

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        classes = []
        for module in self._modules():
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and self._ours(obj) \
                        and not obj.__name__.startswith("_"):
                    self._patch(module, name, self._wrap(obj))
                elif isinstance(obj, type) and obj.__module__ == module.__name__ \
                        and self._ours(obj):
                    classes.append(obj)
        for cls in classes:
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name != "__call__":
                    continue
                if isinstance(attr, types.FunctionType):
                    self._patch(cls, name, self._wrap(attr))
                elif isinstance(attr, (classmethod, staticmethod)):
                    self._patch(cls, name, type(attr)(self._wrap(attr.__func__)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def take(self) -> list:
        """The spans recorded since the last call, emptying the buffer."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def aggregate(labels: list, spans: list) -> dict:
    """Per-label calls, inclusive and self seconds, and direct-child calls.

    Returns {"calls": {label: n}, "total_s": {label: s}, "self_s": {label: s},
    "child_calls": {(parent label, child label): n}}.
    """
    if not spans:
        return {"calls": {}, "total_s": {}, "self_s": {}, "child_calls": {}}
    arr = np.asarray(spans, dtype=float)
    label = arr[:, 0].astype(np.int64)
    parent = arr[:, 1].astype(np.int64)
    duration = arr[:, 3] - arr[:, 2]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(spans))
    self_time = duration - child_time
    n_labels = len(labels)
    calls = np.bincount(label, minlength=n_labels)
    total = np.bincount(label, weights=duration, minlength=n_labels)
    selft = np.bincount(label, weights=self_time, minlength=n_labels)
    pairs = label[parent[has_parent]] * n_labels + label[has_parent]
    pair_calls = np.bincount(pairs, minlength=n_labels * n_labels)
    used = np.nonzero(calls)[0]
    return {
        "calls": {labels[i]: int(calls[i]) for i in used},
        "total_s": {labels[i]: float(total[i]) for i in used},
        "self_s": {labels[i]: float(selft[i]) for i in used},
        "child_calls": {(labels[k // n_labels], labels[k % n_labels]): int(pair_calls[k])
                        for k in np.nonzero(pair_calls)[0]},
    }


def write_spans(path, labels: list, spans: list) -> None:
    """One CSV line per span: index, parent index, label, start, end (s)."""
    with open(path, "w") as fh:
        fh.write("index,parent,label,start_s,end_s\n")
        for i, (label, parent, start, end) in enumerate(spans):
            fh.write(f"{i},{parent},{labels[label]},{start!r},{end!r}\n")
