"""Per-layer spans recorded from outside thermosim.

``Tracer.install`` wraps every public function of the package at every
module binding (``protocol.gibbs_weights`` is a second binding of
``thermal.gibbs_weights`` and gets its own wrapper) and every dataclass
``__post_init__``, which is where the constructors validate.  A span is
named after the defining module, so time is charged to the layer that owns
the code, whoever calls it.  Spans stay in memory until ``summary``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict
from math import prod
from pathlib import Path


def _sample_bytes(cfg, n, seed):
    return "protocol.sample_outcomes.bytes_computed", 16 * n  # one float64 draw and one int64 bin per sample


def _dense_bytes(state, *args, **kwargs):
    return "tempop.dense_bytes_computed", 16 * prod(state.dims)  # one dense complex d x d array


# computed bytes, charged when the named function or method is called
_BYTE_COUNTERS = {
    "protocol.sample_outcomes": _sample_bytes,
    "tempop.apply_inverse_temp_squared": _dense_bytes,
    "tempop.FactoredBipartiteState.amplitude_vector": _dense_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, span: bool = True):
        """``fn`` with its computed bytes counted and, if ``span``, a span recorded."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _BYTE_COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, nbytes = count(*args, **kwargs)
                counters[key] += nbytes
            if not span:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "thermosim" or n.startswith("thermosim.")]
        classes = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", "") or ""
                if attr.startswith("_") or not home.startswith("thermosim."):
                    continue
                layer = home.rsplit(".", 1)[1]
                if isinstance(obj, types.FunctionType):
                    self._patch(module, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
                elif isinstance(obj, type) and obj not in classes:
                    classes.add(obj)
                    if "__post_init__" in vars(obj):
                        self._patch(obj, "__post_init__", self._wrap(f"{layer}.{obj.__name__}", obj.__post_init__))
        # a method, so its dense array is counted but it gets no span
        cls = sys.modules["thermosim.tempop"].FactoredBipartiteState
        name = "tempop.FactoredBipartiteState.amplitude_vector"
        self._patch(cls, "amplitude_vector", self._wrap(name, cls.amplitude_vector, span=False))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """calls, self_s and total_s per span name and per layer, plus counters.

        Self time is a span's duration minus the durations of its direct
        children.  A layer's total_s sums only its outermost spans, those
        with no ancestor in the same layer, so nested calls are not counted
        twice.
        """
        bits: dict[str, int] = {}

        def bit(layer: str) -> int:
            return bits.setdefault(layer, 1 << len(bits))

        out: dict[str, float] = defaultdict(float)
        self_time = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        ancestors = [0] * len(self.spans)  # bitmask of layers above each span
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if parent >= 0:
                ancestors[i] = ancestors[parent] | bit(self.spans[parent][0].split(".", 1)[0])
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_time[i]
            if not ancestors[i] & bit(layer):
                out[f"{layer}.total_s"] += end - start
        out.update(self.counters)
        return out

    def write(self, path: Path) -> None:
        """Spans as a names table plus [name index, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))
