"""Span recorder and layer wrappers for a traced benchmark pass.

The wrappers live here, outside the package.  For one traced pass every
module-level name under ``qsteer`` that is bound to a wrapped function is
rebound to a wrapper, and restored afterwards, so untraced passes run the
program untouched.  A target that no longer exists is reported as missing;
a layer whose targets are all missing is reported as absent.

Spans are kept in memory as parallel lists (layer, parent, start, end,
busy) and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (layer, module, attribute, count).  ``count`` names what the layer counts
# besides its calls:
#   items  states drawn: the length of the first returned array
#   rows   rows of the returned table
#   lines  items yielded; only time spent inside the generator is busy time
#   bytes  size of the file named by the first argument, after the call
#   None   calls only
TARGETS = (
    ("cli", "qsteer.cli", "main", None),
    ("harness", "qsteer.harness", "scatter_table", None),
    ("harness", "qsteer.harness", "run_falsification", None),
    ("harness", "qsteer.harness", "run_family_sweep", None),
    ("harness", "qsteer.harness", "run_region_scan", None),
    ("harness.format", "qsteer.harness", "scatter_csv_lines", "lines"),
    ("harness.format", "qsteer.harness", "sweep_csv_lines", "lines"),
    ("harness.format", "qsteer.harness", "region_csv_lines", "lines"),
    ("harness.write", "qsteer.harness", "write_scatter_csv", "bytes"),
    ("harness.write", "qsteer.harness", "write_sweep_csv", "bytes"),
    ("harness.write", "qsteer.harness", "write_region_csv", "bytes"),
    ("harness.write", "qsteer.harness", "write_boundary_csv", "bytes"),
    ("states.draw", "qsteer.states", "draw_matrices", "items"),
    ("states.build", "qsteer.states", "apply_channel", None),
    ("states.build", "qsteer.states", "werner_like", None),
    ("states.build", "qsteer.states", "density_from_pure", None),
    ("states.build", "qsteer.states", "random_unitary", None),
    ("states.validate", "qsteer.states", "DensityMatrix.__post_init__", None),
    ("batch.measure", "qsteer.batch", "measure_rows", "rows"),
    ("measures.closed_forms", "qsteer.measures", "bad_closed_forms", None),
    ("measures.closed_forms", "qsteer.measures", "bpd_closed_forms", None),
    ("measures.closed_forms", "qsteer.measures", "wu_closed_forms", None),
    ("measures.margin", "qsteer.measures", "wu_steering_margin", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


# (metric, unit, value from the per-layer summary of one pass).  Times are
# seconds; "calls", "items", "rows", "lines" and "bytes" are exact counts.
PER_LAYER = (
    ("states.draw.busy_s", "s", lambda a: a["states.draw"]["busy"]),
    ("states.draw.items", "count", lambda a: a["states.draw"]["units"]),
    ("states.draw.us_per_item", "us",
     lambda a: _ratio(a["states.draw"]["busy"], a["states.draw"]["units"], 1e6)),
    ("states.build.busy_s", "s", lambda a: a["states.build"]["busy"]),
    ("states.build.calls", "count", lambda a: a["states.build"]["calls"]),
    ("states.validate.busy_s", "s", lambda a: a["states.validate"]["busy"]),
    ("states.validate.calls", "count", lambda a: a["states.validate"]["calls"]),
    ("states.validate.per_state", "ratio",
     lambda a: _ratio(a["states.validate"]["calls"], a["batch.measure"]["units"])),
    ("batch.measure.busy_s", "s", lambda a: a["batch.measure"]["busy"]),
    ("batch.measure.rows", "count", lambda a: a["batch.measure"]["units"]),
    ("batch.measure.calls", "count", lambda a: a["batch.measure"]["calls"]),
    ("batch.measure.us_per_row", "us",
     lambda a: _ratio(a["batch.measure"]["busy"], a["batch.measure"]["units"], 1e6)),
    ("measures.closed_forms.busy_s", "s", lambda a: a["measures.closed_forms"]["busy"]),
    ("measures.closed_forms.calls", "count", lambda a: a["measures.closed_forms"]["calls"]),
    ("measures.margin.busy_s", "s", lambda a: a["measures.margin"]["busy"]),
    ("measures.margin.calls", "count", lambda a: a["measures.margin"]["calls"]),
    ("harness.format.busy_s", "s", lambda a: a["harness.format"]["busy"]),
    ("harness.format.lines", "count", lambda a: a["harness.format"]["units"]),
    ("harness.write.busy_s", "s", lambda a: a["harness.write"]["self"]),
    ("harness.write.bytes", "bytes", lambda a: a["harness.write"]["units"]),
    ("harness.self_s", "s", lambda a: a["harness"]["self"]),
    ("cli.self_s", "s", lambda a: a["cli"]["self"]),
)
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


class Recorder:
    """Spans of one traced pass, plus the wrappers that record them."""

    def __init__(self):
        self.layer: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.busy: list[float] = []
        self._child: list[float] = []  # busy time of direct children
        self._outer: list[bool] = []  # no enclosing span of the same layer
        self._stack: list[int] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.units = dict.fromkeys(LAYERS, 0)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._outer.append(self._depth[layer] == 0)
        self._depth[layer] += 1
        self.busy.append(0.0)
        self.end.append(0.0)
        self._child.append(0.0)
        self.calls[layer] += 1
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, busy: float | None = None) -> None:
        t = time.perf_counter()
        self._stack.pop()
        self.end[i] = t
        busy = t - self.start[i] if busy is None else busy
        self.busy[i] = busy
        if self.parent[i] >= 0:
            self._child[self.parent[i]] += busy
        self._depth[self.layer[i]] -= 1

    def _call_wrapper(self, layer: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count == "items":
                self.units[layer] += len(result[0])
            elif count == "rows":
                self.units[layer] += len(result)
            elif count == "bytes":
                self.units[layer] += os.path.getsize(args[0] if args else kwargs["path"])
            return result

        return wrapper

    def _gen_wrapper(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(layer)
            t0 = self.start[i]
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._stack.pop()
            return self._drive(i, layer, it, time.perf_counter() - t0)

        return wrapper

    def _drive(self, i: int, layer: str, it, busy: float):
        """Yield from ``it``, counting only the time spent inside it."""
        stack = self._stack
        clock = time.perf_counter
        n = 0
        try:
            while True:
                stack.append(i)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    busy += clock() - t0
                    stack.pop()
                n += 1
                yield item
        finally:
            stack.append(i)
            self._close(i, busy)
            self.units[layer] += n

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        for layer, modname, attr, count in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, name, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if count == "lines":
                wrapper = self._gen_wrapper(layer, orig)
            else:
                wrapper = self._call_wrapper(layer, orig, count)
            if owner is not mod:
                self._patch(owner, name, wrapper)
                continue
            # rebind the name wherever a qsteer module imported it
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "qsteer" or mname.startswith("qsteer.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def absent_layers(self) -> list[str]:
        present = {
            layer for layer, modname, attr, _ in TARGETS
            if f"{modname}.{attr}" not in self.missing
        }
        return [layer for layer in LAYERS if layer not in present]

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: busy (outermost spans), self (spans minus children), counts."""
        out = {
            layer: {"busy": 0.0, "self": 0.0, "calls": self.calls[layer],
                    "units": self.units[layer]}
            for layer in LAYERS
        }
        for i, layer in enumerate(self.layer):
            agg = out[layer]
            agg["self"] += self.busy[i] - self._child[i]
            if self._outer[i]:
                agg["busy"] += self.busy[i]
        return out

    def metrics(self) -> dict:
        agg = self.summary()
        return {name: value(agg) for name, _, value in PER_LAYER}

    def accounted_s(self) -> float:
        """Sum of all self times: equals the time inside the root spans."""
        return sum(a["self"] for a in self.summary().values())

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["layer", "parent", "start", "end", "busy"],
                    "layer": self.layer,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "busy": self.busy,
                    "missing": self.missing,
                },
                fh,
            )
