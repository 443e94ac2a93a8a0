"""The traced run: spans around library calls, self time and calls per layer.

The layers are the modules of `ordbench`. Self time and call counts come
from a deterministic profiler (`cProfile`) attached by the benchmark, so
the program itself carries no counter. Frames are attributed to the module
that defines their code: dataclass-generated methods (whose file is
`<string>`) belong to their class's module, C functions to `builtins`, and
everything else (the standard library and the benchmark's own checks) to
`other`.
"""

from __future__ import annotations

import cProfile
import json
import sys
import time

LAYERS = (
    "ordinal",
    "oset",
    "universe",
    "magidor",
    "projection",
    "generic",
    "ramsey",
    "prikry",
    "io",
    "cli",
)

# Exact call counts of named functions ("module:qualified.name"); each
# repeats exactly from run to run for the same seed and pool.
COUNTS = {
    "ordinal.compare.calls": ("ordinal:compare",),
    "ordinal.add.calls": ("ordinal:add",),
    "ordinal.construct.calls": ("ordinal:Ordinal.__post_init__",),
    "oset.normalize.calls": ("oset:_normalize",),
    "oset.restrict.calls": ("oset:OrdinalSet.restrict_below", "oset:OrdinalSet.restrict_above"),
    "oset.eq.calls": ("oset:OrdinalSet.__eq__",),
    "projection.in_lim.calls": ("projection:IndexSet.in_lim",),
    "universe.star_closure.passes": ("universe:ToyUniverse._failing_points",),
    "ramsey.subproducts.tried": ("ramsey:_increasing_tuples",),
    "ramsey.respects.calls": ("ramsey:_respects",),
}


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span is (request, name, parent, start_ns, end_ns); the request is the
    instance id, and every call span's parent is its instance's span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None

    def wrap(self, name: str, fn):
        spans, clock = self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((self.request, name, "instance", start, clock()))

        return traced

    def run(self, instances, verdict):
        """Profile `verdict(instance)` over the instances; returns
        (wall seconds, profiler entries)."""
        profiler = cProfile.Profile()
        clock = time.perf_counter
        start = clock()
        for inst in instances:
            self.request = inst.id
            t0 = time.perf_counter_ns()
            profiler.enable()
            verdict(inst)
            profiler.disable()
            self.spans.append((inst.id, "instance", None, t0, time.perf_counter_ns()))
        return clock() - start, profiler.getstats()

    def write(self, path: str):
        with open(path, "w") as fh:
            for request, name, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"request": request, "span": name, "parent": parent,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


def _lookup(path: str):
    """The code object named "module:qualified.name", or None if absent."""
    module, _, qualname = path.partition(":")
    obj = sys.modules.get(f"ordbench.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return getattr(obj, "__code__", None)


def _owners() -> dict:
    """Code object -> layer for every function defined on a layer's classes,
    including the dataclass-generated ones."""
    owners = {}
    for layer in LAYERS:
        module = sys.modules.get(f"ordbench.{layer}")
        if module is None:
            continue
        for obj in vars(module).values():
            if not (isinstance(obj, type) and obj.__module__ == module.__name__):
                continue
            for attr in vars(obj).values():
                fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                code = getattr(fn, "__code__", None)
                if code is not None:
                    owners[code] = layer
    return owners


def _layer(code, owners) -> str:
    if isinstance(code, str):
        return "builtins"
    if code in owners:
        return owners[code]
    parts = code.co_filename.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[-2] == "ordbench" and parts[-1][:-3] in LAYERS:
        return parts[-1][:-3]
    return "other"


def per_layer(entries, certificates: int) -> dict:
    """Per-layer self time and calls, the exact counts and the Ramsey ratio."""
    owners = _owners()
    self_s = {name: 0.0 for name in LAYERS + ("builtins", "other")}
    calls = {name: 0 for name in LAYERS}
    by_code = {}
    for entry in entries:
        layer = _layer(entry.code, owners)
        self_s[layer] += entry.inlinetime
        if layer in calls:
            calls[layer] += entry.callcount
        by_code[entry.code] = entry
    metrics = {f"{name}.self_s": value for name, value in self_s.items()}
    metrics.update({f"{name}.calls": value for name, value in calls.items()})
    for metric, paths in COUNTS.items():
        codes = [_lookup(path) for path in paths]
        metrics[metric] = sum(by_code[c].callcount for c in codes if c in by_code)
    # in_D calls made from densify: one per repair pass.
    densify, in_d = _lookup("projection:densify"), _lookup("projection:in_D")
    callees = getattr(by_code.get(densify), "calls", None) or ()
    metrics["projection.densify.passes"] = sum(s.callcount for s in callees if s.code is in_d)
    tried = metrics["ramsey.subproducts.tried"]
    metrics["ramsey.certificate_ratio"] = certificates / tried if tried else 0.0
    return metrics
