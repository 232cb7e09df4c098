"""Per-layer spans recorded from the benchmark's side of the program.

The recorder swaps a timing wrapper in for each public memtrace function
at the module attribute through which its caller looks it up, and puts
the original back afterwards.  `cli` reaches the layers as
`trace.parse_trace`, `recon.collect_bases` and so on, and the layers
reach each other through their own module globals (`collect_bases` calls
`recover_calls`, `similarity` calls `lcmap`), so patching the attribute
on the defining module catches both.  `split_by_thread` is a `trace`
function that `recon` imported by name, so it is patched in `recon`.

Calls the wrappers do not see, whose time counts as their caller's self
time: `signature.near` (once per DP cell; a wrapper there would cost more
than the cell), `signature._lcmap_both` (diff_modified's second DP
kernel), `recon.recover_call` (once per call, inside recover_calls),
`recon.infer_field_type` (once per offset, inside reconstruct_layout),
every private helper, the `Guest` methods and `cli.build_parser`.

A span is (name, start_ns, end_ns, parent span, job id, raised, counts),
timed on the clock the worker times jobs with (its thread CPU time).
Counts come from the wrapped call's arguments and result, never from
inside the program.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("trace", "guest", "recon", "signature", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, attribute, span name, counter)
WRAPPED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli.main", None),
    ("trace", "parse_trace", "trace.parse_trace",
     lambda a, k, r: {"events": len(r.events)}),
    ("trace", "serialize_trace", "trace.serialize_trace",
     lambda a, k, r: {"events": len(_arg(a, k, 0, "log").events)}),
    ("recon", "split_by_thread", "trace.split_by_thread", None),
    ("guest", "parse_model", "guest.parse_model",
     lambda a, k, r: {"ops": len(r.ops)}),
    ("guest", "build_guest", "guest.build_guest", None),
    ("guest", "run", "guest.run", lambda a, k, r: {"events": len(r.events)}),
    ("recon", "collect_bases", "recon.collect_bases",
     lambda a, k, r: {"events": len(_arg(a, k, 0, "log").events),
                      "bases": len(r)}),
    ("recon", "recover_calls", "recon.recover_calls",
     lambda a, k, r: {"calls": len(r)}),
    ("recon", "find_allocations", "recon.find_allocations", None),
    ("recon", "find_stack_buffers", "recon.find_stack_buffers", None),
    ("recon", "reconstruct_layout", "recon.reconstruct_layout",
     lambda a, k, r: {"fields": len(r.fields)}),
    ("recon", "render_layout_c", "recon.render_layout_c", None),
    ("recon", "flag_call_sequences", "recon.flag_call_sequences",
     lambda a, k, r: {"hits": len(r)}),
    ("signature", "extract_pattern", "signature.extract_pattern",
     lambda a, k, r: {"events": len(_arg(a, k, 0, "log").events),
                      "bases": len(a[1] if len(a) > 1 else k.get("bases", ()))}),
    ("signature", "lcmap", "signature.lcmap",
     lambda a, k, r: {"cells": len(_arg(a, k, 0, "p"))
                      * len(_arg(a, k, 1, "p_prime"))}),
    ("signature", "similarity", "signature.similarity", None),
    ("signature", "diff_modified", "signature.diff_modified",
     lambda a, k, r: {"ranges": len(r.matched) + len(r.unmatched)}),
    ("signature", "read_signature", "signature.read_signature", None),
    ("signature", "write_signature", "signature.write_signature", None),
)

# Per-layer metrics: name -> unit.  Every `X.s` is inclusive time in X
# per pass; `L.self_s` is the time spent in layer L's own code, i.e. its
# spans minus the child spans they enclose.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.share"] = "ratio"
    PER_LAYER[f"{_layer}.errors"] = "count"
PER_LAYER.update({
    "trace.parse_trace.s": "s",
    "trace.parse_trace.calls": "count",
    "trace.parse_trace.events": "count",
    "trace.serialize_trace.s": "s",
    "trace.serialize_trace.events": "count",
    "guest.parse_model.s": "s",
    "guest.parse_model.ops": "count",
    "guest.build_guest.s": "s",
    "guest.run.s": "s",
    "guest.run.events": "count",
    "recon.collect_bases.s": "s",
    "recon.collect_bases.events": "count",
    "recon.collect_bases.bases": "count",
    "recon.recover_calls.s": "s",
    "recon.recover_calls.calls": "count",
    "recon.find_allocations.s": "s",
    "recon.find_stack_buffers.s": "s",
    "recon.reconstruct_layout.s": "s",
    "recon.reconstruct_layout.fields": "count",
    "recon.flag_call_sequences.s": "s",
    "recon.flag_call_sequences.hits": "count",
    "signature.extract_pattern.s": "s",
    "signature.extract_pattern.events": "count",
    "signature.extract_pattern.bases": "count",
    "signature.lcmap.s": "s",
    "signature.lcmap.calls": "count",
    "signature.lcmap.cells": "count",
    "signature.similarity.s": "s",
    "signature.diff_modified.s": "s",
    "signature.diff_modified.self_s": "s",
    "signature.diff_modified.ranges": "count",
    "signature.read_signature.s": "s",
    "signature.write_signature.s": "s",
    "cli.main.s": "s",
    "cli.main.calls": "count",
    "tracing_overhead": "ratio",
})


class Recorder:
    """Installs the wrappers for one traced job and keeps its spans."""

    def __init__(self, modules: dict, clock: Callable = time.thread_time_ns):
        self.modules = modules
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._job: Optional[str] = None

    def install(self, job_id: str) -> None:
        self._job = job_id
        for module, attr, name, counter in WRAPPED:
            target = self.modules[module]
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)
        self._job = None

    def _wrap(self, name: str, original: Callable, counter: Optional[Callable]):
        spans, stack, job, clock = self.spans, self._open, self._job, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, job, False, None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return wrapper


def aggregate(spans: list, traced_cpu_s: float, overhead: float,
              passes: int) -> dict:
    """Per-layer metrics per pass from the spans of every traced run.

    `traced_cpu_s` is the summed CPU time of those runs, the base of each
    layer's share; `overhead` is the tracing overhead measured outside.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _job, _err, _counts in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    for index, (name, start, end, _parent, _job, raised, counts) in enumerate(spans):
        layer = name.split(".", 1)[0]
        duration = (end - start) / 1e9
        own = duration - child[index] / 1e9
        total[f"{name}.s"] += duration
        total[f"{name}.calls"] += 1
        total[f"{layer}.self_s"] += own
        total[f"{layer}.errors"] += raised
        if name == "signature.diff_modified":
            total[f"{name}.self_s"] += own
        for key, value in (counts or {}).items():
            total[f"{name}.{key}"] += value
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "tracing_overhead":
            value = overhead
        elif name.endswith(".share"):
            layer = name.split(".", 1)[0]
            value = total[f"{layer}.self_s"] / traced_cpu_s if traced_cpu_s else 0.0
        else:
            value = total[name] / passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics
