"""Outside-in tracer for closure_lab, and the per-layer metrics of its spans.

Run as a stand-in for ``python -m closure_lab``::

    python perfbench/tracer.py OUT_DIR CLI_ARGS...

It times ``import closure_lab.cli``, wraps every public function of the
layer modules from the outside, runs ``cli.main(CLI_ARGS)`` and writes
the spans to ``OUT_DIR/spans-<pid>.jsonl``.  A function is wrapped where
it is defined and in every closure_lab module that bound the same object
by import (``theorems`` imports ``is_n_absorbing`` by name, ``cli`` and
``regularity`` import ``classify``, ...), so no call path is missed.

Spans are kept in memory as ``[id, parent, name, start, end, info]``.
The main process writes them when ``cli.main`` returns.  Pool workers
are forked with the wrappers in place, start with an empty buffer, and
write their spans each time a top-level call returns, because they leave
through ``os._exit`` and never run an exit hook.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("specs", "families", "rings", "ideals", "closure", "regularity", "theorems", "cli")

# calls whose arguments are remembered per process, for the repeat shares
KEYED = frozenset({
    "rings.build_ring",
    "ideals.enumerate_ideals",
    "closure.classify",
    "closure.is_n_absorbing",
})
REPEAT = 1  # info bit: arguments already seen in this process
SKIP = 2  # info bit: the sweep raised AbsorbingBudgetError


class Tracer:
    def __init__(self, out_dir: str, skip_error: type):
        self.out_dir = out_dir
        self.skip_error = skip_error
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.spans = []
        self.stack = []
        self.seen = {}
        self.next_id = 0

    def wrap(self, name: str, func):
        keyed = name in KEYED
        is_theorem = name == "theorems.verify_theorem"
        skip_error = self.skip_error if name == "closure.is_n_absorbing" else ()

        @functools.wraps(func)
        def traced(*args, **kwargs):
            info = 0
            if keyed:
                key = (args, tuple(sorted(kwargs.items())))
                seen = self.seen.setdefault(name, set())
                if key in seen:
                    info = REPEAT
                seen.add(key)
            elif is_theorem:
                info = args[0] if args else kwargs["theorem_id"]
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except skip_error:
                info |= SKIP
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append([span_id, parent, name, start, end, info])
                if not self.stack and os.getpid() != self.main_pid:
                    self.write()

        return traced

    def write(self, **meta):
        record = {"pid": os.getpid(), "main": os.getpid() == self.main_pid, **meta}
        record["spans"] = self.spans
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def install(tracer: Tracer):
    """Wrap the public functions of every layer."""
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "closure_lab"]
    for layer in LAYERS:
        module = sys.modules[f"closure_lab.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _is_function(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", obj)
            for other in package:
                for other_attr, value in list(vars(other).items()):
                    if value is obj:
                        setattr(other, other_attr, wrapper)


def main(argv) -> int:
    out_dir, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import closure_lab.cli
    import_s = time.perf_counter() - start
    # every layer module is loaded by now: cli imports all of them
    from closure_lab.closure import AbsorbingBudgetError

    tracer = Tracer(out_dir, AbsorbingBudgetError)
    install(tracer)
    try:
        return closure_lab.cli.main(cli_args)
    finally:
        tracer.write(import_s=import_s)


# --- analysis -----------------------------------------------------------------

SELF_TIME = {
    "cli.main_self_s": ("cli.main",),
    "specs.parse_s": ("specs.parse_ring_spec", "specs.parse_ring_with_ideal"),
    "rings.build_s": ("rings.build_ring",),
    "ideals.enumerate_s": ("ideals.enumerate_ideals",),
    "ideals.from_generators_s": ("ideals.ideal_from_generators",),
    "closure.classify_s": ("closure.classify",),
    "closure.absorbing_s": ("closure.is_n_absorbing",),
    "regularity.vnr_s": ("regularity.is_mn_vnr",),
    "regularity.grid_s": ("regularity.vnr_grid",),
    "regularity.profile_ring_s": ("regularity.vnr_profile_ring",),
    "regularity.regular_ring_s": ("regularity.is_mn_regular_ring",),
}
CALLS = {
    "specs.parse_calls": SELF_TIME["specs.parse_s"],
    "rings.build_calls": ("rings.build_ring",),
    "ideals.enumerate_calls": ("ideals.enumerate_ideals",),
    "closure.classify_calls": ("closure.classify",),
    "closure.absorbing_calls": ("closure.is_n_absorbing",),
    "regularity.vnr_calls": ("regularity.is_mn_vnr",),
}
REPEAT_SHARE = {
    "rings.build_repeat_share": "rings.build_ring",
    "ideals.enumerate_repeat_share": "ideals.enumerate_ideals",
    "closure.classify_repeat_share": "closure.classify",
    "closure.absorbing_repeat_share": "closure.is_n_absorbing",
}
# cold set-up: charged to rings and ideals, not to the theorem that
# happened to need a ring or an ideal list first
COLD = frozenset({"rings.build_ring", "ideals.enumerate_ideals"})


def read_records(out_dir: str) -> list:
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
    return records


def layer_metrics(records: list, theorem_ids) -> dict:
    """Per-layer metrics of the spans of one traced pass.

    Times are self times: a span's duration less the durations of its
    direct child spans.  Theorem times are the checker's wall time less
    the cold ring builds and ideal enumerations beneath it."""
    self_s: dict = {}
    calls: dict = {}
    repeats: dict = {}
    skips = 0
    theorem_s = {tid: 0.0 for tid in theorem_ids}
    theorem_spans = []  # (pid, start, end)
    for record in records:
        child_time: dict = {}
        child_cold: dict = {}
        # a span is appended when it ends, so its children come first
        for span_id, parent, name, start, end, info in record["spans"]:
            duration = end - start
            own = duration - child_time.pop(span_id, 0.0)
            nested_cold = child_cold.pop(span_id, 0.0)
            cold = duration if name in COLD else nested_cold
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + duration
                child_cold[parent] = child_cold.get(parent, 0.0) + cold
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name in KEYED and info & REPEAT:
                repeats[name] = repeats.get(name, 0) + 1
            if name == "closure.is_n_absorbing" and info & SKIP:
                skips += 1
            if name == "theorems.verify_theorem":
                theorem_s[info] = theorem_s.get(info, 0.0) + duration - cold
                theorem_spans.append((record["pid"], start, end))

    metrics = {
        "families.load_s": sum(t for n, t in self_s.items() if n.startswith("families.")),
    }
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(self_s.get(n, 0.0) for n in names)
    for metric, names in CALLS.items():
        metrics[metric] = sum(calls.get(n, 0) for n in names)
    metrics["cli.import_s"] = statistics.median(
        [r["import_s"] for r in records if r["main"]] or [0.0]
    )
    for metric, name in REPEAT_SHARE.items():
        metrics[metric] = repeats.get(name, 0) / calls[name] if calls.get(name) else 0.0
    metrics["closure.absorbing_budget_skips"] = skips
    for tid, seconds in theorem_s.items():
        metrics[f"theorems.{tid}_s"] = seconds
    metrics.update(_schedule(theorem_spans))
    return metrics


def _schedule(theorem_spans) -> dict:
    """Critical path: the summed theorem time of the busiest process.
    Busy share: summed theorem time over processes x theorem wall time."""
    if not theorem_spans:
        return {"theorems.critical_path_s": 0.0, "theorems.worker_busy_share": 0.0}
    per_pid: dict = {}
    for pid, start, end in theorem_spans:
        per_pid[pid] = per_pid.get(pid, 0.0) + end - start
    wall = max(e for _, _, e in theorem_spans) - min(s for _, s, _ in theorem_spans)
    return {
        "theorems.critical_path_s": max(per_pid.values()),
        "theorems.worker_busy_share": sum(per_pid.values()) / (len(per_pid) * wall),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
