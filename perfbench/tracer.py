"""Span tracer that instruments fdvk from outside.

install() replaces every public function of every fdvk module at every
module-level binding, because `from .x import y` copies the reference
into the importing module and patching only the defining module would
miss those calls.  Classes are never replaced (the CLI dispatches on
isinstance); a dataclass is traced through its __post_init__, which is
where the field containers validate their values.  uninstall() puts
every original back.

Each call becomes a span (id, name, start, end, parent id, op id) held
in memory; write() dumps them as JSON lines.  A span's self time is its
duration minus the time its direct children cover; since the program
runs on one thread, children never overlap, so that coverage is the sum
of the children's durations.  A few calls also feed counters, through
the probes below, at the boundary where the work happens.
"""

import functools
import json
import sys
import time
import types
from collections import defaultdict

PACKAGE = "fdvk"


def _layer_name(module, qualname):
    return f"{module.split('.', 1)[-1]}.{qualname}"


def _snapshot_bytes(field):
    # 18-byte header plus float64 payload
    return 18 + 8 * field.values.size


def _probe_fix_gauge(tracer, args, result, parent):
    tracer.counts["gauge.fix_gauge.passes"] += result[1].passes


def _probe_relax_step(tracer, args, result, parent):
    tracer.counts["flow.line_search.accepted"] += int(result[2])


def _probe_energy(tracer, args, result, parent):
    # energies evaluated by the line search; the one on relax_step's own
    # input is the baseline, every other one is a candidate step
    if parent is not None and parent[1] == "flow.relax_step":
        tracer.counts["flow.line_search.energy_evals"] += 1
        if args[0] is not parent[2][0]:
            tracer.counts["flow.line_search.candidates"] += 1


def _probe_minimize(tracer, args, result, parent):
    tracer.counts["flow.minimize.iters"] += result[1].last().iteration


def _probe_save(tracer, args, result, parent):
    tracer.counts["cli.snapshot.bytes"] += _snapshot_bytes(args[1])


def _probe_load(tracer, args, result, parent):
    tracer.counts["cli.snapshot.bytes"] += _snapshot_bytes(result)


PROBES = {
    "gauge.fix_gauge": _probe_fix_gauge,
    "flow.relax_step": _probe_relax_step,
    "fields.energy": _probe_energy,
    "flow.minimize": _probe_minimize,
    "cli.save_snapshot": _probe_save,
    "cli.load_snapshot": _probe_load,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.op = None
        # active frames: [span id, name, args, child seconds]
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _call(self, fn, name, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, args, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += dur - frame[3]
            self.total_s[name] += dur
            if parent is not None:
                parent[3] += dur
            self.spans.append(
                (span_id, name, t0, t1, parent[0] if parent else None, self.op)
            )
        probe = PROBES.get(name)
        if probe is not None:
            probe(self, args, result, parent)
        return result

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, args, kwargs)

        return traced

    def install(self):
        """Wrap fdvk's public functions and dataclass validators."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not getattr(value, "__module__", "").startswith(PACKAGE):
                    continue
                if isinstance(value, types.FunctionType):
                    if value not in wrapped:
                        wrapped[value] = self._wrap(value, _layer_name(value.__module__, value.__qualname__))
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
                elif isinstance(value, type) and "__post_init__" in vars(value) and value not in wrapped:
                    original = vars(value)["__post_init__"]
                    wrapped[value] = True
                    self._patches.append((value, "__post_init__", original))
                    value.__post_init__ = self._wrap(
                        original, _layer_name(value.__module__, value.__qualname__)
                    )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op,
                }) + "\n")
