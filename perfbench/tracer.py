"""Traced runs: spans and counters around hopfgal's public functions.

`Tracer.install` replaces every binding of each wrapped function across the
loaded `hopfgal.*` modules (modules import names directly, so patching the
defining module alone would miss most calls) and patches the wrapped
methods on their classes; `uninstall` puts every original back.  Spans and
counters stay in memory until `dump`.

Three kinds of wrapper, by how hot the function is:

* span: records (name, start, end, parent span, job id) for every call and
  the inclusive time of its outermost calls (`<layer>.<fn>.s`);
* timed: call count and outermost inclusive time, no span list entry;
* counted: call count only, plus the yield where the function reports one.

A layer's self time (`<layer>.self_s`) cannot come from spans, because
Scalar arithmetic runs tens of millions of times per pass and a span per
operation would swamp the run.  It comes from stack sampling instead: every
millisecond of process CPU time a SIGPROF handler attributes the sample to
the innermost frame that belongs to a hopfgal module (frames of the
standard library and numpy count for the hopfgal frame that called them;
frames of this file count as tracing overhead).  The sample shares are
scaled to the CPU time of the traced pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import time
from collections import defaultdict

_THIS_FILE = os.path.abspath(__file__)
SAMPLE_INTERVAL_S = 0.001

# metric stem -> (module, attribute path) for span-wrapped functions
SPANS = {
    "linalg.operator_algebra_span": ("linalg", "operator_algebra_span"),
    "linalg.matrix_commutant": ("linalg", "matrix_commutant"),
    "linalg.rref": ("linalg", "rref"),
    "algebra.validate_algebra": ("algebra", "validate_algebra"),
    "algebra.relative_commutant": ("algebra", "relative_commutant"),
    "hopf.validate_hopf": ("hopf", "validate_hopf"),
    "hopf.dual_hopf": ("hopf", "dual_hopf"),
    "actions.validate_action": ("actions", "validate_action"),
    "actions.smash_product": ("actions", "smash_product"),
    "jones.gns": ("jones", "gns"),
    "jones.jones_projection": ("jones", "jones_projection"),
    "jones.basic_construction": ("jones", "basic_construction"),
    "jones.index": ("jones", "index"),
    "jones.markov_check": ("jones", "markov_check"),
    "jones.bimodule_endos_report": ("jones", "bimodule_endos_report"),
    "measuring.largest_subcoalgebra": ("measuring", "largest_subcoalgebra"),
    "measuring.hopf_centralizer": ("measuring", "hopf_centralizer"),
    "measuring.universal_measuring_within":
        ("measuring", "universal_measuring_within"),
    "galois.canonical_qgal": ("galois", "canonical_qgal"),
    "galois.smash_bimodule_endos": ("galois", "smash_bimodule_endos"),
    "galois.commutant_endos_iso": ("galois", "commutant_endos_iso"),
    "banica.product_coaction": ("banica", "product_coaction"),
    "banica.qgal_banica": ("banica", "qgal_banica"),
    "serialize.load": ("serialize", "Workspace.load"),
    "serialize.lift_orders": ("serialize", "Workspace.lift_orders"),
    "serialize.emit": ("serialize", "emit"),
}
TIMED = {"linalg.mat_mul": ("linalg", "mat_mul")}
COUNTED = {
    "algebra.mul_vec": ("algebra", "StarAlgebra.mul_vec"),
    "algebra.positivity": ("algebra", "numerically_positive"),
    "actions.apply": ("actions", "ModuleAlgebraAction.apply"),
    "jones.adjoint": ("jones", "GnsSpace.adjoint"),
}
SELF_TIME_LAYERS = ("scalars", "linalg", "algebra", "hopf", "actions")


class Tracer:
    def __init__(self, src_dir: str):
        self.prefix = os.path.join(os.path.abspath(src_dir), "hopfgal", "")
        self.spans: list = []
        self.job = None
        self.counts: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.samples: dict = defaultdict(int)
        self.cpu_s = 0.0
        self._stack: list[int] = []
        self._depth: dict = defaultdict(int)
        self._undo: list = []
        self._modules: dict = {}
        self._old_handler = None
        self._cpu0 = 0.0

    # -- patching -------------------------------------------------------------

    def _hopfgal_modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "hopfgal"
                                      or name.startswith("hopfgal."))]

    def _patch(self, module: str, path: str, make):
        mod = sys.modules[f"hopfgal.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        orig = getattr(mod, path)
        new = make(orig)
        for m in self._hopfgal_modules():
            for name, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, name, orig))
                    setattr(m, name, new)

    def _span(self, stem: str, keep_span: bool = True):
        spans, stack, depth = self.spans, self._stack, self._depth
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter
        calls = stem + ".calls"
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                idx = len(spans)
                if keep_span:
                    spans.append(None)
                stack.append(idx)
                depth[stem] += 1
                start = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    depth[stem] -= 1
                    counts[calls] += 1
                    if not depth[stem]:
                        seconds[stem] += end - start
                    if keep_span:
                        spans[idx] = (stem, start, end, parent, tracer.job)
            return wrapper
        return make

    def _counted(self, stem: str):
        counts = self.counts
        calls = stem + ".calls"

        def make(orig):
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return orig(*args, **kwargs)
            return wrapper
        return make

    def _yielding(self, attempts: str, useful: str):
        counts = self.counts

        def make(orig):
            def wrapper(self_, row):
                counts[attempts] += 1
                grew = orig(self_, row)
                if grew:
                    counts[useful] += 1
                return grew
            return wrapper
        return make

    def _patch_scalars(self):
        c = self.counts

        def init(orig):
            def __init__(self_, order, num, den=1):
                c["scalars.constructed"] += 1
                orig(self_, order, num, den)
            return __init__

        def zero_test(orig):
            def __bool__(self_):
                c["scalars.zero_tests"] += 1
                return orig(self_)
            return __bool__

        def mul(orig):
            def __mul__(self_, other):
                c["scalars.mul"] += 1
                out = orig(self_, other)
                if len(out.num) > 1:
                    c["scalars.mul_cyclotomic"] += 1
                return out
            return __mul__

        def add(orig):
            def __add__(self_, other):
                c["scalars.add"] += 1
                return orig(self_, other)
            return __add__

        def unary(key):
            def make(orig):
                def wrapper(self_, *args):
                    c[key] += 1
                    return orig(self_, *args)
                return wrapper
            return make

        for attr, make in (("__init__", init), ("__bool__", zero_test),
                           ("__mul__", mul), ("__rmul__", mul),
                           ("__add__", add), ("__radd__", add),
                           ("inverse", unary("scalars.inverse")),
                           ("lift", unary("scalars.lift"))):
            self._patch("scalars", f"Scalar.{attr}", make)

    def _rounds(self, orig):
        counts = self.counts

        def largest_subcoalgebra(C, W, stabilizers=None, log=None):
            own = [] if log is None else log
            before = len(own)
            try:
                return orig(C, W, stabilizers, own)
            finally:
                counts["measuring.largest_subcoalgebra.rounds"] += (
                    len(own) - before)
        return largest_subcoalgebra

    def _emit_bytes(self, orig):
        counts = self.counts

        def emit(doc):
            text = orig(doc)
            counts["serialize.emit_bytes"] += len(text.encode())
            return text
        return emit

    def install(self):
        self._patch("measuring", "largest_subcoalgebra", self._rounds)
        self._patch("serialize", "emit", self._emit_bytes)
        for stem, (module, path) in SPANS.items():
            self._patch(module, path, self._span(stem))
        for stem, (module, path) in TIMED.items():
            self._patch(module, path, self._span(stem, keep_span=False))
        for stem, (module, path) in COUNTED.items():
            self._patch(module, path, self._counted(stem))
        self._patch("linalg", "SpanBuilder.insert",
                    self._yielding("linalg.span.inserts",
                                   "linalg.span.grew"))
        self._patch("linalg", "KernelSolver.add_row",
                    self._yielding("linalg.kernel.rows",
                                   "linalg.kernel.shrank"))
        self._patch_scalars()
        self._old_handler = signal.signal(signal.SIGPROF, self._sample)
        self._cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu_s += time.process_time() - self._cpu0
        signal.signal(signal.SIGPROF, self._old_handler)
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    @contextlib.contextmanager
    def job_span(self, job_id):
        """The root span of one job; spans inside it carry its id."""
        self.job = job_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = ("job", start, time.perf_counter(), -1, job_id)
            self.job = None

    # -- sampling -------------------------------------------------------------

    def _module_of(self, filename: str):
        mod = self._modules.get(filename)
        if mod is None:
            if filename.startswith(self.prefix):
                mod = os.path.splitext(filename[len(self.prefix):])[0]
            elif filename == _THIS_FILE:
                mod = "trace"
            else:
                mod = ""
            self._modules[filename] = mod
        return mod

    def _sample(self, signum, frame):
        while frame is not None:
            mod = self._module_of(frame.f_code.co_filename)
            if mod:
                self.samples[mod] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    # -- results --------------------------------------------------------------

    def state(self) -> dict:
        """Counters, seconds, samples and CPU time, as plain JSON data."""
        return {"counts": dict(self.counts), "seconds": dict(self.seconds),
                "samples": dict(self.samples), "cpu_s": self.cpu_s}

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({**self.state(), "spans": self.spans}, fh)


def merge(states: list[dict]) -> dict:
    """Sum the `state()` of several tracers (one per child process)."""
    out = {"counts": defaultdict(int), "seconds": defaultdict(float),
           "samples": defaultdict(int), "cpu_s": 0.0}
    for st in states:
        for key in ("counts", "seconds", "samples"):
            for name, value in st[key].items():
                out[key][name] += value
        out["cpu_s"] += st["cpu_s"]
    return out


def layer_metrics(state: dict) -> dict:
    """Per-layer metric values, by metric name, from a (merged) state."""
    counts, seconds = state["counts"], state["seconds"]
    total = sum(state["samples"].values()) or 1
    out = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = (state["samples"].get(layer, 0) / total
                                  * state["cpu_s"])
    for key in ("constructed", "zero_tests", "mul", "mul_cyclotomic", "add",
                "inverse", "lift"):
        out[f"scalars.{key}"] = counts.get(f"scalars.{key}", 0)
    for stem in list(SPANS) + list(TIMED):
        out[f"{stem}.s"] = seconds.get(stem, 0.0)
    for stem in ("linalg.mat_mul", "linalg.rref", "algebra.mul_vec",
                 "algebra.positivity", "actions.apply", "jones.adjoint"):
        out[f"{stem}.calls"] = counts.get(f"{stem}.calls", 0)
    for attempts, useful, name in (
            ("linalg.span.inserts", "linalg.span.grew", "linalg.span"),
            ("linalg.kernel.rows", "linalg.kernel.shrank", "linalg.kernel")):
        n = counts.get(attempts, 0)
        out[attempts] = n
        out[f"{name}.yield"] = counts.get(useful, 0) / n if n else 0.0
    out["measuring.largest_subcoalgebra.rounds"] = counts.get(
        "measuring.largest_subcoalgebra.rounds", 0)
    out["serialize.emit_bytes"] = counts.get("serialize.emit_bytes", 0)
    return out
