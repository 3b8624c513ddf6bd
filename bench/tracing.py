"""Per-layer timing of digraphwalk, taken from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces every
public function of each layer with a timing wrapper, in every module of the
package that holds it (a module that did ``from .x import f`` holds its own
reference), plus three methods: ``ArcSpace.__init__``, ``OpMatrix.__matmul__``
and ``CycScalar.real_part_sign``.  Each call is a span; a span's self time is
its duration minus that of the wrapped calls it made.  Time spent in other
methods of the value classes (CycScalar arithmetic, Digraph) counts toward
the wrapped function that called them.

The benchmark's own operations are spans too (``Tracer.op``), so every span
of one operation shares that operation's id.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("enumeration", "digraph", "tables", "spectra", "supports",
          "operators", "cyclotomic", "cycles")

METHODS = (("digraph", "ArcSpace", "__init__"),
           ("operators", "OpMatrix", "__matmul__"),
           ("cyclotomic", "CycScalar", "real_part_sign"))


def _dim_bucket(rows, *_a, **_k) -> str:
    n = len(rows)
    return "d1-6" if n <= 6 else ("d7-12" if n <= 12 else ("d13-20" if n <= 20 else "d21+"))


def _key_bucket(_g, functor, eta=None, *_a, **_k) -> str:
    if functor == "Heta":
        return "Heta_quadratic" if eta is not None and eta.order in (4, 6) else "Heta_other"
    return functor


def _route_bucket(_g, eta, n, *_a, **_k) -> str:
    # the input class the integer sign path covers: rational cosines, power <= 2
    return "integer" if eta.order in (2, 4, 6) and n <= 2 else "scalar"


BUCKETS = {
    "spectra.charpoly_int": _dim_bucket,
    "tables.classing_key": _key_bucket,
    "supports.power_support": _route_bucket,
}

# Spans kept in full; beyond this only the aggregates grow.
SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [calls, total_s, self_s, items]
        self.busy: dict[str, float] = {}   # layer -> self time
        self.by_op: dict[tuple[str, str], int] = {}  # (key, op kind) -> calls
        self.op_counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []       # [child time, span id]
        self._next_id = 0
        self._op_kind = ""
        self._op_id = -1
        self._t_start = perf_counter()
        self.installed: list[str] = []
        self.enabled = True                # off while the benchmark checks outputs

    # -- recording -------------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0.0, sid, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame, key, layer, t0, items):
        t1 = perf_counter()
        self._stack.pop()
        dt = t1 - t0
        if self._stack:
            self._stack[-1][0] += dt
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0, 0]
        own = dt - frame[0]
        st[0] += 1
        st[1] += dt
        st[2] += own
        st[3] += items
        self.busy[layer] = self.busy.get(layer, 0.0) + own
        ok = (key, self._op_kind)
        self.by_op[ok] = self.by_op.get(ok, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], frame[2], key, t0 - self._t_start,
                               t1 - self._t_start, self._op_id))

    @contextmanager
    def op(self, kind: str):
        """Span of one benchmark operation; wrapped calls inside carry its id."""
        self._op_kind = kind
        self._op_id += 1
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1
        frame = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, "op." + kind, "bench", t0, 1)

    def _wrap(self, fn, key: str, layer: str):
        bucket = BUCKETS.get(key)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                k = key if bucket is None else f"{key}.{bucket(*args, **kwargs)}"
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._open()
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(frame, k, layer, t0, 0)
                        return
                    except BaseException:
                        tracer._close(frame, k, layer, t0, 0)
                        raise
                    tracer._close(frame, k, layer, t0, getattr(item, "size", 1))
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            k = key if bucket is None else f"{key}.{bucket(*args, **kwargs)}"
            frame = tracer._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, k, layer, t0, 1)
        return wrapper

    def install(self, package: str = "digraphwalk"):
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self.installed.append(f"{mod.__name__}.{name}")
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
            self.installed.append(f"{package}.{layer}.{cls_name}.{meth}")

    # -- reporting -------------------------------------------------------------

    def _mean(self, key: str, scale: float) -> float:
        st = self.stats.get(key)
        return st[1] / st[0] * scale if st and st[0] else 0.0

    def _rate(self, key: str) -> float:
        st = self.stats.get(key)
        return st[3] / st[1] if st and st[1] > 0 else 0.0

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; totals are per round.  A layer the workload never
        calls reads 0."""
        stats = self.stats
        ops = sum(c for k, c in self.op_counts.items() if k != "enumerate")
        builds = sum(c for (key, kind), c in self.by_op.items()
                     if key == "digraph.ArcSpace.__init__" and kind != "enumerate")
        rps = stats.get("cyclotomic.CycScalar.real_part_sign", [0, 0.0, 0.0, 0])
        classify = stats.get("tables.classify", [0, 0.0, 0.0, 0])
        out = {
            "enumeration.digraph_codes_per_s": (self._rate("enumeration.enumerate_digraph_codes"), "codes/s"),
            "enumeration.orientations_per_s": (self._rate("enumeration.orientations_up_to_iso"), "digraphs/s"),
            "enumeration.code_to_digraph_us": (self._mean("enumeration.code_value_to_digraph", 1e6), "us"),
            "digraph.arcspace_us": (self._mean("digraph.ArcSpace.__init__", 1e6), "us"),
            "digraph.arcspace_builds_per_check": (builds / ops if ops else 0.0, "count"),
        }
        for f in ("A", "H", "Heta_quadratic", "U2plus"):
            out[f"tables.key_us.{f}"] = (self._mean(f"tables.classing_key.{f}", 1e6), "us")
        out["tables.pipeline_self_s"] = (classify[2] / rounds, "s")
        for d in ("d1-6", "d7-12", "d13-20"):
            out[f"spectra.charpoly_int_us.{d}"] = (self._mean(f"spectra.charpoly_int.{d}", 1e6), "us")
        out["spectra.charpoly_exact_ms"] = (self._mean("spectra.charpoly_exact", 1e3), "ms")
        out["spectra.mapping_ms"] = (self._mean("spectra.spectrum_U_via_mapping", 1e3), "ms")
        out["spectra.oracle_ms"] = (self._mean("spectra.spectrum_U_oracle", 1e3), "ms")
        out["supports.sign_data_power_us"] = (self._mean("supports.sign_data_power", 1e6), "us")
        out["supports.grover_square_signs_us"] = (self._mean("supports.grover_square_signs", 1e6), "us")
        for route in ("integer", "scalar"):
            out[f"supports.power_support_ms.{route}"] = (
                self._mean(f"supports.power_support.{route}", 1e3), "ms")
        out["operators.matmul_us"] = (self._mean("operators.OpMatrix.__matmul__", 1e6), "us")
        out["operators.build_U_theta_ms"] = (self._mean("operators.build_U_theta", 1e3), "ms")
        out["cyclotomic.real_part_sign_us"] = (self._mean("cyclotomic.CycScalar.real_part_sign", 1e6), "us")
        out["cyclotomic.real_part_sign_calls"] = (rps[0] / rounds, "count")
        out["cycles.classify_cycles_us"] = (self._mean("cycles.classify_cycles", 1e6), "us")
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (self.busy.get(layer, 0.0) / rounds, "s")
        return out

    def dump(self, path, extra: dict):
        """Write the aggregates and the first SPAN_CAP spans as JSON."""
        doc = dict(extra)
        doc["installed"] = self.installed
        doc["aggregates"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "items": v[3]}
                             for k, v in sorted(self.stats.items())}
        doc["layer_self_s"] = dict(sorted(self.busy.items()))
        doc["op_counts"] = self.op_counts
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s", "op"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Stands in for Tracer in timed runs: operations are not recorded."""

    @contextmanager
    def op(self, kind: str):
        yield
