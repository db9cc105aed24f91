"""Run-time tracing from outside the program.

`Tracer.install()` wraps the public functions and the `Mat2`/`QuadNum`
methods named in LAYERS.  A function is replaced in every loaded
`bijacobsthal` module namespace that binds it, because `verifier` and
`cli` import the route functions by name.  Each call records a span
(name, start, end, parent) into flat arrays kept in memory; `write()`
saves them when the run ends.  Per-layer metrics are computed from the
spans: a span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# span name -> (module, attribute); "Class.method" attributes wrap methods.
LAYERS = {
    "exact.Mat2.mul": ("exact", "Mat2.__mul__"),
    "exact.Mat2.add": ("exact", "Mat2.__add__"),
    "exact.Mat2.scale": ("exact", "Mat2.scale"),
    "exact.Mat2.pow": ("exact", "Mat2.__pow__"),
    "exact.QuadNum.mul": ("exact", "QuadNum.__mul__"),
    "exact.QuadNum.rmul": ("exact", "QuadNum.__rmul__"),
    "exact.QuadNum.pow": ("exact", "QuadNum.__pow__"),
    "scalar.scalar_term": ("scalar", "scalar_term"),
    "scalar.scalar_term_fast": ("scalar", "scalar_term_fast"),
    "matrixseq.term_recurrence": ("matrixseq", "term_recurrence"),
    "matrixseq.term_closed": ("matrixseq", "term_closed"),
    "matrixseq.term_fast": ("matrixseq", "term_fast"),
    "matrixseq.term_binet": ("matrixseq", "term_binet"),
    "genfunc.series_coeffs": ("genfunc", "series_coeffs"),
    "verifier.CASSINI": ("verifier", "verify_cassini"),
    "verifier.DET": ("verifier", "verify_det"),
    "verifier.DOUBLING": ("verifier", "verify_doubling"),
    "verifier.LUCAS_RELATIONS": ("scalar", "verify_lucas_relations"),
    "verifier.SUM_T5": ("verifier", "verify_sum_t5"),
    "verifier.WEIGHTED_SUM_T6": ("verifier", "verify_weighted_sum_t6"),
    "verifier.ROOT_IDENTITIES": ("verifier", "verify_root_identities"),
    "verifier.SERIES_MATCH": ("verifier", "verify_series_match"),
    "verifier.CROSS_METHOD": ("verifier", "verify_cross_method"),
    "verifier.run_grid": ("verifier", "run_grid"),
    "report.to_json": ("report", "IdentityReport.to_json"),
    "report.to_csv_row": ("report", "IdentityReport.to_csv_row"),
    "report.to_plain": ("report", "IdentityReport.to_plain"),
    "cli.main": ("cli", "main"),
}
# Several span names feed one reported metric.
_MERGED = {
    "exact.QuadNum.rmul": "exact.QuadNum.mul",
    "report.to_json": "report.serialize",
    "report.to_csv_row": "report.serialize",
    "report.to_plain": "report.serialize",
}
_COUNTERS = ("scalar.new_terms", "matrixseq.new_terms", "matrixseq.max_term_bits")


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span.  Spans must be listed parents-first."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def _bits(matrix) -> int:
    return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length())
               for q in (matrix.e11, matrix.e12, matrix.e21, matrix.e22))


class Tracer:
    """Collects spans and the traffic counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.highest: dict = {}
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _new_terms(self, counter: str, key, n: int) -> None:
        high = self.highest.get((counter, key), -1)
        if n > high:
            self.counters[counter] += n - high
            self.highest[(counter, key)] = n

    def _after_scalar(self, args, result) -> None:
        kind, params, n = args
        self._new_terms("scalar.new_terms", (kind, params.a, params.b), n)

    def _after_route(self, args, result) -> None:
        bits = _bits(result)
        if bits > self.counters["matrixseq.max_term_bits"]:
            self.counters["matrixseq.max_term_bits"] = bits

    def _after_recurrence(self, args, result) -> None:
        params, n = args
        self._new_terms("matrixseq.new_terms", (params.a, params.b), n)
        self._after_route(args, result)

    def install(self) -> None:
        hooks = {
            "scalar.scalar_term": self._after_scalar,
            "matrixseq.term_recurrence": self._after_recurrence,
            "matrixseq.term_closed": self._after_route,
            "matrixseq.term_fast": self._after_route,
            "matrixseq.term_binet": self._after_route,
        }
        modules = [m for k, m in sys.modules.items()
                   if k == "bijacobsthal" or k.startswith("bijacobsthal.")]
        for name, (module, attr) in LAYERS.items():
            owner = sys.modules[f"bijacobsthal.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            # Module globals, and module-level dicts such as cli.METHODS.
            for namespace in [vars(m) for m in modules] + [
                    v for m in modules for v in vars(m).values() if type(v) is dict]:
                for key, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((namespace, key, original))
                        namespace[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """`<span>.calls` and `<span>.self_s` for every reported span name,
        and the traffic counters; a layer this pass never entered reads 0.
        BENCHMARK.json picks the ones a run reports."""
        own = self_times(self.starts, self.ends, self.parents)
        out: dict[str, float] = {}
        for name in LAYERS:
            name = _MERGED.get(name, name)
            out[f"{name}.calls"], out[f"{name}.self_s"] = 0, 0.0
        for name_id, t in zip(self.name_ids, own):
            name = self.names[name_id]
            name = _MERGED.get(name, name)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += t
        out.update(self.counters)
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: id,name,start_s,end_s,parent_id."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.name_ids, self.starts,
                                                 self.ends, self.parents)):
                f.write(f"{i},{self.names[n]},{s:.9f},{e:.9f},{p}\n")
