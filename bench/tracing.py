"""In-process tracing of sgedr's layers, wrapped from outside the package.

A function is wrapped in every sgedr namespace it is looked up from (e.g.
both `sgedr.cli.sweep_region` and `sgedr.sgmodel.error_sq`), so each call goes
through exactly one wrapper.  Coarse boundaries record a span (name, start,
end, parent, request); hot leaf functions called per point or per FFT only
aggregate calls and seconds under the innermost open span, which keeps the
tracer's memory and overhead bounded on 65,536-point sweeps.  Spans stay in
memory until `dump` writes them at the end of the run.
"""
from __future__ import annotations

import json
import operator
import sys
from time import perf_counter
from typing import Callable

# Per-layer metric: (name, unit, better)
METRICS: tuple[tuple[str, str, str], ...] = (
    ("import.sgedr_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows_out", "count", "higher"),
    ("cli.bytes_out", "B", "lower"),
    ("cli.wall_tail_s", "s", "lower"),
    ("cli.wall_tail_pct", "pct", "higher"),
    ("cli.wall_samples", "count", "higher"),
    ("sgmodel.sweep_region_s", "s", "lower"),
    ("sgmodel.points", "count", "higher"),
    ("sgmodel.ns_per_point", "ns", "lower"),
    ("sgmodel.error_sq_calls", "count", "lower"),
    ("sgmodel.in_region_s", "s", "lower"),
    ("sgmodel.region_bound_calls", "count", "lower"),
    ("probe.sigma_t_calls", "count", "lower"),
    ("measurement.qrms_calls", "count", "lower"),
    ("measurement.qrms_s", "s", "lower"),
    ("measurement.us_per_qrms", "us", "lower"),
    ("gridsim.measure_s", "s", "lower"),
    ("gridsim.fft_calls", "count", "lower"),
    ("gridsim.us_per_fft", "us", "lower"),
    ("gridsim.fft_bytes_computed", "B", "lower"),
    ("validation.cases", "count", "higher"),
    ("validation.max_eps_rel", "ratio", "lower"),
    ("validation.max_eta_rel", "ratio", "lower"),
    ("experiment.run_chain_s", "s", "lower"),
    ("experiment.reference_failures", "count", "lower"),
    ("spin.evaluate_edrs_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _validation_attrs(results) -> dict[str, float]:
    return {
        "cases": len(results),
        "max_eps_rel": max((r.eps_rel for r in results), default=0.0),
        "max_eta_rel": max((r.eta_rel for r in results), default=0.0),
    }


# (module, function, span name, attributes taken from the return value)
SPANS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("sgedr.sgmodel", "sweep_region", "sgmodel.sweep_region", lambda pts: {"points": len(pts)}),
    ("sgedr.experiment", "run_chain", "experiment.run_chain", None),
    ("sgedr.validation", "run_validation", "validation.run_validation", _validation_attrs),
    ("sgedr.gridsim", "measure_error", "gridsim.measure", None),
    ("sgedr.gridsim", "measure_disturbance", "gridsim.measure", None),
    ("sgedr.measurement", "qrms_error", "measurement.qrms", None),
    ("sgedr.measurement", "qrms_disturbance", "measurement.qrms", None),
)

# (module, function, leaf name); numpy.fft is patched on the module that
# gridsim looks it up from at call time.
LEAVES: tuple[tuple[str, str, str], ...] = (
    ("sgedr.sgmodel", "error_sq", "sgmodel.error_sq"),
    ("sgedr.sgmodel", "in_region", "sgmodel.in_region"),
    ("sgedr.sgmodel", "region_bound", "sgmodel.region_bound"),
    ("sgedr.probe", "sigma_t", "probe.sigma_t"),
    ("sgedr.spin", "evaluate_edrs", "spin.evaluate_edrs"),
)
FFT_FUNCTIONS = ("fft", "ifft")
COMPLEX128_BYTES = 16


def _namespaces(module_name: str, attr: str):
    """Every (module, name) in the sgedr package bound to the function."""
    fn = getattr(sys.modules[module_name], attr)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] == "sgedr":
            for name, value in list(vars(mod).items()):
                if value is fn:
                    yield mod, name


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, request, pass, attrs]
        self.spans: list[list] = []
        self._covered: list[float] = []  # seconds of each span covered by children
        self._stack: list[int] = []
        self._leaf_depth = 0
        # per traced pass: leaf name -> [calls, seconds, computed bytes]
        self.leaves: list[dict[str, list[float]]] = []
        self.request = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin_pass(self) -> None:
        self.leaves.append({})

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request, len(self.leaves) - 1, None])
        self._covered.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[6] = attrs
        self._stack.pop()
        if span[3] >= 0:
            self._covered[span[3]] += span[2] - span[1]

    def _span_wrapper(self, fn, name: str, attrs_of):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, attrs_of(result) if attrs_of and result is not None else None)
        return wrapper

    def _leaf_wrapper(self, fn, name: str, computed_bytes: bool):
        stack, covered = self._stack, self._covered

        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leaf_depth -= 1
                stat = self.leaves[-1].get(name)
                if stat is None:
                    stat = self.leaves[-1][name] = [0, 0.0, 0]
                stat[0] += 1
                stat[1] += dt
                if computed_bytes:
                    stat[2] += getattr(args[0], "size", 0) * COMPLEX128_BYTES
                if self._leaf_depth == 0 and stack:
                    covered[stack[-1]] += dt
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        import numpy.fft

        def patch(mod, attr, wrapper) -> None:
            self._patches.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

        for module_name, attr, name, attrs_of in SPANS:
            fn = getattr(sys.modules[module_name], attr)
            for mod, bound in list(_namespaces(module_name, attr)):
                patch(mod, bound, self._span_wrapper(fn, name, attrs_of))
        for module_name, attr, name in LEAVES:
            fn = getattr(sys.modules[module_name], attr)
            for mod, bound in list(_namespaces(module_name, attr)):
                patch(mod, bound, self._leaf_wrapper(fn, name, False))
        for attr in FFT_FUNCTIONS:
            patch(numpy.fft, attr, self._leaf_wrapper(getattr(numpy.fft, attr), "gridsim.fft", True))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # -- reporting -------------------------------------------------------
    def pass_metrics(self, pass_index: int) -> dict[str, float]:
        """Per-layer totals of one traced pass."""
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        attrs: dict[str, float] = {}
        cli_self = 0.0
        for i, (name, start, end, _parent, _req, p, extra) in enumerate(self.spans):
            if p != pass_index:
                continue
            total[name] = total.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
            if name == "cli.main":
                cli_self += (end - start) - self._covered[i]
            for key, value in (extra or {}).items():
                key = f"{name}.{key}"
                combine = max if key.rsplit(".", 1)[1].startswith("max_") else operator.add
                attrs[key] = combine(attrs[key], value) if key in attrs else value
        leaf = self.leaves[pass_index]

        def calls(n: str) -> int:
            return leaf.get(n, [0, 0.0, 0])[0]

        def secs(n: str) -> float:
            return leaf.get(n, [0, 0.0, 0])[1]

        points = attrs.get("sgmodel.sweep_region.points", 0)
        qrms_calls = count.get("measurement.qrms", 0)
        fft_calls = calls("gridsim.fft")
        return {
            "cli.main_s": total.get("cli.main", 0.0),
            "cli.self_s": cli_self,
            "sgmodel.sweep_region_s": total.get("sgmodel.sweep_region", 0.0),
            "sgmodel.points": points,
            "sgmodel.ns_per_point": total.get("sgmodel.sweep_region", 0.0) / points * 1e9 if points else 0.0,
            "sgmodel.error_sq_calls": calls("sgmodel.error_sq"),
            "sgmodel.in_region_s": secs("sgmodel.in_region"),
            "sgmodel.region_bound_calls": calls("sgmodel.region_bound"),
            "probe.sigma_t_calls": calls("probe.sigma_t"),
            "measurement.qrms_calls": qrms_calls,
            "measurement.qrms_s": total.get("measurement.qrms", 0.0),
            "measurement.us_per_qrms": total.get("measurement.qrms", 0.0) / qrms_calls * 1e6 if qrms_calls else 0.0,
            "gridsim.measure_s": total.get("gridsim.measure", 0.0),
            "gridsim.fft_calls": fft_calls,
            "gridsim.us_per_fft": secs("gridsim.fft") / fft_calls * 1e6 if fft_calls else 0.0,
            "gridsim.fft_bytes_computed": leaf.get("gridsim.fft", [0, 0.0, 0])[2],
            "validation.cases": attrs.get("validation.run_validation.cases", 0),
            "validation.max_eps_rel": attrs.get("validation.run_validation.max_eps_rel", 0.0),
            "validation.max_eta_rel": attrs.get("validation.run_validation.max_eta_rel", 0.0),
            "experiment.run_chain_s": total.get("experiment.run_chain", 0.0),
            "spin.evaluate_edrs_calls": calls("spin.evaluate_edrs"),
        }

    def command_walls(self) -> list[float]:
        return [end - start for name, start, end, *_ in self.spans if name == "cli.main"]

    def dump(self, path: str, meta: dict) -> None:
        names = ("name", "start", "end", "parent", "request", "pass", "attrs")
        with open(path, "w") as fh:
            json.dump(meta, fh)
            fh.write("\n")
            for i, span in enumerate(self.spans):
                record = dict(zip(names, span))
                record["self"] = (span[2] - span[1]) - self._covered[i]
                fh.write(json.dumps(record) + "\n")
            for p, leaf in enumerate(self.leaves):
                fh.write(json.dumps({"pass": p, "leaves": leaf}) + "\n")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported as percentile 100 and the sample count tells the reader.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n
