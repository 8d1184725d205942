"""Spans around the CLI's calls into the package's layers, recorded from outside.

Recorder.install replaces, in the package's module namespaces, every name
through which a CLI command reaches a layer with a timing wrapper.  Each
call becomes one span: layer name, parent span, duration, and the counts
its rates need.  serialize_circuit and parse_circuit are then called a
second time under tracemalloc for their peak heap; that replay and the
wrappers' own bookkeeping are the tracer's time, kept apart from the spans.
The replay runs only while `peaks` is set, because tracemalloc slows these
two layers about tenfold.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

# (module, name the module calls it by, layer).  A layer reached from two
# modules is wrapped in both, so nested calls nest as spans.
PATCHES = (
    ("cli", "parse_dist", "probdist.parse_dist"),
    ("cli", "allocate_3sparse", "decompose.allocate_3sparse"),
    ("decompose", "allocate_3sparse", "decompose.allocate_3sparse"),
    ("cli", "decompose_2sparse", "decompose.decompose_2sparse"),
    ("synth", "decompose_2sparse", "decompose.decompose_2sparse"),
    ("cli", "rows_to_dists", "decompose.rows_to_dists"),
    ("decompose", "rows_to_dists", "decompose.rows_to_dists"),
    ("cli", "round_to_dyadic", "decompose.round_to_dyadic"),
    ("cli", "build_multiplicity_map", "decompose.build_multiplicity_map"),
    ("cli", "exact_phase_table", "synth.exact_phase_table"),
    ("cli", "approx_phase_table", "synth.approx_phase_table"),
    ("cli", "walsh_lower", "synth.walsh_lower"),
    ("cli", "serialize_circuit", "synth.serialize_circuit"),
    ("cli", "parse_circuit", "synth.parse_circuit"),
    ("cli", "gates_to_phases", "synth.gates_to_phases"),
    ("cli", "marginal_mixture", "sim.marginal_mixture"),
    ("cli", "marginal_full", "sim.marginal_full"),
    ("cli", "sample", "sim.sample"),
)

PEAK_LAYERS = ("synth.serialize_circuit", "synth.parse_circuit")

# name -> unit, better; the order the traced run reports them in.
LAYER_METRICS = {
    "probdist.parse_dist_s": ("s", "lower"),
    "decompose.allocate_3sparse_s": ("s", "lower"),
    "decompose.split_3_to_2_s": ("s", "lower"),
    "decompose.round_to_dyadic_s": ("s", "lower"),
    "decompose.build_multiplicity_map_s": ("s", "lower"),
    "decompose.components": ("count", "lower"),
    "synth.exact_phase_table_s": ("s", "lower"),
    "synth.approx_phase_table_s": ("s", "lower"),
    "synth.walsh_lower_s": ("s", "lower"),
    "synth.walsh_kept_ratio": ("ratio", "lower"),
    "synth.serialize_circuit_s": ("s", "lower"),
    "synth.serialize_circuit_mb_per_s": ("MB/s", "higher"),
    "synth.serialize_circuit_peak_mb": ("MB", "lower"),
    "synth.parse_circuit_s": ("s", "lower"),
    "synth.parse_circuit_lines_per_s": ("lines/s", "higher"),
    "synth.parse_circuit_peak_mb": ("MB", "lower"),
    "synth.gates_to_phases_s": ("s", "lower"),
    "sim.marginal_mixture_s": ("s", "lower"),
    "sim.mixture_rows_per_s": ("rows/s", "higher"),
    "sim.marginal_full_s": ("s", "lower"),
    "sim.sample_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _facts(layer: str, args: tuple, result) -> dict:
    """Work counts of one call, for the ratios the layer metrics report."""
    if layer == "synth.serialize_circuit":
        return {"bytes": len(result)}
    if layer == "synth.parse_circuit":
        return {"lines": args[0].count("\n")}
    if layer == "sim.marginal_mixture":
        return {"rows": 1 << args[0].m}
    if layer == "synth.walsh_lower":
        return {"gates": len(result), "coeffs": (1 << (args[0].m + args[0].n)) - 1}
    if layer in ("decompose.decompose_2sparse", "decompose.rows_to_dists"):
        return {"components": len(result)}
    return {}


class Recorder:
    """Spans of the layer calls made since the last take()."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.tracer_s = 0.0
        self.peaks = False
        self._open: list[int] = []

    def install(self, package) -> None:
        """Wrap the layer entry points of an imported iqpsynth package."""
        for module, name, layer in PATCHES:
            mod = getattr(package, module)
            setattr(mod, name, self._wrap(layer, getattr(mod, name)))

    def take(self) -> tuple[list[dict], float]:
        spans, tracer_s = self.spans, self.tracer_s
        self.spans, self.tracer_s = [], 0.0
        return spans, tracer_s

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {"layer": layer, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = time.perf_counter()
                self._open.pop()
            span["s"] = stop - start
            span.update(_facts(layer, args, result))
            if self.peaks and layer in PEAK_LAYERS:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                finally:
                    tracemalloc.stop()
            self.tracer_s += (start - entered) + (time.perf_counter() - stop)
            return result

        return traced


def round_layers(calls: list[tuple[float, list[dict], float]]) -> dict[str, float]:
    """Per-round layer totals from (call wall time, spans, tracer time) triples.

    Times are seconds spent in the layer over the round; rates divide the
    round's work by that time; peaks are the largest measured in the round.
    """
    spans = [s for _, call_spans, _ in calls for s in call_spans]

    def total(layer: str, key: str = "s") -> float:
        return sum(s[key] for s in spans if s["layer"] == layer)

    def peak(layer: str) -> float:
        return max(s["peak_mb"] for s in spans if s["layer"] == layer and "peak_mb" in s)

    def children(call_spans: list[dict], parent: int, layer: str | None = None) -> float:
        return sum(
            s["s"] for s in call_spans
            if s["parent"] == parent and (layer is None or s["layer"] == layer)
        )

    split = exact_self = components = 0.0
    overhead = 0.0
    for wall, call_spans, tracer_s in calls:
        for i, s in enumerate(call_spans):
            if s["layer"] == "decompose.decompose_2sparse":
                split += s["s"] - children(call_spans, i, "decompose.allocate_3sparse")
                components += s["components"]
            elif s["layer"] == "decompose.rows_to_dists":
                parent = s["parent"]
                if parent is None or call_spans[parent]["layer"] != "decompose.decompose_2sparse":
                    components += s["components"]
            elif s["layer"] == "synth.exact_phase_table":
                exact_self += s["s"] - children(call_spans, i)
        top = sum(s["s"] for s in call_spans if s["parent"] is None)
        overhead += wall - top - tracer_s

    serialize_s = total("synth.serialize_circuit")
    parse_s = total("synth.parse_circuit")
    mixture_s = total("sim.marginal_mixture")
    return {
        "probdist.parse_dist_s": total("probdist.parse_dist"),
        "decompose.allocate_3sparse_s": total("decompose.allocate_3sparse"),
        "decompose.split_3_to_2_s": split,
        "decompose.round_to_dyadic_s": total("decompose.round_to_dyadic"),
        "decompose.build_multiplicity_map_s": total("decompose.build_multiplicity_map"),
        "decompose.components": components,
        "synth.exact_phase_table_s": exact_self,
        "synth.approx_phase_table_s": total("synth.approx_phase_table"),
        "synth.walsh_lower_s": total("synth.walsh_lower"),
        "synth.walsh_kept_ratio": total("synth.walsh_lower", "gates")
        / total("synth.walsh_lower", "coeffs"),
        "synth.serialize_circuit_s": serialize_s,
        "synth.serialize_circuit_mb_per_s": total("synth.serialize_circuit", "bytes")
        / 1e6 / serialize_s,
        "synth.serialize_circuit_peak_mb": peak("synth.serialize_circuit"),
        "synth.parse_circuit_s": parse_s,
        "synth.parse_circuit_lines_per_s": total("synth.parse_circuit", "lines") / parse_s,
        "synth.parse_circuit_peak_mb": peak("synth.parse_circuit"),
        "synth.gates_to_phases_s": total("synth.gates_to_phases"),
        "sim.marginal_mixture_s": mixture_s,
        "sim.mixture_rows_per_s": total("sim.marginal_mixture", "rows") / mixture_s,
        "sim.marginal_full_s": total("sim.marginal_full"),
        "sim.sample_s": total("sim.sample"),
        "cli.overhead_s": overhead,
        "trace.overhead_s": sum(tracer_s for _, _, tracer_s in calls),
    }


def median_layers(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in LAYER_METRICS}
