"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers at the
names the callers look up (``engine.aggregate`` is looked up by ``infer``,
``cli.run_sweep`` by the sweep command, and so on) and ``uninstall`` puts
the originals back.  Spans of one op are kept in memory with their parent;
at the end of the op each span's self time, its duration minus the time its
child spans cover, is added to its layer, scaled by the host-speed factor
the benchmark passes to ``flush``.
"""

from __future__ import annotations

from time import perf_counter

from fuzzyspectrum import arbitration, cli, engine, serialization, sweep
from fuzzyspectrum import model as fs_model

ROOT = "bench.op"

# (module, attribute a caller looks up, span name)
PATCHES = (
    (engine, "clamp_to_universe", "engine.clamp_to_universe"),
    (engine, "fuzzify", "engine.fuzzify"),
    (engine, "aggregate", "engine.aggregate"),
    (engine, "defuzzify_centroid", "engine.defuzzify_centroid"),
    (fs_model, "infer", "engine.infer"),
    (sweep, "infer", "engine.infer"),
    (fs_model, "decision_possibility", "model.decision_possibility"),
    (arbitration, "decision_possibility", "model.decision_possibility"),
    (fs_model, "validate_model", "model.validate_model"),
    (cli, "arbitrate", "arbitration.arbitrate"),
    (arbitration, "rank_candidates", "arbitration.rank_candidates"),
    (cli, "run_sweep", "sweep.run_sweep"),
    (cli, "read_candidates_csv", "serialization.read_candidates_csv"),
    (cli, "format_surface_csv", "serialization.format_surface_csv"),
    (serialization, "parse_document", "serialization.parse_document"),
    (cli, "main", "cli.main"),
)

# Layers reported in microseconds per op; the rest in milliseconds.
MICROSECOND_LAYERS = frozenset(
    {
        "engine.clamp_to_universe",
        "engine.fuzzify",
        "engine.aggregate",
        "engine.defuzzify_centroid",
        "engine.infer",
        "model.decision_possibility",
    }
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in PATCHES))


def metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.metrics`` reports."""
    names = []
    for layer in LAYERS:
        unit = "us" if layer in MICROSECOND_LAYERS else "ms"
        names += [f"{layer}.self_{unit}", f"{layer}.calls"]
    return names + ["engine.grid_points_per_s", "arbitration.admitted_ratio", "trace.self_coverage_ratio"]


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys((*LAYERS, ROOT), 0.0)
        self._pending_s = dict.fromkeys((*LAYERS, ROOT), 0.0)
        self.calls = dict.fromkeys((*LAYERS, ROOT), 0)
        self.ops = 0
        self.grid_points = 0
        self.ranked = 0
        self.admitted = 0
        self._spans: list = []
        self._open: list[int] = []
        self._originals = [(m, attr, getattr(m, attr)) for m, attr, _ in PATCHES]
        self._wrappers = [
            (m, attr, self._wrap(name, getattr(m, attr), self._observer(name)))
            for m, attr, name in PATCHES
        ]

    def _observer(self, name: str):
        if name == "engine.defuzzify_centroid":
            def observe(args, result):
                self.grid_points += len(args[0])
            return observe
        if name == "arbitration.arbitrate":
            def observe(args, result):
                self.ranked += len(result.ranking)
                self.admitted += sum(p >= result.threshold for _, p in result.ranking)
            return observe
        return None

    def _wrap(self, name: str, fn, observe=None):
        spans, open_spans = self._spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                open_spans.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def root(self, fn):
        """fn wrapped as the root span of an op."""
        return self._wrap(ROOT, fn)

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def end_op(self) -> None:
        """Fold the spans of the op that just ran into per-layer self times,
        held until ``flush`` scales them."""
        covered = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, start, end, _), child_time in zip(self._spans, covered):
            self._pending_s[name] += end - start - child_time
            self.calls[name] += 1
        self._spans.clear()
        self.ops += 1

    def flush(self, scale: float) -> None:
        """Add the held self times, multiplied by scale, to the totals."""
        for name, seconds in self._pending_s.items():
            self.self_s[name] += seconds * scale
            self._pending_s[name] = 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op means over the traced ops, as name -> (value, unit)."""
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            unit, scale = ("us", 1e6) if layer in MICROSECOND_LAYERS else ("ms", 1e3)
            out[f"{layer}.self_{unit}"] = (self.self_s[layer] / ops * scale, unit)
            out[f"{layer}.calls"] = (self.calls[layer] / ops, "count")
        defuzzify_s = self.self_s["engine.defuzzify_centroid"]
        out["engine.grid_points_per_s"] = (self.grid_points / defuzzify_s if defuzzify_s else 0.0, "1/s")
        out["arbitration.admitted_ratio"] = (self.admitted / self.ranked if self.ranked else 0.0, "ratio")
        library_s = sum(self.self_s[layer] for layer in LAYERS)
        total_s = library_s + self.self_s[ROOT]
        out["trace.self_coverage_ratio"] = (library_s / total_s if total_s else 0.0, "ratio")
        return out
