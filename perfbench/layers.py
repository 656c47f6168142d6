"""Metric table and the per-layer numbers computed from recorded spans.

END_TO_END and PER_LAYER list (name, unit, better) exactly as BENCHMARK.json
declares them; selfcheck.py asserts that the two agree.

Per-layer sources.  A timing is taken from the workload's own traced
repetitions wherever that workload calls the layer (any nesting depth,
setup, driver and check phases).  Where it does not, the number comes from
the probe process, which calls the layer directly at the workload's grid
size (harness checks at N = 16 with 30 trials), so that every metric is
measured on every workload.  grid.*, dyadic.hs_norm_lp_ms, diagnostics.phi_ms
and the per-step transform counts are always probes.
"""

from __future__ import annotations

import json
import statistics

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

LAYERS = ("grid", "dyadic", "fields", "dynamics", "diagnostics", "osgood",
          "harness", "experiments", "configio", "snapshots")
HARNESS_CHECKS = ("bernstein", "sn_linf", "sobolev_sqrtp", "product_rule",
                  "commutator", "tail_bounds", "cancellation", "skew_symmetry")

PER_LAYER = (
    ("dynamics.step_ms", "ms", "lower"),
    ("dynamics.fft2_inverse_per_step", "count", "lower"),
    ("dynamics.fft2_forward_per_step", "count", "lower"),
    ("dynamics.fft_points_per_step", "count", "lower"),
    ("dynamics.fft_bytes_per_step", "B", "lower"),
    ("dynamics.divergence_errors", "count", "lower"),
    ("diagnostics.uniqueness_record_ms", "ms", "lower"),
    ("diagnostics.phi_ms", "ms", "lower"),
    ("diagnostics.frak_d_ms", "ms", "lower"),
    ("diagnostics.f_bound_ms", "ms", "lower"),
    ("diagnostics.fft2_per_sample", "count", "lower"),
    ("diagnostics.energy_record_ms", "ms", "lower"),
    ("dyadic.block_us", "us", "lower"),
    ("dyadic.hs_norm_lp_ms", "ms", "lower"),
    ("dyadic.decompose_ms", "ms", "lower"),
    ("grid.to_physical_ms", "ms", "lower"),
    ("grid.product_ms", "ms", "lower"),
    ("grid.lp_norm_ms", "ms", "lower"),
) + tuple((f"harness.{c}_s", "s", "lower") for c in HARNESS_CHECKS) + (
    ("harness.fft2_per_trial", "count", "lower"),
    ("osgood.check_master_ms", "ms", "lower"),
    ("osgood.certificate_ms", "ms", "lower"),
    ("snapshots.persist_ms", "ms", "lower"),
    ("snapshots.load_ms", "ms", "lower"),
    ("snapshots.bytes_written", "B", "lower"),
    ("experiments.csv_write_ms", "ms", "lower"),
    ("experiments.csv_rows", "count", "higher"),
    ("configio.parse_ms", "ms", "lower"),
    ("fields.generate_initial_ms", "ms", "lower"),
    ("import_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.overhead_s", "s", "lower"),
)

WORKLOAD_PHASES = ("bench.setup", "bench.driver", "bench.checks")
TIMED_PHASES = ("bench.setup", "bench.driver")


class Span:
    __slots__ = ("name", "parent", "dur", "work", "inv", "fwd", "points",
                 "bytes", "root", "child_time")

    def __init__(self, rec):
        (self.name, self.parent, start, end, self.work, self.inv, self.fwd,
         self.points, self.bytes) = rec
        self.dur = end - start
        self.child_time = 0.0


def load_spans(path):
    """Spans of one process, each tagged with the name of its root span."""
    with open(path, encoding="utf-8") as fh:
        spans = [Span(rec) for rec in json.load(fh)]
    for s in spans:
        if s.parent < 0:
            s.root = s.name
        else:
            s.root = spans[s.parent].root
            spans[s.parent].child_time += s.dur
    return spans


def tail(values):
    """(percentile, value) for the highest of p99/p95/p90/p75 with at least
    ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100.0 >= 10:
            return pct, statistics.quantiles(ordered, n=100)[pct - 1]
    return None


def per_layer(traced, plain, probe):
    """Per-layer metrics from traced and plain repetition results and the
    probe process's spans.  Returns {name: (value, samples)}; samples is the
    list the value summarises (empty for derived counts)."""
    reps = [load_spans(r["spans"]) for r in traced]
    probe_spans = [s for s in probe if s.root == "bench.probe"]
    direct_probe = {}
    for s in probe_spans:
        if s.parent >= 0 and probe[s.parent].name == "bench.probe":
            direct_probe.setdefault(s.name, []).append(s)

    def in_workload(name):
        return [s for spans in reps for s in spans
                if s.name == name and s.root in WORKLOAD_PHASES]

    def pick(name):
        return in_workload(name) or direct_probe.get(name, [])

    def timing(spans, scale=1e3):
        return [scale * s.dur for s in spans]

    out = {}

    def put(name, samples):
        out[name] = (statistics.median(samples) if samples else 0.0, samples)

    steps = [s for name in ("dynamics.run", "dynamics.iterate")
             for s in in_workload(name) if s.work > 0]
    steps = steps or direct_probe.get("dynamics.run", [])
    put("dynamics.step_ms", [1e3 * s.dur / s.work for s in steps])
    one_step = direct_probe.get("dynamics.step", [])
    put("dynamics.fft2_inverse_per_step", [s.inv for s in one_step])
    put("dynamics.fft2_forward_per_step", [s.fwd for s in one_step])
    put("dynamics.fft_points_per_step", [s.points for s in one_step])
    put("dynamics.fft_bytes_per_step", [s.bytes for s in one_step])
    out["dynamics.divergence_errors"] = (
        sum(r.get("divergence_errors", 0) for r in traced), [])

    records = pick("diagnostics.uniqueness_record")
    put("diagnostics.uniqueness_record_ms", timing(records))
    put("diagnostics.phi_ms", timing(direct_probe.get("diagnostics.phi", [])))
    put("diagnostics.frak_d_ms", timing(pick("diagnostics.frak_d_components")))
    put("diagnostics.f_bound_ms", timing(pick("diagnostics.f_bound")))
    put("diagnostics.fft2_per_sample", [s.inv + s.fwd for s in records])
    put("diagnostics.energy_record_ms", timing(pick("diagnostics.energy_record")))

    put("dyadic.block_us", timing(pick("dyadic.DyadicPartition.delta"), 1e6))
    put("dyadic.hs_norm_lp_ms", timing(direct_probe.get("dyadic.hs_norm", [])))
    put("dyadic.decompose_ms", timing(pick("experiments.decompose_experiment")))
    for metric, name in (("to_physical_ms", "to_physical"),
                         ("product_ms", "product"), ("lp_norm_ms", "lp_norm")):
        put(f"grid.{metric}", timing(direct_probe.get(f"grid.{name}", [])))

    for check in HARNESS_CHECKS:
        put(f"harness.{check}_s", timing(pick(f"harness.verify_{check}"), 1.0))
    harness_reps = [[s for s in spans if s.name.startswith("harness.verify_")
                     and s.root in WORKLOAD_PHASES] for spans in reps]
    harness_reps = [h for h in harness_reps if h] or [
        [s for s in probe_spans if s.name.startswith("harness.verify_")]]
    put("harness.fft2_per_trial", [
        sum(s.inv + s.fwd for s in h) / h[0].work for h in harness_reps if h])

    put("osgood.check_master_ms", timing(pick("osgood.check_master_inequality")))
    put("osgood.certificate_ms",
        timing(pick("osgood.osgood_divergence_certificate")))
    put("snapshots.persist_ms", timing(pick("snapshots.persist")))
    put("snapshots.load_ms", timing(pick("snapshots.load")))
    put("experiments.csv_write_ms", timing(pick("experiments.write_csv")))
    for metric, name in (("snapshots.bytes_written", "snapshots.persist"),
                         ("experiments.csv_rows", "experiments.write_csv")):
        put(metric, [sum(s.work for s in spans if s.name == name
                         and s.root == "bench.driver") for spans in reps])
    put("configio.parse_ms", timing(pick("configio.parse_config")))
    put("fields.generate_initial_ms", timing(pick("fields.generate_initial")))
    put("import_s", [r["import_s"] for r in traced])

    for layer in LAYERS:
        per_rep = [_self_time(spans, layer, TIMED_PHASES) for spans in reps]
        if not any(per_rep):
            per_rep = [_self_time(probe, layer, ("bench.probe",))]
        put(f"{layer}.self_s", per_rep)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_s"] = (traced_wall - plain_wall, [])
    return out


def _self_time(spans, layer, roots):
    prefix = layer + "."
    return sum(s.dur - s.child_time for s in spans
               if s.root in roots and s.name.startswith(prefix))
