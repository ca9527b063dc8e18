"""Which nemclock functions a traced run wraps, and how its spans become
per-layer metrics.

Every ``*.busy_s`` metric is self time: the layer's spans minus the part of
them their child spans cover.  Energy-integrand evaluations are timed as
children of the quadrature call and charged to the transport table or point
call that owns them, so ``quadrature.busy_s`` is the adaptive integrator's
own book-keeping and the transport layers hold the physics.  A coefficient
table built inside ``pipeline.default_grid`` is the probe table; any other is
a main table.
"""
from __future__ import annotations

from spans import Tracer, self_times

BUSY = (
    "quadrature",
    "transport.probe_table",
    "transport.main_table",
    "transport.point",
    "toymodels.cycle",
    "langevin",
    "pipeline.default_grid",
    "pipeline.run_ensemble",
    "pipeline.histogram_feed",
    "pipeline.series_feed",
    "readout.tick_feed",
    "readout.detect_ticks",
    "readout.transduce",
    "clockstats.autocorrelation",
    "clockstats.linewidth_fit",
    "clockstats.wtd_fit",
    "clockstats.allan",
    "tickinfo",
    "svgplot",
    "cli.stage_coeffs",
    "cli.stage_simulate",
    "cli.stage_ticks",
    "cli.stage_analyze",
)
TRANSPORT_OWNERS = {"transport.probe_table", "transport.main_table", "transport.point"}
ROOTS = {"setup", "timed"}

# name -> (unit, better) for every per-layer metric a traced run reports
PER_LAYER = {
    "quadrature.calls": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.evaluations": ("count", "lower"),
    "transport.probe_table.nodes": ("count", "lower"),
    "transport.main_table.nodes": ("count", "lower"),
    "transport.point.calls": ("count", "lower"),
    "langevin.member_steps": ("count", "lower"),
    "langevin.ns_per_member_step": ("ns", "lower"),
    "pipeline.samples_fed": ("count", "lower"),
    "readout.ticks": ("count", "higher"),
    "cli.artifact_bytes": ("bytes", "lower"),
    **{f"{key}.busy_s": ("s", "lower") for key in BUSY},
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}
COUNTS = (
    "quadrature.calls",
    "quadrature.panels",
    "quadrature.evaluations",
    "transport.probe_table.nodes",
    "transport.main_table.nodes",
    "transport.point.calls",
    "langevin.member_steps",
    "pipeline.samples_fed",
    "readout.ticks",
)


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from nemclock import (
        cli, clockstats, langevin, pipeline, quadrature, readout, svgplot,
        tickinfo, toymodels, transport,
    )

    def traced_integrand(args):
        return (tracer.wrap(args[0], "transport.integrand"),) + tuple(args[1:])

    tracer.patch(
        quadrature, "integrate", "quadrature",
        counts=lambda a, r: {"panels": r.panels, "evaluations": r.evaluations},
        wrap_args=traced_integrand,
    )
    tracer.patch(
        transport, "build_coefficient_table", "transport.table",
        counts=lambda a, r: {"nodes": int(r.grid.size)},
    )
    tracer.patch(transport, "friction_and_diffusion", "transport.point")
    tracer.patch(toymodels, "limit_cycle_amplitude", "toymodels.cycle")
    tracer.patch(toymodels, "reduced_coefficients", "toymodels.cycle")
    tracer.patch(pipeline, "default_grid", "pipeline.default_grid")
    tracer.patch(pipeline, "run_ensemble", "pipeline.run_ensemble")
    tracer.patch(
        pipeline.HistogramAccumulator, "feed", "pipeline.histogram_feed",
        counts=lambda a, r: {"samples": int(a[4].size)},
    )
    tracer.patch(pipeline.SeriesAccumulator, "feed", "pipeline.series_feed")
    tracer.patch(pipeline, "ensemble_allan", "clockstats.allan")
    tracer.patch(
        langevin, "_integrate_block", "langevin",
        counts=lambda a, r: {"member_steps": int(r[1].shape[0]) * a[2].total_steps},
    )
    tracer.patch(readout.TickAccumulator, "feed", "readout.tick_feed")
    tracer.patch(readout, "detect_ticks", "readout.detect_ticks")
    tracer.patch(readout, "transduce", "readout.transduce")
    tracer.patch(clockstats, "autocorrelation", "clockstats.autocorrelation")
    tracer.patch(clockstats, "linewidth_fit", "clockstats.linewidth_fit")
    tracer.patch(clockstats, "fit_inverse_gaussian", "clockstats.wtd_fit")
    tracer.patch(clockstats, "allan_variance", "clockstats.allan")
    tracer.patch(tickinfo.Histogram, "from_samples", "tickinfo")
    for name in ("n_fold_convolution", "kl_divergence", "n_sum_samples",
                 "pairwise_mutual_information"):
        tracer.patch(tickinfo, name, "tickinfo")
    tracer.patch(svgplot, "line_plot", "svgplot")
    for stage in ("coeffs", "simulate", "ticks", "analyze"):
        tracer.patch(cli, f"stage_{stage}", f"cli.stage_{stage}")


def reduce(spans) -> tuple[dict, float]:
    """Per-layer busy times and counts, and the share of the timed call that
    the layer spans cover."""
    selfs = self_times(spans)
    keys: dict[int, str] = {}
    in_grid: dict[int, bool] = {}
    owner: dict[int, str | None] = {}
    busy = dict.fromkeys(BUSY, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    coverage = 0.0
    # spans are recorded in opening order, so a parent precedes its children
    for s in spans:
        parent = s.parent
        in_grid[s.id] = parent is not None and (
            in_grid[parent] or keys[parent] == "pipeline.default_grid"
        )
        if s.name == "transport.table":
            key = "transport.probe_table" if in_grid[s.id] else "transport.main_table"
        elif s.name == "transport.integrand":
            key = owner[parent] or "quadrature"
        else:
            key = s.name
        keys[s.id] = key
        owner[s.id] = key if key in TRANSPORT_OWNERS else (
            owner[parent] if parent is not None else None
        )
        if key == "timed":
            coverage = 1.0 - selfs[s.id] / (s.end - s.start)
        if key in ROOTS:
            continue
        busy[key] += selfs[s.id]
        c = s.counts or {}
        if s.name == "quadrature":
            counts["quadrature.calls"] += 1
            counts["quadrature.panels"] += c["panels"]
            counts["quadrature.evaluations"] += c["evaluations"]
        elif s.name == "transport.table":
            counts[f"{key}.nodes"] += c["nodes"]
        elif s.name == "transport.point":
            counts["transport.point.calls"] += 1
        elif s.name == "langevin":
            counts["langevin.member_steps"] += c["member_steps"]
        elif s.name == "pipeline.histogram_feed":
            counts["pipeline.samples_fed"] += c["samples"]
    metrics = {f"{k}.busy_s": v for k, v in busy.items()}
    metrics.update(counts)
    steps = counts["langevin.member_steps"]
    metrics["langevin.ns_per_member_step"] = (
        busy["langevin"] / steps * 1e9 if steps else 0.0
    )
    return metrics, coverage
