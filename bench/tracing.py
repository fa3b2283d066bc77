"""Outside-in layer tracing for the benchmark.

The benchmark wraps each layer's entry at the name its caller looks up (a
module global such as ``switchdiff.hybrid.make_grid``, or an attribute of a
model instance), so the program itself is not edited.  Each call records a
span (layer, start, end, parent) in compact arrays; counts are read from the
return values at the same boundary.  A name that no longer exists is
recorded as an absent layer instead of failing the run, and every wrapper is
removed when the tracer closes.

Self time of a span is its duration minus the durations of its direct
children; calls inside one span are sequential, so the children never
overlap.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PROBES = ("estimate_moment", "estimate_tau_tail", "feller_probe", "ctmc_oracle")

# Per-layer metric names and units, in report order.
METRICS = {
    "model.mark_displacement.calls": "count",
    "model.mark_displacement.total_s": "s",
    "model.mark_displacement.us_per_call": "us",
    "model.accept_ratio": "ratio",
    "hybrid.simulate.calls": "count",
    "hybrid.simulate.self_s": "s",
    "hybrid.simulate.ms_p50": "ms",
    "hybrid.simulate.ms_p99": "ms",
    "hybrid.steps_per_s": "1/s",
    "hybrid.escalations": "count",
    "hybrid.switches": "count",
    "integrate.make_grid.calls": "count",
    "integrate.make_grid.total_s": "s",
    "integrate.steps": "count",
    "integrate.increment_bytes": "bytes",
    "jumps.sample_stream.calls": "count",
    "jumps.sample_stream.total_s": "s",
    "jumps.events": "count",
    "jumps.extend_stream.calls": "count",
    "jumps.extend_stream.total_s": "s",
    "rng.substream.calls": "count",
    "rng.substream.total_s": "s",
    "probe.self_s": "s",
    "parallel.map_indices.wall_s": "s",
    "parallel.efficiency": "ratio",
    "certify.check_condition_poly.total_s": "s",
    "certify.sweep_self_s": "s",
    "certify.signed_beta_series.calls": "count",
    "certify.signed_beta_series.total_s": "s",
    "certify.beta_tail.calls": "count",
    "certify.beta_tail.total_s": "s",
    "certify.nodes": "count",
    "cli.run.total_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}

# Metrics that count work; they must repeat exactly for a fixed seed.
COUNTS = tuple(k for k, u in METRICS.items() if u in ("count", "bytes"))

_MISSING = object()


class Tracer:
    """Span recorder that installs and removes its own wrappers."""

    def __init__(self):
        self.names = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.absent = set()
        self._stack = [-1]
        self._undo = []

    def _layer_id(self, layer):
        if layer not in self.names:
            self.names.append(layer)
        return self.names.index(layer)

    def wrap(self, owner, attr, layer, on_return=None, on_call=None):
        """Replace owner.attr by a span-recording wrapper; absent names are noted."""
        orig = getattr(owner, attr, _MISSING)
        if orig is _MISSING:
            self.absent.add(layer)
            return
        if getattr(orig, "__traced_by__", None) is self:
            return
        lid = self._layer_id(layer)
        stack, spans_l, spans_p = self._stack, self.layer, self.parent
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            i = len(starts)
            spans_l.append(lid)
            spans_p.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = orig(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self.counts, out, args)
            return out

        wrapper.__traced_by__ = self
        own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, orig if own else _MISSING))
        setattr(owner, attr, wrapper)

    def close(self):
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def arrays(self):
        """(layer, parent, start, end, self_time) arrays over all spans."""
        lay = np.frombuffer(self.layer, dtype=np.intc).astype(np.int64)
        par = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        dur = end - start
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        return lay, par, start, end, dur - child

    def save(self, path):
        lay, par, start, end, _ = self.arrays()
        np.savez(path, layer_names=np.array(self.names), layer=lay, parent=par,
                 start=start, end=end)


# ---- counts read from return values -------------------------------------

def _count_mark(counts, out, args):
    counts["model.classified"] += 1
    counts["model.accepted"] += out != 0


def _count_grid(counts, grid, args):
    counts["integrate.steps"] += int(grid.steps.size)
    counts["integrate.increment_bytes"] += int(grid.increments.nbytes)


def _count_stream(counts, stream, args):
    counts["jumps.events"] += len(stream)


def _count_extension(counts, stream, args):
    counts["jumps.events"] += len(stream) - len(args[0])


def _count_path(counts, path, args):
    counts["hybrid.escalations"] += len(path.escalations)
    counts["hybrid.switches"] += len(path.switches)


def _count_nodes(counts, report, args):
    counts["certify.nodes"] += int(report.nodes)


def _count_files(counts, files, args):
    counts["cli.bytes_written"] += sum(os.path.getsize(f) for f in files)


def _wrap_beta_tail(tracer, args):
    tracer.wrap(args[0].rates, "beta_tail", "certify.beta_tail")


def instrument(tracer, workload):
    """Wrap every layer entry the workload's calls pass through."""
    from switchdiff import certify, cli, hybrid, probe
    tracer.wrap(hybrid, "substream", "rng.substream")
    tracer.wrap(hybrid, "sample_stream", "jumps.sample_stream", _count_stream)
    tracer.wrap(hybrid, "extend_stream", "jumps.extend_stream", _count_extension)
    tracer.wrap(hybrid, "make_grid", "integrate.make_grid", _count_grid)
    tracer.wrap(hybrid, "mark_displacement", "model.mark_displacement", _count_mark)
    tracer.wrap(probe, "simulate", "hybrid.simulate", _count_path)
    tracer.wrap(probe, "map_indices", "parallel.map_indices")
    tracer.wrap(certify, "signed_beta_series", "certify.signed_beta_series")
    tracer.wrap(cli, "run", "cli.run", _count_files)
    tracer.wrap(cli, "check_condition_poly", "certify.check_condition_poly",
                _count_nodes, on_call=_wrap_beta_tail)
    for name in PROBES:
        tracer.wrap(probe, name, "probe")
        tracer.wrap(cli, name, "probe")
    model = getattr(workload, "model", None)
    if model is not None:
        tracer.wrap(model.rates, "beta_tail", "certify.beta_tail")


def instrument_map_only(tracer):
    from switchdiff import probe
    tracer.wrap(probe, "map_indices", "parallel.map_indices")


def layer_total(tracer, layer):
    """Summed span duration of one layer (0 when it never ran)."""
    if layer not in tracer.names:
        return 0.0
    lay, _, start, end, _ = tracer.arrays()
    return float((end - start)[lay == tracer.names.index(layer)].sum())


def layer_metrics(tracer):
    """Per-layer metrics of one traced round: every name in METRICS but the
    parallel and overhead ones, which need other rounds.

    ``integrate.steps`` counts the grid steps drawn, including those after a
    stop that the path never took, and ``hybrid.steps_per_s`` divides them
    by the self time of ``simulate``."""
    lay, _, start, end, self_t = tracer.arrays()
    dur = end - start
    c = tracer.counts

    def sel(layer):
        if layer not in tracer.names:
            return np.zeros(lay.size, dtype=bool)
        return lay == tracer.names.index(layer)

    def calls(layer):
        return int(sel(layer).sum())

    def total(layer):
        return float(dur[sel(layer)].sum())

    sim = dur[sel("hybrid.simulate")]
    sim_self = float(self_t[sel("hybrid.simulate")].sum())
    md_calls, md_total = calls("model.mark_displacement"), total("model.mark_displacement")
    return {
        "model.mark_displacement.calls": md_calls,
        "model.mark_displacement.total_s": md_total,
        "model.mark_displacement.us_per_call": 1e6 * md_total / md_calls if md_calls else 0.0,
        "model.accept_ratio": c["model.accepted"] / c["model.classified"]
        if c["model.classified"] else 0.0,
        "hybrid.simulate.calls": int(sim.size),
        "hybrid.simulate.self_s": sim_self,
        "hybrid.simulate.ms_p50": 1e3 * float(np.percentile(sim, 50)) if sim.size else 0.0,
        "hybrid.simulate.ms_p99": 1e3 * float(np.percentile(sim, 99)) if sim.size else 0.0,
        "hybrid.steps_per_s": c["integrate.steps"] / sim_self if sim_self else 0.0,
        "hybrid.escalations": c["hybrid.escalations"],
        "hybrid.switches": c["hybrid.switches"],
        "integrate.make_grid.calls": calls("integrate.make_grid"),
        "integrate.make_grid.total_s": total("integrate.make_grid"),
        "integrate.steps": c["integrate.steps"],
        "integrate.increment_bytes": c["integrate.increment_bytes"],
        "jumps.sample_stream.calls": calls("jumps.sample_stream"),
        "jumps.sample_stream.total_s": total("jumps.sample_stream"),
        "jumps.events": c["jumps.events"],
        "jumps.extend_stream.calls": calls("jumps.extend_stream"),
        "jumps.extend_stream.total_s": total("jumps.extend_stream"),
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.total_s": total("rng.substream"),
        # reduction: probe spans minus the trajectories simulated inside them
        "probe.self_s": total("probe") - total("hybrid.simulate") if calls("probe") else 0.0,
        "certify.check_condition_poly.total_s": total("certify.check_condition_poly"),
        "certify.sweep_self_s": total("certify.check_condition_poly")
        - total("certify.signed_beta_series"),
        "certify.signed_beta_series.calls": calls("certify.signed_beta_series"),
        "certify.signed_beta_series.total_s": total("certify.signed_beta_series"),
        "certify.beta_tail.calls": calls("certify.beta_tail"),
        "certify.beta_tail.total_s": total("certify.beta_tail"),
        "certify.nodes": c["certify.nodes"],
        "cli.run.total_s": total("cli.run"),
        "cli.self_s": total("cli.run") - total("probe") - total("certify.check_condition_poly")
        if calls("cli.run") else 0.0,
        "cli.bytes_written": c["cli.bytes_written"],
    }
