"""switchdiff benchmark: one workload, one run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are defined in ``workloads.py`` and listed in
``BENCHMARK.json``.

A run first executes the workload's correctness body at seed 0 and its
``check`` size: its output digest must equal the one in ``reference.json``
and its output must pass the workload's gate.  It then runs the workload's
parts (chunks with distinct inputs made from the run's seed) in rounds
until ``--seconds`` have passed.  Every chunk must reproduce its part's
first digest and pass the workload's exact gates.  ``attempted``
counts the correctness body and the chunks; ``failed`` counts those that
raised, failed a gate or changed a digest.

``--trace 0`` reports the end-to-end metrics:

- ``work_per_s``: trajectories per second (certified grid nodes per second
  for ``certify_grid``): the work of one round over the sum of each part's
  median chunk time, every chunk time first scaled to the reference host
  speed by ``HostClock``.  Other tenants of a shared 2-core Xeon VM slow
  everything on it by up to 1.7 times, in phases lasting from under a
  second to minutes, so over ten runs the unscaled round times spread up to
  45% (interquartile range over median) and the fastest chunks up to 26%;
  the scaled medians spread under 7%.  The unscaled chunk times and the host speed of each
  are kept in the result file.
- ``setup_s``: the median of 11 fresh interpreters' ``import switchdiff``
  plus building the model (and parsing the config, for CLI workloads), each
  scaled to the reference host speed by an ``import`` kernel timed on either
  side of it.  The set-ups run between rounds, so they spread over the run's
  phases and count within ``--seconds``.
- ``peak_rss_mb``: peak resident memory of this process plus its largest
  forked worker (``getrusage`` SELF and CHILDREN).  The workers' peak is read
  after the warm-up round, before any set-up interpreter has run; later
  rounds repeat the same inputs and must reproduce the same digests.

``--trace 1`` runs rounds serially, alternating untraced rounds with rounds
traced from the outside (``tracing.py``), and reports the per-layer metrics
of the fastest traced round.  Work counts must repeat exactly across traced
rounds.  For a multi-worker workload it also times the fan-out alone at one
and at the workload's worker count.

Each run prints every metric with its unit and sample count, writes a result
file with the run facts (CPU, load, versions, commit, seed, workers) under
``bench/_out/results/`` and prints the result as one JSON line last.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
WORK = os.path.join(OUT, "work")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 11
# each calibrate() kernel's typical seconds on a 2-core Xeon VM
CAL_REF_S = {"loop": 0.03, "vector": 0.03, "import": 0.07}

import workloads  # noqa: E402

E2E_UNITS = {"work_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---- run facts -------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit():
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(os.path.join(git, ref)).strip()
    if not sha:
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or "unknown"


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def run_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit()}


def _loadavg():
    return _read("/proc/loadavg").strip()


# ---- chunks ----------------------------------------------------------------

# Imports a fresh interpreter makes for the ``import`` calibration kernel:
# standard library only, none of them loaded at start-up.
CAL_IMPORT = ("import time; t0 = time.perf_counter(); "
              "import asyncio, ctypes, decimal, email.parser, http.client, sqlite3, "
              "unittest, xml.dom.minidom; print(repr(time.perf_counter() - t0))")


def calibrate(kind):
    """Seconds of a fixed kernel that uses no switchdiff code.

    Host interference slows kinds of code by different factors, so each
    measurement is scaled by a kernel of its own kind.  ``loop`` is a Python
    loop making small numpy calls on a random generator, as in the Monte
    Carlo workloads; ``vector`` is elementwise powers over arrays of a few
    thousand floats, as in the certificate sweep; ``import`` is a fresh
    interpreter importing standard modules, as in a set-up.  Over one minute
    on a 2-core Xeon VM, the log of the ``vector`` kernel's time moved 0.74
    times as much as that of the ``loop`` kernel's, and set-up times
    correlated 0.70 with the ``import`` kernel but 0.34 with ``loop``.
    """
    if kind == "import":
        return float(subprocess.run([sys.executable, "-c", CAL_IMPORT], check=True,
                                    capture_output=True, text=True, timeout=60).stdout)
    import numpy as np
    t0 = time.perf_counter()
    if kind == "loop":
        rng = np.random.default_rng(12345)
        x, acc = np.zeros(4), 0.0
        for i in range(7000):
            x[:2] += 0.01 * rng.standard_normal(2)
            acc += float(x[0]) + (i % 7)
    else:
        js = np.arange(1.0, 3000.0)
        for i in range(1000):
            out = np.zeros(js.shape)
            ok = js != i
            out[ok] = np.abs(js[ok] - i) ** -3.0
    return time.perf_counter() - t0


class HostClock:
    """Scales measured seconds to the reference host speed.

    Other tenants of a shared host slow everything on it by up to 1.7 times,
    in phases lasting from under a second to minutes; a run can fall wholly
    inside a slow one.  ``start()`` times ``calibrate()`` before a
    measurement and ``scaled()`` times it again after, multiplying the
    measurement by ``CAL_REF_S`` over the mean of the two, so a slow phase
    slows both and cancels; the calibration after one measurement is the one
    before the next.  ``calibrate`` runs no switchdiff code, so a change to
    the program moves the scaled time as much as the raw one.
    """

    def __init__(self, kind):
        self.kind = kind
        self.last = None
        self.raw, self.speed = [], []

    def start(self):
        self.last = calibrate(self.kind)

    def scaled(self, seconds):
        """``seconds`` just measured, at the reference host speed."""
        now = calibrate(self.kind)
        speed = CAL_REF_S[self.kind] / (0.5 * (self.last + now))
        self.last = now
        self.raw.append(seconds)
        self.speed.append(speed)
        return seconds * speed


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, wl, expect_digest=None, **kw):
        """Run one chunk; returns the Chunk, or None if it raised."""
        self.attempted += 1
        try:
            chunk = wl.run(**kw)
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            return None
        problems = list(chunk.failures)
        if expect_digest is not None and chunk.digest != expect_digest:
            problems.append(f"digest {chunk.digest} != expected {expect_digest}")
        if problems:
            self.failures.append("; ".join(problems))
        return chunk


def _reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def correctness_body(name, ledger):
    """The seed-0 check-size body: reference digest plus the full gate."""
    wl = workloads.setup(name, workloads.WORKLOADS[name].inputs(0, WORK, "check"))
    ledger.run(wl, expect_digest=_reference()[name])


def setup_sample(name, seed):
    """Seconds of one cold set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "setup_once.py"), name, str(seed)]
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                timeout=120).stdout.split()[-1])


class Cycle:
    """One pass over a run's parts; each part must keep its first digest."""

    def __init__(self, parts):
        self.parts = parts
        self.digests = [None] * len(parts)
        self.units = [0] * len(parts)

    def run(self, ledger, threads=None, clock=None):
        """Run every part once; returns the seconds each took, scaled by ``clock``."""
        times = []
        for i, wl in enumerate(self.parts):
            t0 = time.perf_counter()
            chunk = ledger.run(wl, expect_digest=self.digests[i], threads=threads)
            dt = time.perf_counter() - t0
            times.append(clock.scaled(dt) if clock else dt)
            if chunk is not None:
                self.digests[i] = self.digests[i] or chunk.digest
                self.units[i] = chunk.units
        return times


def repeat(seconds, step, min_rounds=2):
    """Call step() in rounds until another round would overrun ``seconds``."""
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        rounds += 1


def fastest_sum(rounds):
    """Sum over a run's parts of each part's fastest chunk time."""
    return sum(min(times) for times in zip(*rounds))


def median_sum(rounds):
    """Sum over a run's parts of each part's median chunk time."""
    return sum(statistics.median(times) for times in zip(*rounds))


def end_to_end(name, seed, seconds, ledger, extra):
    correctness_body(name, ledger)
    start = time.perf_counter()
    cycle = Cycle(workloads.setup_parts(name, seed, WORK))
    cycle.run(ledger)  # warm-up; fixes each part's digest
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    clock = HostClock(workloads.WORKLOADS[name].host_kernel)
    setup_clock = HostClock("import")
    rounds, setups = [], []

    def setup():
        setup_clock.start()
        setups.append(setup_clock.scaled(setup_sample(name, seed)))

    def step():
        clock.start()
        rounds.append(cycle.run(ledger, clock=clock))
        if len(setups) < SETUP_SAMPLES:
            setup()

    repeat(seconds - (time.perf_counter() - start), step, min_rounds=2)
    while len(setups) < SETUP_SAMPLES:
        setup()
    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    units = sum(cycle.units)
    extra.update(scaled_chunk_seconds=rounds, chunk_units=cycle.units, digests=cycle.digests,
                 raw_chunk_seconds=clock.raw, host_speed=clock.speed,
                 scaled_setup_seconds=setups, raw_setup_seconds=setup_clock.raw,
                 setup_host_speed=setup_clock.speed, workers=cycle.parts[0].threads)
    return {
        "work_per_s": (units / median_sum(rounds), len(rounds) * len(cycle.parts)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": ((self_ru + kids_ru) / 1024.0, 1),
    }


def traced(name, seed, seconds, ledger, extra):
    import tracing
    correctness_body(name, ledger)
    cycle = Cycle(workloads.setup_parts(name, seed, WORK))
    workers = cycle.parts[0].threads
    plain, runs, par = [], [], {1: [], workers: []}

    def step():
        plain.append(cycle.run(ledger, threads=1))
        with tracing.Tracer() as tr:
            for wl in cycle.parts:
                tracing.instrument(tr, wl)
            times = cycle.run(ledger, threads=1)
        runs.append((times, tracing.layer_metrics(tr), tr))
        if workers > 1:
            for th in par:
                with tracing.Tracer() as tr_map:
                    tracing.instrument_map_only(tr_map)
                    cycle.run(ledger, threads=th)
                par[th].append(tracing.layer_total(tr_map, "parallel.map_indices"))

    cycle.run(ledger, threads=1)  # warm-up; fixes each part's digest
    repeat(seconds, step)
    counts = {tuple(m[k] for k in tracing.COUNTS) for _, m, _ in runs}
    ledger.attempted += 1
    if len(counts) != 1:
        ledger.failures.append(f"traced work counts differ between rounds: {sorted(counts)}")
    _, metrics, tr = min(runs, key=lambda r: sum(r[0]))
    metrics["trace.overhead_frac"] = fastest_sum(r[0] for r in runs) / fastest_sum(plain) - 1.0
    if workers > 1:
        wall = min(par[workers])
        metrics["parallel.map_indices.wall_s"] = wall
        metrics["parallel.efficiency"] = min(par[1]) / (workers * wall)
    else:
        metrics["parallel.map_indices.wall_s"] = 0.0
        metrics["parallel.efficiency"] = 0.0
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    spans = os.path.join(OUT, "results", f"{name}-seed{seed}-spans.npz")
    tr.save(spans)
    extra.update(traced_chunk_seconds=[r[0] for r in runs], untraced_chunk_seconds=plain,
                 absent_layers=sorted(tr.absent), spans_file=os.path.relpath(spans, ROOT),
                 parallel_map_seconds={str(k): v for k, v in par.items()},
                 digests=cycle.digests, workers=workers)
    samples = {"trace.overhead_frac": len(runs) + len(plain),
               "parallel.map_indices.wall_s": len(par[workers]) if workers > 1 else 0,
               "parallel.efficiency": len(par[1]) + len(par[workers]) if workers > 1 else 0}
    return {k: (metrics[k], samples.get(k, len(runs))) for k in tracing.METRICS}


def record_reference():
    """Write reference.json: the seed-0 check-size digest of every workload."""
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        chunk = workloads.setup(name, cls.inputs(0, WORK, "check")).run()
        if chunk.failures:
            raise SystemExit(f"{name}: gate failed, not recording: {chunk.failures}")
        ref[name] = chunk.digest
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    print(json.dumps(ref, indent=2))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "switchdiff", "__init__.py")):
        print(f"bench: no switchdiff sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_reference:
        record_reference()
        return 0
    if not args.workload:
        ap.error("--workload is required")

    load_before = _loadavg()
    ledger, extra = Ledger(), {}
    if args.trace:
        import tracing
        metrics = traced(args.workload, args.seed, args.seconds, ledger, extra)
        units = tracing.METRICS
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, ledger, extra)
        units = E2E_UNITS

    for key, (value, samples) in metrics.items():
        print(f"{key:40s} {value:>16.6g} {units[key]:8s} samples={samples}")
    for reason in ledger.failures:
        print(f"FAILED: {reason}")
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()}}
    facts = dict(run_facts(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace,
                 loadavg_before=load_before, loadavg_after=_loadavg())
    record = dict(result, facts=facts, samples={k: s for k, (_, s) in metrics.items()},
                  failures=ledger.failures, **extra)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
