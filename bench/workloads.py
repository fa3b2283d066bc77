"""The four benchmark workloads.

A workload turns a benchmark seed into inputs (``inputs``), builds the model
and configuration from them (the constructor: this is the set-up that
``setup_s`` times) and runs one chunk of work through a public entry point
(``run``).  A chunk returns the work it completed, a SHA-256 digest of its
numeric output and the gate failures it found.

A run's work is ``parts`` chunks with distinct inputs, all made from the
run's seed and timed over and over in turn.  Chunks are short because host
interference on a shared machine comes in phases, and the host speed timed
on either side of a short chunk is close to the speed it ran at.  There are
several because the cost of a trajectory depends on its random numbers, so a
run needs many distinct trajectories for its total work to vary little from
seed to seed.

Sizes: ``chunk`` is the timed size.  ``check`` is the size of the
once-per-run correctness body at seed 0, part 0 (the acceptance-test seed);
its digest must equal the one in ``reference.json`` and its output must pass
the workload's statistical gate.  ``tiny`` is for the benchmark's own tests.

Only the standard library is imported at module level, so that a set-up
timed in a fresh interpreter pays for numpy and scipy itself.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import random
import re
from dataclasses import dataclass, field
from typing import List


@dataclass
class Chunk:
    units: int                      # trajectories, or certified grid nodes
    digest: str
    failures: List[str] = field(default_factory=list)


def _canon(v):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return repr(float(v))
    return str(v)


def report_digest(rows):
    """SHA-256 over probe report rows, floats written with every digit."""
    text = "\n".join(",".join(_canon(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class _Workload:
    name = ""
    default_seed = 0
    threads = 1
    parts = 4
    sizes = {}
    host_kernel = "loop"            # run.calibrate's kernel of the same kind

    @classmethod
    def program_seed(cls, seed, part):
        # seeds feed numpy's SeedSequence, which takes nonnegative integers
        return cls.default_seed + cls.parts * (int(seed) % (1 << 31)) + int(part)

    @classmethod
    def inputs(cls, seed, work_dir, size="chunk", part=0):
        """Everything the program receives, made from the benchmark seed only."""
        raise NotImplementedError

    def run(self, threads=None):
        raise NotImplementedError


class PowerlawTail(_Workload):
    """estimate_tau_tail on powerlaw: switching-heavy (stream extension, escalation).

    The Monte Carlo seeds are fixed: the acceptance seed and the seven after
    it.  A path that escalates to level 64 classifies marks against a cutoff
    about 50 times the level-8 one, so a few such paths set a chunk's cost:
    with Monte Carlo seeds drawn from the run's seed, ``work_per_s`` spread
    31% (interquartile range over median) across five seeds.  The run's seed
    sets the certificate's growth constant instead, which changes every
    reported bound but none of the simulation work.
    """

    name = "powerlaw_tail"
    default_seed = 505
    levels = (8, 16, 32, 64)
    n_starts = 5
    parts = 8
    sizes = {"chunk": 8, "check": 64, "tiny": 2}

    @classmethod
    def program_seed(cls, seed, part):
        return cls.default_seed + int(part)

    @classmethod
    def inputs(cls, seed, work_dir, size="chunk", part=0):
        return {"seed": cls.program_seed(seed, part), "n": cls.sizes[size], "size": size,
                "growth": 3.0 + (int(seed) % 100) / 100.0}

    def __init__(self, inputs):
        import switchdiff
        self.inp = inputs
        self.model = switchdiff.make_model("powerlaw", gamma=3.0, p=1.0,
                                           theta=1.0, sigma=1.0)
        self.cert = switchdiff.PolynomialCertificate(p=1.0, beta=1.0,
                                                     growth=inputs["growth"])
        self.cfg = switchdiff.SimConfig(stop_level=self.levels[0],
                                        max_stop_level=self.levels[-1],
                                        seed=inputs["seed"], dt_target=0.01)

    def run(self, threads=None):
        from switchdiff import probe
        n = self.inp["n"]
        rep = probe.estimate_tau_tail(self.model, [1.0], 1, 1.0, list(self.levels),
                                      0.1, n, self.cfg, cert=self.cert,
                                      n_starts=self.n_starts,
                                      threads=threads or self.threads)
        sups = [rep.value(f"tail_sup[M={m}]") for m in self.levels]
        fails = []
        if not all(b <= a for a, b in zip(sups, sups[1:])):
            fails.append(f"tail_sup not nonincreasing in M: {sups}")
        if self.inp["size"] == "check" and not sups[-1] < 1e-2:
            fails.append(f"tail_sup[M=64] = {sups[-1]} not below 1e-2")
        return Chunk(n * self.n_starts, report_digest(rep.rows()), fails)


def _indicator_positive(x, j):
    return float(x[0] > 0)


class OuFeller(_Workload):
    """feller_probe on ou2: diffusion-heavy, about 100 Euler steps per path."""

    name = "ou_feller"
    default_seed = 808
    offsets = (0.0, 0.05, 0.5)
    sizes = {"chunk": 40, "check": 250, "tiny": 8}

    @classmethod
    def inputs(cls, seed, work_dir, size="chunk", part=0):
        return {"seed": cls.program_seed(seed, part), "n": cls.sizes[size], "size": size}

    def __init__(self, inputs):
        import switchdiff
        self.inp = inputs
        self.model = switchdiff.make_model("ou2")
        self.cfg = switchdiff.SimConfig(stop_level=16, max_stop_level=1 << 20,
                                        seed=inputs["seed"], dt_target=0.01)

    def run(self, threads=None):
        from switchdiff import probe
        n = self.inp["n"]
        rep = probe.feller_probe(self.model, _indicator_positive, 1.0, [0.0], 1,
                                 list(self.offsets), n, self.cfg, couple=True,
                                 threads=threads or self.threads)
        fails = []
        if rep.value("diff[delta=0]") != 0.0:
            fails.append(f"coupled diff at delta=0 is {rep.value('diff[delta=0]')}, not 0")
        small, large = rep.value("diff[delta=0.05]"), rep.value("diff[delta=0.5]")
        if self.inp["size"] == "check" and not small <= 0.2 * large:
            fails.append(f"diff[0.05] = {small} above 0.2 * diff[0.5] = {0.2 * large}")
        return Chunk(n * (1 + len(self.offsets)), report_digest(rep.rows()), fails)


class _CliWorkload(_Workload):
    """A workload driven through ``switchdiff.cli.main`` on a written config."""

    @classmethod
    def _write_config(cls, work_dir, seed, size, part, lines):
        os.makedirs(work_dir, exist_ok=True)
        tag = f"{cls.name}-seed{seed}-{size}-part{part}"
        path = os.path.join(work_dir, tag + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(f"{k} = {v}" for k, v in lines) + "\n")
        return {"config": path, "out": os.path.join(work_dir, tag), "size": size}

    def __init__(self, inputs):
        from switchdiff import cli, make_model, models
        self.inp = inputs
        self.cfg = cli.parse_config(inputs["config"])
        schema = models.model_params(self.cfg["model"])
        params = {k[len("model."):]: schema[k[len("model."):]](v)
                  for k, v in self.cfg.items() if k.startswith("model.")}
        self.model = make_model(self.cfg["model"], **params)

    def _cli(self, threads):
        from switchdiff import cli
        argv = ["--config", self.inp["config"], "--out", self.inp["out"],
                "--threads", str(threads or self.threads)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"switchdiff cli exited with code {code}")
        with open(self.inp["out"] + "_report.csv", "rb") as fh:
            data = fh.read()
        # line 0 is the CSV schema comment, line 1 the header
        return hashlib.sha256(data).hexdigest(), data.decode().splitlines()[1:]


class CtmcOracle(_CliWorkload):
    """CLI oracle on ctmcN: per-trajectory fixed cost, forked workers, CSV output."""

    name = "ctmc_oracle"
    default_seed = 31337
    threads = 2
    times = (0.5, 1.0, 2.0)
    j_trunc = 5
    sizes = {"chunk": 300, "check": 1000, "tiny": 40}

    @classmethod
    def inputs(cls, seed, work_dir, size="chunk", part=0):
        return cls._write_config(work_dir, seed, size, part, [
            ("command", "oracle"), ("model", "ctmcN"), ("model.n_regimes", 5),
            ("model.scale", 1.0), ("model.horizon", 2.0), ("i0", 2),
            ("times", ",".join(repr(t) for t in cls.times)),
            ("j_trunc", cls.j_trunc), ("n", cls.sizes[size]),
            ("sim.dt_target", 2.0), ("seed", cls.program_seed(seed, part))])

    def run(self, threads=None):
        from scipy.stats import chi2 as chi2_law
        digest, lines = self._cli(threads)
        n = int(self.cfg["n"])
        by_t = {}
        # the parameters column holds unquoted commas; the last five do not
        for head, label, est, _hw, _n, _diag in (ln.rsplit(",", 5) for ln in lines[1:]):
            t = float(re.search(r"(?:^|;)t=([^;]+)", head).group(1))
            by_t.setdefault(t, {})[label] = float(est)
        fails = []
        if sorted(by_t) != sorted(self.times):
            fails.append(f"report times {sorted(by_t)} != {sorted(self.times)}")
        for t, v in sorted(by_t.items()):
            p = [v[f"p_exact[{j}]"] for j in range(1, self.j_trunc + 1)]
            # 5 standard errors per regime: a tolerance sized to n that a
            # correct sampler exceeds with negligible probability
            tol = 0.5 * sum(5.0 * (q * (1.0 - q) / n) ** 0.5 for q in p)
            if not v["tv"] <= tol:
                fails.append(f"t={t}: TV {v['tv']} above {tol}")
            df = max(int(v["chi2_bins"]) - 1, 1)
            if not chi2_law.sf(v["chi2"], df) > 1e-6:
                fails.append(f"t={t}: chi-square {v['chi2']} on {df} df rejects the expm law")
        return Chunk(n * len(self.times), digest, fails)


class CertifyGrid(_CliWorkload):
    """CLI certify on powerlaw: the certificate sweep, used by no other workload."""

    name = "certify_grid"
    host_kernel = "vector"
    times = (0.0, 0.5, 1.0)
    # (radii, regimes) per size: 21 radii (41 radius points) as in the CLI
    # default, with 16 regimes where the default has 12, so 1,968 nodes
    parts = 2
    sizes = {"chunk": (21, 16), "check": (21, 16), "tiny": (3, 3)}

    @classmethod
    def inputs(cls, seed, work_dir, size="chunk", part=0):
        n_radii, regimes = cls.sizes[size]
        # the checker draws no random numbers: the seed moves the grid's radius
        rng = random.Random(cls.program_seed(seed, part))
        return cls._write_config(work_dir, seed, size, part, [
            ("command", "certify"), ("model", "powerlaw"), ("cert.kind", "poly"),
            ("cert.p", 1.0), ("cert.beta", 1.0), ("cert.growth", 3.0),
            ("grid.radius", round(rng.uniform(9.0, 11.0), 6)),
            ("grid.n_radii", n_radii), ("grid.regimes", regimes),
            ("grid.times", ",".join(repr(t) for t in cls.times)),
            ("seed", cls.program_seed(seed, part))])

    def run(self, threads=None):
        digest, lines = self._cli(threads)
        rows = list(csv.reader(lines))
        expected = (1 + 2 * (int(self.cfg["grid.n_radii"]) - 1)) \
            * int(self.cfg["grid.regimes"]) * len(self.times)
        rec = dict(zip(rows[0], rows[1]))
        fails = []
        if rec["certified"] != "True":
            fails.append(f"grid not certified: margin {rec['margin']}")
        if int(rec["nodes"]) != expected:
            fails.append(f"{rec['nodes']} nodes evaluated, expected {expected}")
        return Chunk(int(rec["nodes"]), digest, fails)


WORKLOADS = {w.name: w for w in (PowerlawTail, OuFeller, CtmcOracle, CertifyGrid)}


def setup(name, inputs):
    """Build the workload from its inputs: the set-up that ``setup_s`` times."""
    return WORKLOADS[name](inputs)


def setup_parts(name, seed, work_dir, size="chunk"):
    """Build every part of a run's work."""
    cls = WORKLOADS[name]
    return [setup(name, cls.inputs(seed, work_dir, size, part)) for part in range(cls.parts)]
