"""Command-line front end.

Runs are described by a flat key=value config file (comments with '#');
unknown keys are rejected so a config cannot silently drift.  The command
itself is a config key.  Every run writes CSV outputs plus a metadata
record holding the fully resolved configuration, the library version and
the seed, which suffices to reproduce the run exactly.  The seed is
mandatory: there is no wall-clock default.

Exit codes: 0 success, 1 runtime error, 2 config error, 3 model error.
"""

from __future__ import annotations

import argparse
import os
import sys
import numpy as np

from . import __version__
from .certify import (ExponentialCertificate, PolynomialCertificate,
                      check_condition_exp, check_condition_poly, default_grid)
from .errors import ConfigError, SwitchDiffError, TailUnresolvable
from .hybrid import SimConfig, simulate
from .models import list_models, make_model, model_params
from .probe import (ctmc_oracle, estimate_moment, estimate_tau_tail,
                    feller_probe, run_ensemble)

CSV_SCHEMA = "# switchdiff-csv v1"
PROBE_HEADER = ["probe", "parameters", "label", "estimate", "half_width", "n",
                "diagnostics"]


def _floats(s):
    return [float(v) for v in str(s).split(",") if v != ""]


def _ints(s):
    return [int(v) for v in str(s).split(",") if v != ""]


def _bool(s):
    v = str(s).strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _cutoff(s):
    return "auto" if str(s).strip() == "auto" else float(s)


# Every documented configuration key with its caster.  model.* keys are
# validated against the chosen model's schema separately.
KNOWN_KEYS = {
    "command": str,
    "model": str,
    "seed": int,
    "out": str,
    "threads": int,
    "x0": _floats,
    "i0": int,
    "n": int,
    "t": float,
    "times": _floats,
    "m_list": _ints,
    "delta": float,
    "offsets": _floats,
    "j_trunc": int,
    "couple": _bool,
    "f": str,
    "record": str,
    "sim.stop_level": int,
    "sim.max_stop_level": int,
    "sim.dt_target": float,
    "sim.horizon": float,
    "sim.mark_cutoff": _cutoff,
    "sim.stream_rate": _cutoff,
    "cert.kind": str,
    "cert.p": float,
    "cert.beta": float,
    "cert.growth": float,
    "cert.alpha": float,
    "cert.c": float,
    "grid.radius": float,
    "grid.n_radii": int,
    "grid.regimes": int,
    "grid.times": _floats,
}

TEST_FUNCTIONS = {
    "indicator_positive": lambda x, j: 1.0 if x[0] > 0 else 0.0,
    "one": lambda x, j: 1.0,
}


class _Exit(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def parse_config(path):
    """Parse a flat key=value file; reject unknown or malformed keys."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _Exit(2, f"cannot read config: {exc}")
    for ln, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise _Exit(2, f"config line {ln}: expected key=value")
        key, val = (part.strip() for part in body.split("=", 1))
        if key in raw:
            raise _Exit(2, f"config line {ln}: duplicate key {key!r}")
        if key.startswith("model."):
            raw[key] = val
            continue
        if key not in KNOWN_KEYS:
            raise _Exit(2, f"config line {ln}: unknown key {key!r}")
        try:
            raw[key] = KNOWN_KEYS[key](val)
        except ValueError as exc:
            raise _Exit(2, f"config line {ln}: bad value for {key!r}: {exc}")
    return raw


def _section(cfg, name):
    """The config keys under ``name.``, without the prefix."""
    return {k[len(name) + 1:]: v for k, v in cfg.items() if k.startswith(name + ".")}


def _resolve_model(cfg):
    name = cfg.get("model")
    if not name:
        raise _Exit(2, "config must name a model")
    params = _section(cfg, "model")
    try:
        model = make_model(name, **params)
    except KeyError as exc:
        raise _Exit(3, exc.args[0])
    except ValueError as exc:
        raise _Exit(3, f"model construction failed: {exc}")
    schema = model_params(name)
    return name, {k: schema[k](v) for k, v in params.items()}, model


def _sim_config(cfg):
    sim = _section(cfg, "sim")
    sim.setdefault("stop_level", 16)
    sim.setdefault("max_stop_level", 64 * sim["stop_level"])
    return SimConfig(seed=cfg["seed"], **sim)


def _certificate(cfg, model):
    kind = cfg.get("cert.kind", "poly")
    if kind == "poly":
        return PolynomialCertificate(p=cfg.get("cert.p", 1.0),
                                     beta=cfg.get("cert.beta", 1.0),
                                     growth=cfg.get("cert.growth", 1.0))
    if kind == "exp":
        return ExponentialCertificate(alpha=cfg.get("cert.alpha", 1.0),
                                      c=cfg.get("cert.c", 1.0),
                                      beta=cfg.get("cert.beta", 1.0),
                                      horizon=cfg.get("sim.horizon", model.horizon))
    raise _Exit(2, f"cert.kind must be poly or exp, got {kind!r}")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_SCHEMA + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_meta(prefix, cfg, model_name, model_par, threads, extra):
    path = prefix + "_meta.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"switchdiff {__version__}\n")
        fh.write(f"seed = {cfg['seed']}\n")
        fh.write(f"threads = {threads}\n")
        fh.write(f"model = {model_name}\n")
        for k in sorted(model_par):
            fh.write(f"model.{k} = {_fmt(model_par[k])}\n")
        for k in sorted(cfg):
            if k != "model" and not k.startswith("model."):
                fh.write(f"{k} = {_fmt(cfg[k])}\n")
        for line in extra:
            fh.write(line + "\n")
    return path


# Each handler is called as handler(cfg, model, sim, x0, i0, threads,
# dump_stream) and returns ({file suffix: (CSV header, rows)}, meta lines).

def _cmd_simulate(cfg, model, sim, x0, i0, threads, dump_stream):
    path = simulate(model, x0, i0, sim, record=cfg.get("record", "nodes"))
    st = path.status
    status = [st.kind] + [f"{k}={v!r}" for k, v in (("tau", st.tau), ("level", st.level))
                          if v is not None]
    tables = {
        "path": (["t"] + [f"x_{c+1}" for c in range(model.dim)] + ["lambda"],
                 [[t, *x, lam] for t, x, lam in zip(path.times, path.states, path.regimes)]),
        "switches": (["t", "from", "to", "z"], path.switches),
    }
    if dump_stream:
        tables["stream"] = (["time", "mark"], zip(path.stream.times, path.stream.marks))
    return tables, [f"status = {' '.join(status)}", f"escalations = {path.escalations!r}",
                    f"cutoffs = {path.cutoffs!r}"]


def _cmd_ensemble(cfg, model, sim, x0, i0, threads, _):
    ens = run_ensemble(model, x0, i0, sim, cfg.get("n", 100), threads=threads)
    tau = np.where(np.isnan(ens["tau"]), -1.0, ens["tau"])
    rows = [[k, ens["kind"][k], tau[k], ens["t_end"][k]] + list(ens["x_end"][k])
            + [ens["lam_end"][k], ens["switches"][k]] for k in range(tau.size)]
    return {"report": (["traj", "status", "tau", "t_end"] +
                       [f"x_{c+1}" for c in range(model.dim)] + ["lambda", "switches"],
                       rows)}, []


def _cmd_certify(cfg, model, *_):
    cert = _certificate(cfg, model)
    grid = default_grid(model.dim, **_section(cfg, "grid"))
    if isinstance(cert, PolynomialCertificate):
        report = check_condition_poly(model, cert, grid)
    else:
        report = check_condition_exp(model, cert, grid)
    # the series work goes to _meta.txt only, so _report.csv holds the verdict alone
    meta = [report.summary(), f"series = {report.series}", f"columns = {report.columns}",
            f"max_half_width = {report.max_half_width!r}"]
    return {"report": (["kind", "certified", "margin", "worst_y", "worst_j", "worst_t",
                        "tails_certified", "sigma_integral", "nodes"],
                       [[report.kind, report.certified, report.margin,
                         "|".join(repr(float(v)) for v in np.atleast_1d(report.worst[0])),
                         report.worst[1], report.worst[2], report.tails_certified,
                         report.sigma_integral, report.nodes]])}, meta


def _cmd_moments(cfg, model, sim, x0, i0, threads, _):
    cert = _certificate(cfg, model)
    if not isinstance(cert, PolynomialCertificate):
        raise _Exit(2, "moments requires cert.kind=poly")
    report = estimate_moment(model, cert, x0, i0, cfg.get("t", 1.0),
                             cfg.get("n", 1000), sim, threads=threads)
    return {"report": (PROBE_HEADER, report.rows())}, []


def _cmd_tau_tail(cfg, model, sim, x0, i0, threads, _):
    cert = _certificate(cfg, model) if "cert.kind" in cfg else None
    report = estimate_tau_tail(model, x0, i0, cfg.get("t", 1.0),
                               cfg.get("m_list", [8, 16, 32, 64]),
                               cfg.get("delta", 0.1), cfg.get("n", 1000), sim,
                               cert=cert, threads=threads)
    return {"report": (PROBE_HEADER, report.rows())}, []


def _cmd_feller(cfg, model, sim, x0, i0, threads, _):
    fname = cfg.get("f", "indicator_positive")
    if fname not in TEST_FUNCTIONS:
        raise _Exit(2, f"unknown test function {fname!r}; "
                       f"choose from {sorted(TEST_FUNCTIONS)}")
    report = feller_probe(model, TEST_FUNCTIONS[fname], cfg.get("t", 1.0), x0, i0,
                          cfg.get("offsets", [0.05, 0.5]), cfg.get("n", 1000), sim,
                          couple=cfg.get("couple", True), threads=threads)
    return {"report": (PROBE_HEADER, report.rows())}, []


def _cmd_oracle(cfg, model, sim, x0, i0, threads, _):
    times = cfg.get("times", [cfg.get("t", 1.0)])
    if not times:
        raise ConfigError("times must name at least one time")
    rows = []
    for t in times:
        rows.extend(ctmc_oracle(model, i0, t, cfg.get("j_trunc", 8), cfg.get("n", 10000),
                                sim, x0=x0, threads=threads).rows())
    return {"report": (PROBE_HEADER, rows)}, []


COMMANDS = {
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "certify": _cmd_certify,
    "moments": _cmd_moments,
    "tau-tail": _cmd_tau_tail,
    "feller": _cmd_feller,
    "oracle": _cmd_oracle,
}


def run(config_path, seed=None, out=None, threads=None, dump_stream=False):
    """Execute the command named in the config file; returns written files."""
    cfg = parse_config(config_path)
    command = cfg.get("command")
    if command not in COMMANDS:
        raise _Exit(2, f"command must be one of {tuple(COMMANDS)}, got {command!r}")
    if seed is not None:
        cfg["seed"] = int(seed)
    if "seed" not in cfg:
        raise _Exit(2, "seed is mandatory (config key 'seed' or --seed)")
    if out is not None:
        cfg["out"] = out
    prefix = cfg.get("out", "run")
    if threads is not None:
        cfg["threads"] = int(threads)
    n_threads = cfg.get("threads", os.cpu_count() or 1)

    name, params, model = _resolve_model(cfg)
    x0 = np.asarray(cfg.get("x0", [0.0] * model.dim), dtype=float)
    tables, extra = COMMANDS[command](cfg, model, _sim_config(cfg), x0, cfg.get("i0", 1),
                                      n_threads, dump_stream)
    os.makedirs(os.path.dirname(os.path.abspath(prefix)), exist_ok=True)
    files = []
    for suffix, (header, rows) in tables.items():
        files.append(f"{prefix}_{suffix}.csv")
        _write_csv(files[-1], header, rows)
    files.append(_write_meta(prefix, cfg, name, params, n_threads, extra))
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="switchdiff",
        description="Simulate and certify state-dependent regime-switching diffusions.")
    parser.add_argument("--config", help="flat key=value run description")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", help="output path prefix")
    parser.add_argument("--threads", type=int, help="parallel trajectory workers")
    parser.add_argument("--dump-stream", action="store_true",
                        help="also write the master jump stream as CSV")
    parser.add_argument("--list-models", action="store_true",
                        help="print the built-in model registry and exit")
    args = parser.parse_args(argv)

    if args.list_models:
        print(list_models())
        return 0
    if not args.config:
        parser.print_usage(sys.stderr)
        print("switchdiff: --config is required (or --list-models)", file=sys.stderr)
        return 2
    try:
        files = run(args.config, seed=args.seed, out=args.out,
                    threads=args.threads, dump_stream=args.dump_stream)
    except _Exit as exc:
        print(f"switchdiff: {exc}", file=sys.stderr)
        return exc.code
    except SwitchDiffError as exc:
        print(f"switchdiff: {type(exc).__name__}: {exc}", file=sys.stderr)
        # a tail that no budget can certify is a bad input, like a ConfigError
        definitive = isinstance(exc, TailUnresolvable) and exc.definitive
        return 2 if definitive or isinstance(exc, ConfigError) else 1
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
