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
from .errors import SwitchDiffError
from .hybrid import SimConfig, simulate
from .models import list_models, make_model, model_params
from .probe import (ctmc_oracle, estimate_moment, estimate_tau_tail,
                    feller_probe, run_ensemble)

CSV_SCHEMA = "# switchdiff-csv v1"


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


def _resolve_model(cfg):
    name = cfg.get("model")
    if not name:
        raise _Exit(2, "config must name a model")
    try:
        schema = model_params(name)
    except KeyError as exc:
        raise _Exit(3, str(exc))
    params = {}
    for key, val in cfg.items():
        if key.startswith("model."):
            pname = key[len("model."):]
            if pname not in schema:
                raise _Exit(3, f"model {name!r} has no parameter {pname!r}")
            try:
                params[pname] = schema[pname](val)
            except ValueError as exc:
                raise _Exit(3, f"bad model parameter {pname!r}: {exc}")
    try:
        model = make_model(name, **params)
    except (KeyError, ValueError) as exc:
        raise _Exit(3, f"model construction failed: {exc}")
    return name, params, model


def _sim_config(cfg, seed):
    return SimConfig(
        stop_level=cfg.get("sim.stop_level", 16),
        mark_cutoff=cfg.get("sim.mark_cutoff", "auto"),
        stream_rate=cfg.get("sim.stream_rate", "auto"),
        dt_target=cfg.get("sim.dt_target", 0.01),
        horizon=cfg.get("sim.horizon"),
        max_stop_level=cfg.get("sim.max_stop_level", cfg.get("sim.stop_level", 16) * 64),
        seed=seed,
    )


def _grid(cfg, model):
    return default_grid(
        dim=model.dim,
        radius=cfg.get("grid.radius", 10.0),
        n_radii=cfg.get("grid.n_radii", 21),
        regimes=cfg.get("grid.regimes", 12),
        times=tuple(cfg.get("grid.times", [0.0, 0.5, 1.0])),
    )


def _certificate(cfg):
    kind = cfg.get("cert.kind", "poly")
    if kind == "poly":
        return PolynomialCertificate(p=cfg.get("cert.p", 1.0),
                                     beta=cfg.get("cert.beta", 1.0),
                                     growth=cfg.get("cert.growth", 1.0))
    if kind == "exp":
        return ExponentialCertificate(alpha=cfg.get("cert.alpha", 1.0),
                                      c=cfg.get("cert.c", 1.0),
                                      beta=cfg.get("cert.beta", 1.0),
                                      horizon=cfg.get("sim.horizon", 1.0))
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


def _write_meta(prefix, cfg, model_name, model_par, seed, threads, extra=None):
    path = prefix + "_meta.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"switchdiff {__version__}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"threads = {threads}\n")
        fh.write(f"model = {model_name}\n")
        for k in sorted(model_par):
            fh.write(f"model.{k} = {_fmt(model_par[k])}\n")
        for k in sorted(cfg):
            if k != "model" and not k.startswith("model."):
                fh.write(f"{k} = {_fmt(cfg[k])}\n")
        for line in (extra or []):
            fh.write(line + "\n")
    return path


def _path_rows(path_obj, dim):
    rows = []
    for k in range(path_obj.times.size):
        rows.append([path_obj.times[k]] +
                    [path_obj.states[k, c] for c in range(dim)] +
                    [int(path_obj.regimes[k])])
    return rows


def _switch_rows(path_obj):
    return [[s.time, s.src, s.dst, s.mark] for s in path_obj.switches]


def _status_str(status):
    parts = [status.kind]
    if status.tau is not None:
        parts.append(f"tau={status.tau!r}")
    if status.level is not None:
        parts.append(f"level={status.level}")
    return " ".join(parts)


def _cmd_simulate(cfg, model, sim, prefix, threads, dump_stream):
    x0 = np.asarray(cfg.get("x0", [0.0] * model.dim), dtype=float)
    i0 = cfg.get("i0", 1)
    record = cfg.get("record", "nodes")
    path = simulate(model, x0, i0, sim, record=record)
    dim = model.dim
    files = []
    p = prefix + "_path.csv"
    _write_csv(p, ["t"] + [f"x_{c+1}" for c in range(dim)] + ["lambda"],
               _path_rows(path, dim))
    files.append(p)
    p = prefix + "_switches.csv"
    _write_csv(p, ["t", "from", "to", "z"], _switch_rows(path))
    files.append(p)
    if dump_stream:
        p = prefix + "_stream.csv"
        _write_csv(p, ["time", "mark"], zip(path.stream.times, path.stream.marks))
        files.append(p)
    return files, [f"status = {_status_str(path.status)}",
                   f"escalations = {path.escalations!r}", f"cutoffs = {path.cutoffs!r}"]


def _cmd_ensemble(cfg, model, sim, prefix, threads, *_):
    x0 = np.asarray(cfg.get("x0", [0.0] * model.dim), dtype=float)
    ens = run_ensemble(model, x0, cfg.get("i0", 1), sim, cfg.get("n", 100),
                       threads=threads)
    tau = np.where(np.isnan(ens["tau"]), -1.0, ens["tau"])
    rows = [[k, ens["kind"][k], tau[k], ens["t_end"][k]] + list(ens["x_end"][k])
            + [ens["lam_end"][k], ens["switches"][k]] for k in range(tau.size)]
    p = prefix + "_report.csv"
    _write_csv(p, ["traj", "status", "tau", "t_end"] +
               [f"x_{c+1}" for c in range(model.dim)] + ["lambda", "switches"], rows)
    return [p], []


def _cmd_certify(cfg, model, sim, prefix, *_):
    cert = _certificate(cfg)
    grid = _grid(cfg, model)
    if isinstance(cert, PolynomialCertificate):
        report = check_condition_poly(model, cert, grid)
    else:
        report = check_condition_exp(model, cert, grid)
    p = prefix + "_report.csv"
    _write_csv(p, ["kind", "certified", "margin", "worst_y", "worst_j",
                   "worst_t", "tails_certified", "sigma_integral", "nodes"],
               [[report.kind, report.certified, report.margin,
                 "|".join(repr(float(v)) for v in np.atleast_1d(report.worst[0])),
                 report.worst[1], report.worst[2], report.tails_certified,
                 report.sigma_integral, report.nodes]])
    return [p], [report.summary()]


def _probe_files(rows, prefix):
    p = prefix + "_report.csv"
    _write_csv(p, ["probe", "parameters", "label", "estimate", "half_width",
                   "n", "diagnostics"], rows)
    return [p]


def _cmd_moments(cfg, model, sim, prefix, threads, *_):
    cert = _certificate(cfg)
    if not isinstance(cert, PolynomialCertificate):
        raise _Exit(2, "moments requires cert.kind=poly")
    x0 = cfg.get("x0", [0.0] * model.dim)
    report = estimate_moment(model, cert, x0, cfg.get("i0", 1),
                             cfg.get("t", 1.0), cfg.get("n", 1000), sim,
                             threads=threads)
    return _probe_files(report.rows(), prefix), []


def _cmd_tau_tail(cfg, model, sim, prefix, threads, *_):
    cert = _certificate(cfg) if "cert.kind" in cfg else None
    x0 = cfg.get("x0", [0.0] * model.dim)
    report = estimate_tau_tail(model, x0, cfg.get("i0", 1), cfg.get("t", 1.0),
                               cfg.get("m_list", [8, 16, 32, 64]),
                               cfg.get("delta", 0.1), cfg.get("n", 1000), sim,
                               cert=cert, threads=threads)
    return _probe_files(report.rows(), prefix), []


def _cmd_feller(cfg, model, sim, prefix, threads, *_):
    fname = cfg.get("f", "indicator_positive")
    if fname not in TEST_FUNCTIONS:
        raise _Exit(2, f"unknown test function {fname!r}; "
                       f"choose from {sorted(TEST_FUNCTIONS)}")
    x0 = cfg.get("x0", [0.0] * model.dim)
    report = feller_probe(model, TEST_FUNCTIONS[fname], cfg.get("t", 1.0),
                          x0, cfg.get("i0", 1), cfg.get("offsets", [0.05, 0.5]),
                          cfg.get("n", 1000), sim,
                          couple=cfg.get("couple", True), threads=threads)
    return _probe_files(report.rows(), prefix), []


def _cmd_oracle(cfg, model, sim, prefix, threads, *_):
    x0 = cfg.get("x0")
    x0 = None if x0 is None else np.asarray(x0, dtype=float)
    times = cfg.get("times", [cfg.get("t", 1.0)])
    rows = []
    for t in times:
        report = ctmc_oracle(model, cfg.get("i0", 1), t,
                             cfg.get("j_trunc", 8), cfg.get("n", 10000), sim,
                             x0=x0, threads=threads)
        rows.extend(report.rows())
    return _probe_files(rows, prefix), []


# The command names and their handlers, called as
# handler(cfg, model, sim, prefix, threads, dump_stream).
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
    sim = _sim_config(cfg, cfg["seed"])
    os.makedirs(os.path.dirname(os.path.abspath(prefix)), exist_ok=True)

    try:
        files, extra = COMMANDS[command](cfg, model, sim, prefix, n_threads,
                                         dump_stream)
    except _Exit:
        raise
    except SwitchDiffError as exc:
        raise _Exit(1, f"{type(exc).__name__}: {exc}")
    meta = _write_meta(prefix, cfg, name, params, cfg["seed"], n_threads, extra)
    files.append(meta)
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
        return 1
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
