"""Tests of the benchmark itself, at tiny sizes.

Run with: python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _tiny(name, tmp_path, seed=3, part=1):
    cls = workloads.WORKLOADS[name]
    return workloads.setup(name, cls.inputs(seed, str(tmp_path), "tiny", part))


def _traced_counts(wl):
    with tracing.Tracer() as tr:
        tracing.instrument(tr, wl)
        wl.run(threads=1)
    m = tracing.layer_metrics(tr)
    return {k: m[k] for k in tracing.COUNTS}


@pytest.mark.parametrize("name", NAMES)
def test_digest_repeats_across_runs(name, tmp_path):
    wl = _tiny(name, tmp_path)
    first, second = wl.run(), wl.run()
    assert first.failures == [] and second.failures == []
    assert first.units > 0
    assert first.digest == second.digest


def test_inputs_depend_only_on_seed(tmp_path):
    cls = workloads.WORKLOADS["certify_grid"]
    a = cls.inputs(5, str(tmp_path / "a"), "tiny", 2)
    b = cls.inputs(5, str(tmp_path / "b"), "tiny", 2)
    c = cls.inputs(6, str(tmp_path / "c"), "tiny", 2)
    text = [open(x["config"]).read() for x in (a, b, c)]
    assert text[0] == text[1] != text[2]


def test_ctmc_digest_same_at_one_and_two_workers(tmp_path):
    wl = _tiny("ctmc_oracle", tmp_path)
    assert int(wl.cfg["n"]) >= 8  # large enough that map_indices forks at 2
    assert wl.run(threads=1).digest == wl.run(threads=2).digest


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl = _tiny(name, tmp_path)
    first, second = _traced_counts(wl), _traced_counts(wl)
    assert first == second
    busy = "certify.nodes" if name == "certify_grid" else "hybrid.simulate.calls"
    assert first[busy] > 0


def test_traced_run_keeps_the_output(tmp_path):
    wl = _tiny("powerlaw_tail", tmp_path)
    plain = wl.run().digest
    with tracing.Tracer() as tr:
        tracing.instrument(tr, wl)
        traced = wl.run().digest
    assert traced == plain
    assert tracing.layer_metrics(tr)["model.mark_displacement.calls"] > 0


def test_wrappers_removed_after_traced_run(tmp_path):
    from switchdiff import certify, cli, hybrid, probe
    mods = (certify, cli, hybrid, probe)
    before = [dict(vars(m)) for m in mods]
    wl = _tiny("certify_grid", tmp_path)
    seen = []
    with tracing.Tracer() as tr:
        tracing.instrument(tr, wl)
        with tracing.Tracer() as spy:
            spy.wrap(cli, "check_condition_poly", "spy",
                     on_call=lambda t, args: seen.append(args[0].rates))
            wl.run()
    assert tracing.layer_metrics(tr)["certify.beta_tail.calls"] > 0
    for m, vals in zip(mods, before):
        assert dict(vars(m)) == vals
    assert len(seen) == 1
    for rates in seen + [wl.model.rates]:
        assert "beta_tail" not in vars(rates)


def test_absent_layer_is_reported_not_raised():
    mod = types.SimpleNamespace(present=lambda: 1)
    with tracing.Tracer() as tr:
        tr.wrap(mod, "removed_function", "gone.layer")
        tr.wrap(mod, "present", "here.layer")
        assert mod.present() == 1
    assert tr.absent == {"gone.layer"}
    assert "here.layer" in tr.names


def test_self_time_subtracts_children():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    with tracing.Tracer() as tr:
        tr.wrap(mod, "inner", "inner")
        tr.wrap(mod, "outer", "outer")
        mod.outer()
    lay, par, start, end, self_t = tr.arrays()
    outer = tr.names.index("outer")
    (o,) = (lay == outer).nonzero()[0]
    children = (end - start)[par == o].sum()
    assert (par == o).sum() == 2
    assert self_t[o] == pytest.approx((end[o] - start[o]) - children)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ou_feller",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_clock_scales_by_the_bracketing_calibrations(monkeypatch):
    import run
    cal = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(run, "calibrate", lambda kind: next(cal))
    clock = run.HostClock("loop")
    clock.start()
    assert clock.scaled(1.0) == pytest.approx(run.CAL_REF_S["loop"] / 0.03)
    assert clock.scaled(2.0) == pytest.approx(2.0 * run.CAL_REF_S["loop"] / 0.05)
    assert clock.raw == [1.0, 2.0]


@pytest.mark.parametrize(
    "kind", sorted({"import"} | {w.host_kernel for w in workloads.WORKLOADS.values()}))
def test_every_host_kernel_runs_and_has_a_reference(kind):
    import run
    assert run.calibrate(kind) > 0
    assert kind in run.CAL_REF_S


def test_benchmark_json_lists_the_reported_metrics():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
