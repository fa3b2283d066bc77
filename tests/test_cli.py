"""End-to-end command-line runs in temporary directories."""

import hashlib
import multiprocessing

import numpy as np
import pytest

from switchdiff import (PolynomialCertificate, SimConfig, _parallel, auto_truncation,
                        check_condition_poly, ctmc_oracle, default_grid, feller_probe, hybrid,
                        make_model, simulate)
from switchdiff.cli import PROBE_HEADER, TEST_FUNCTIONS, _write_csv, main, parse_config


def write_config(path, text):
    path.write_text(text)
    return str(path)


def run_cli(*args):
    return main(list(args))


class TestListModels:
    def test_lists_all_builtins(self, capsys):
        assert run_cli("--list-models") == 0
        out = capsys.readouterr().out
        for name in ("ou2", "ctmc2", "ctmcN", "powerlaw", "blowup", "degenerate"):
            assert name in out


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = simulate\nmodel = ou2\nseed = 1\nbogus = 2\n")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "r")) == 2

    def test_seed_mandatory(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "command = simulate\nmodel = ou2\n")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "r")) == 2

    def test_bad_command(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = frobnicate\nmodel = ou2\nseed = 1\n")
        assert run_cli("--config", cfg) == 2

    def test_unknown_model_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = simulate\nmodel = nope\nseed = 1\n")
        assert run_cli("--config", cfg) == 3

    def test_unknown_model_param_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = simulate\nmodel = ou2\nmodel.zeta = 1\nseed = 1\n")
        assert run_cli("--config", cfg) == 3

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = simulate\nmodel = ou2\nseed = 1\nseed = 2\n")
        assert run_cli("--config", cfg) == 2

    # body None: the config file does not exist; "": no --config at all
    @pytest.mark.parametrize("body, code, message", [
        (None, 2, "cannot read config: "),
        ("command = simulate\nmodel = ou2\nseed\n", 2, "config line 3: expected key=value"),
        ("command = simulate\nseed = 1\n", 2, "config must name a model"),
        ("command = simulate\nmodel = ctmcN\nmodel.n_regimes = 1\nseed = 1\n", 3,
         "model construction failed: "),
        ("command = certify\nmodel = ou2\ncert.kind = bogus\nseed = 1\n", 2,
         "cert.kind must be poly or exp, got 'bogus'"),
        ("command = moments\nmodel = ou2\ncert.kind = exp\nseed = 1\n", 2,
         "moments requires cert.kind=poly"),
        ("command = feller\nmodel = ou2\nf = bogus\nseed = 1\n", 2,
         "unknown test function 'bogus'"),
        ("", 2, "--config is required"),
    ], ids=["unreadable", "no-equals", "no-model", "model-error", "cert.kind", "moments-exp",
            "feller-f", "no-config"])
    def test_rejected_run_exits_with_one_line(self, tmp_path, capsys, body, code, message):
        args = ["--out", str(tmp_path / "r"), "--threads", "1"]
        if body is None:
            args += ["--config", str(tmp_path / "missing.cfg")]
        elif body:
            args += ["--config", write_config(tmp_path / "c.cfg", body)]
        assert run_cli(*args) == code
        err = capsys.readouterr().err.splitlines()
        said = [line for line in err if line.startswith("switchdiff: ")]
        assert len(said) == 1 and message in said[0]
        # only argparse's usage lines may come with it
        assert len(err) == 1 or body == ""
        assert not list(tmp_path.glob("r_*"))

    def test_bool_keys_read_true_and_false(self, tmp_path):
        for value, want in (("true", True), ("Yes", True), ("1", True), ("false", False),
                            ("no", False)):
            cfg = write_config(tmp_path / "c.cfg", f"couple = {value}\n")
            assert parse_config(cfg) == {"couple": want}


class TestBadInput:
    # each used to exit 0 or 1, or to end in a raw traceback
    @pytest.mark.parametrize("body", [
        "command = simulate\nmodel = ou2\nsim.dt_target = 0\n",
        "command = simulate\nmodel = ou2\nsim.stream_rate = -1\n",
        "command = simulate\nmodel = ou2\nsim.mark_cutoff = nan\n",
        "command = simulate\nmodel = ou2\nrecord = node\n",
        "command = ensemble\nmodel = ctmcN\ni0 = -3\nn = 5\nsim.dt_target = 2.0\n",
        "command = certify\nmodel = ou2\ncert.p = 0.5\n",
        "command = certify\nmodel = ou2\ngrid.regimes = 0\n",
        "command = certify\nmodel = ou2\ngrid.times =\n",
        "command = oracle\nmodel = ctmcN\nj_trunc = 1\n",
        "command = oracle\nmodel = ctmcN\nn = 0\n",
        "command = oracle\nmodel = ctmc2\nt = -1\n",
        "command = tau-tail\nmodel = ou2\nm_list =\n",
        "command = simulate\nmodel = ou2\nsim.dt_target = inf\n",
        "command = simulate\nmodel = ou2\nsim.horizon = inf\n",
        "command = moments\nmodel = ou2\nt = inf\n",
        "command = certify\nmodel = ou2\ngrid.times = 1,0\n",
        "command = oracle\nmodel = ctmc2\ntimes =\n",
        "command = ensemble\nmodel = powerlaw\nn = 5\nsim.stop_level = 1024\n",
        "command = simulate\nmodel = ou2\nsim.dt_target = 1e-9\n",
    ], ids=["dt_target", "stream_rate", "mark_cutoff", "record", "i0", "cert.p",
            "grid.regimes", "grid.times", "j_trunc", "oracle-n", "oracle-t", "m_list",
            "dt_target-inf", "horizon-inf", "t-inf", "grid.times-reversed", "oracle-times",
            "stop_level-1024", "dt_target-1e-9"])
    def test_config_error_exits_2(self, tmp_path, capsys, body):
        cfg = write_config(tmp_path / "c.cfg", body + "seed = 1\n")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "r"), "--threads", "1") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("switchdiff: ConfigError: ")
        assert not list(tmp_path.glob("r_*"))

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # it used to end in a raw ValueError from the key derivation
        cfg = write_config(tmp_path / "c.cfg", "command = ensemble\nmodel = ou2\nn = 5\nseed = -1\n")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "r"), "--threads", "1") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("switchdiff: ConfigError: ")
        assert not list(tmp_path.glob("r_*"))

    def test_uncertifiable_beta_exits_2(self, tmp_path, capsys):
        # powerlaw has gamma = 3, and no budget certifies a beta of gamma - 1
        # or more; beta = 1.6 only outruns the budget (TestCertifyOutput)
        cfg = write_config(tmp_path / "c.cfg", CERTIFY_POWERLAW + "cert.beta = 2.5\n")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "switchdiff: TailUnresolvable: beta=2.5 outside (0, gamma-1) for power-law tails"]
        assert not list(tmp_path.glob("r_*"))


class TestKeysReachLibrary:
    def test_sim_keys(self, tmp_path):
        # every one of these values changes the path from the default's
        cfg = write_config(tmp_path / "c.cfg",
                           "command = simulate\nmodel = powerlaw\nmodel.sigma = 6\n"
                           "x0 = 2\nseed = 5\nsim.stop_level = 4\nsim.max_stop_level = 16\n"
                           "sim.dt_target = 0.05\nsim.horizon = 0.7\n"
                           "sim.mark_cutoff = 30\nsim.stream_rate = 40\n")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "r")) == 0
        lines = (tmp_path / "r_path.csv").read_text().splitlines()[2:]
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        path = simulate(make_model("powerlaw", sigma=6.0), [2.0], 1,
                        SimConfig(stop_level=4, max_stop_level=16, dt_target=0.05,
                                  horizon=0.7, mark_cutoff=30.0, stream_rate=40.0, seed=5))
        assert np.array_equal(got, np.column_stack([path.times, path.states, path.regimes]))

    def test_grid_keys(self, tmp_path):
        # blowup's worst node is on the outer radius, so the radius shows too
        cfg = write_config(tmp_path / "c.cfg",
                           "command = certify\nmodel = blowup\nseed = 0\ngrid.radius = 4\n"
                           "grid.n_radii = 5\ngrid.regimes = 3\ngrid.times = 0,0.25\n")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "c")) == 0
        header, row = (ln.split(",") for ln in
                       (tmp_path / "c_report.csv").read_text().splitlines()[1:])
        rep = check_condition_poly(make_model("blowup"), PolynomialCertificate(1.0, 1.0, 1.0),
                                   default_grid(1, 4.0, 5, 3, (0.0, 0.25)))
        assert int(row[header.index("nodes")]) == rep.nodes == 9 * 3 * 2
        assert float(row[header.index("margin")]) == rep.margin
        assert float(row[header.index("worst_y")]) == rep.worst[0][0] == 4.0


    def test_exponential_certificate_takes_the_model_horizon(self, tmp_path):
        # with sim.horizon unset, paths run to the model's horizon, and so
        # does the exponential certificate
        text = ("command = certify\nmodel = ou2\nmodel.horizon = 3.0\nseed = 0\n"
                "cert.kind = exp\ncert.alpha = 0.5\ngrid.regimes = 3\n")
        margins = []
        for extra in ("", "sim.horizon = 3.0\n"):
            cfg = write_config(tmp_path / "c.cfg", text + extra)
            assert run_cli("--config", cfg, "--out", str(tmp_path / "c")) == 0
            header, row = (ln.split(",") for ln in
                           (tmp_path / "c_report.csv").read_text().splitlines()[1:])
            margins.append(float(row[header.index("margin")]))
        assert margins == [-1.0, -1.0]


CERTIFY_POWERLAW = ("command = certify\nmodel = powerlaw\nseed = 0\n"
                    "grid.n_radii = 5\ngrid.regimes = 4\n")


class TestCertifyOutput:
    # _report.csv bytes of these runs as a sweep that sums every point's
    # series column by column writes them; reading rates from the m^-gamma
    # table and screening points by the rate factor must not move a bit
    GOLDEN = {
        "poly": ("cert.kind = poly\ncert.p = 1.0\ncert.beta = 1.0\ncert.growth = 3.0\n",
                 "b9ad107a62f6ebe1d45514c9c6aafb76f3eadd6af9aeb005c60ffc853224bd82"),
        "exp": ("cert.kind = exp\ncert.alpha = 0.5\ncert.c = 1.0\ncert.beta = 1.0\n",
                "3ed45ec85006a218b568577e228248b7bedd04fede1e3da8f1b0c94f10ee395b"),
    }

    # at beta != 1, where k^beta is inexact: the bytes, columns and widest
    # half-width of sweeps that built every block's k^beta as
    # np.arange(lo, hi, dtype=float) ** beta; at 1.6 every series runs out
    # of columns: the run exits 0 and reports tails_certified = False
    # The series and columns since follow the factor screen: one reference
    # per regime plus the per-point series the report needs; at 1.6 every
    # reference fails, so every point is summed.
    GOLDEN_BETA = {
        ("poly", 0.5): ("f1dda04162c6cd0099ff4cd93519b8d5dc815bd51d097b0d5816a90daba97aee",
                        5, 1111558, 6.282193877807006e-10),
        ("exp", 0.5): ("6bbe0f60e3f1a19dd1cc368804a5701a8d9b39be24eff51c7b5ddafa0712c0d8",
                       6, 1307655, 6.282193877807006e-10),
        ("poly", 1.3): ("54cd2cdb714dc3e0185c0847e6f79637490340b4c1c3baf01b192cf09155c8db",
                        5, 2029062, 2.163684564198201e-09),
        ("exp", 1.3): ("72301359866563016ee316e026dc24d9b808d7eb751d58241ae0140aaa22de2e",
                       6, 2421767, 2.163684564198201e-09),
        ("poly", 1.6): ("c8adeb7ff23a73e6dde100abb949cff2ac880e7695dbeff928a75a8538e72d34",
                        20, 20961280, 0.0),
        ("exp", 1.6): ("bc746fd6e7e146f5bdbffaa7d903f044ea8359ba4c297479dac1d86ace39a0b6",
                       20, 20961280, 0.0),
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_report_bytes_unchanged(self, tmp_path, kind):
        cert, digest = self.GOLDEN[kind]
        cfg = write_config(tmp_path / "c.cfg", CERTIFY_POWERLAW + cert)
        assert run_cli("--config", cfg, "--out", str(tmp_path / "c")) == 0
        data = (tmp_path / "c_report.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("kind,beta", sorted(GOLDEN_BETA))
    def test_report_bytes_unchanged_at_inexact_beta(self, tmp_path, kind, beta):
        digest, series, columns, half = self.GOLDEN_BETA[kind, beta]
        cert = self.GOLDEN[kind][0].replace("cert.beta = 1.0", f"cert.beta = {beta}")
        cfg = write_config(tmp_path / "c.cfg", CERTIFY_POWERLAW + cert)
        assert run_cli("--config", cfg, "--out", str(tmp_path / "c")) == 0
        data = (tmp_path / "c_report.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        meta = (tmp_path / "c_meta.txt").read_text().splitlines()
        assert meta[-3:] == [f"series = {series}", f"columns = {columns}",
                             f"max_half_width = {half!r}"]

    def test_series_work_goes_to_meta_only(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", CERTIFY_POWERLAW + self.GOLDEN["poly"][0])
        assert run_cli("--config", cfg, "--out", str(tmp_path / "c")) == 0
        rep = check_condition_poly(make_model("powerlaw"), PolynomialCertificate(1.0, 1.0, 3.0),
                                   default_grid(1, n_radii=5, regimes=4))
        # one reference per regime plus the one per-point series at the worst
        # node, each bracket within the series tolerance
        assert rep.series == 4 + 1
        assert rep.columns > 5 * 512
        assert 0.0 < rep.max_half_width < 1e-8
        meta = (tmp_path / "c_meta.txt").read_text().splitlines()
        assert meta[-3:] == [f"series = {rep.series}", f"columns = {rep.columns}",
                             f"max_half_width = {rep.max_half_width!r}"]
        report = (tmp_path / "c_report.csv").read_text()
        assert "series" not in report and "columns" not in report


class TestSimulateCommand:
    CONFIG = ("command = simulate\n"
              "model = ou2\n"
              "model.q12 = 2.0\n"
              "x0 = 1.0\n"
              "i0 = 1\n"
              "sim.stop_level = 12\n"
              "sim.dt_target = 0.02\n"
              "seed = 42\n")

    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", self.CONFIG)
        outs = []
        for sub in ("a", "b"):
            prefix = str(tmp_path / sub / "run")
            assert run_cli("--config", cfg, "--out", prefix) == 0
            outs.append({name: (tmp_path / sub / f"run_{name}.csv").read_bytes()
                         for name in ("path", "switches")})
            meta = (tmp_path / sub / "run_meta.txt").read_text()
            assert "seed = 42" in meta
            assert "switchdiff" in meta
        assert outs[0] == outs[1]

    def test_meta_records_escalations_and_cutoffs(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = simulate\nmodel = powerlaw\nmodel.sigma = 6\n"
                           "x0 = 2\nsim.stop_level = 4\nsim.max_stop_level = 64\nseed = 2\n")
        prefix = str(tmp_path / "r")
        assert run_cli("--config", cfg, "--out", prefix) == 0
        meta = dict(line.split(" = ", 1) for line in
                    (tmp_path / "r_meta.txt").read_text().splitlines()[1:])
        model = make_model("powerlaw", sigma=6.0)
        path = simulate(model, [2.0], 1, SimConfig(stop_level=4, max_stop_level=64, seed=2))
        assert path.escalations == [(4, 0.07161363119410413), (8, 0.15431759128739975)]
        assert meta["escalations"] == repr(path.escalations)
        # the first level and the two it escalated to, each with its auto cutoff
        assert path.cutoffs == [(lv, auto_truncation(model, lv)) for lv in (4, 8, 16)]
        assert meta["cutoffs"] == repr(path.cutoffs)

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", self.CONFIG)
        p1, p2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        run_cli("--config", cfg, "--out", p1)
        run_cli("--config", cfg, "--out", p2, "--seed", "43")
        assert ((tmp_path / "s1_path.csv").read_bytes()
                != (tmp_path / "s2_path.csv").read_bytes())

    def test_dump_stream(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", self.CONFIG)
        prefix = str(tmp_path / "run")
        assert run_cli("--config", cfg, "--out", prefix, "--dump-stream") == 0
        lines = (tmp_path / "run_stream.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "time,mark"

    @pytest.mark.parametrize("body", [
        # an explicit cutoff sizes the stream below the stop level's bound
        "model = ou2\nsim.mark_cutoff = 2.5\nseed = 3\n",
        # escalation 4 -> 64 superposes extension bands on the stream
        "model = powerlaw\nmodel.sigma = 6\nx0 = 2\nsim.stop_level = 4\n"
        "sim.max_stop_level = 64\nseed = 2\n",
    ], ids=["ou2-cutoff", "powerlaw-escalation"])
    def test_dump_stream_holds_every_switch_mark(self, tmp_path, body):
        cfg = write_config(tmp_path / "c.cfg", "command = simulate\n" + body)
        prefix = str(tmp_path / "run")
        assert run_cli("--config", cfg, "--out", prefix, "--dump-stream") == 0

        def rows(name):
            lines = (tmp_path / f"run_{name}.csv").read_text().splitlines()
            return [[float(v) for v in ln.split(",")] for ln in lines[2:]]

        switches = {(r[0], r[3]) for r in rows("switches")}
        stream = {(r[0], r[1]) for r in rows("stream")}
        assert switches
        assert switches <= stream

    def test_shared_stream_rate_makes_cutoffs_lossless(self, tmp_path):
        # auto resolves to q12 + q21 = 4 here; every cutoff from 4 up to the
        # shared stream rate of 6 reads the same stream and loses no switch
        def outputs(sub, extra):
            cfg = write_config(tmp_path / f"{sub}.cfg",
                               self.CONFIG + "sim.horizon = 3.0\n" + extra)
            assert run_cli("--config", cfg, "--out", str(tmp_path / sub)) == 0
            return [(tmp_path / f"{sub}_{name}.csv").read_bytes()
                    for name in ("path", "switches")]

        runs = [outputs(f"k{i}", f"sim.stream_rate = 6\nsim.mark_cutoff = {cut}\n")
                for i, cut in enumerate(("auto", "4.5", "6.0"))]
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0][1].splitlines()) - 2 >= 3  # several switches
        # without the shared rate, auto samples its own, smaller stream
        assert outputs("plain", "") != runs[0]

    def test_path_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", self.CONFIG)
        prefix = str(tmp_path / "run")
        run_cli("--config", cfg, "--out", prefix)
        lines = (tmp_path / "run_path.csv").read_text().splitlines()
        assert lines[0] == "# switchdiff-csv v1"
        assert lines[1] == "t,x_1,lambda"
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert int(first[2]) == 1


class TestEnsembleCommand:
    CONFIG = ("command = ensemble\n"
              "model = ctmc2\n"
              "n = 64\n"
              "sim.stop_level = 5\n"
              "sim.dt_target = 1.0\n"
              "seed = 7\n")

    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        # blocks of 8 rows, so that 64 trajectories start 2 workers
        monkeypatch.setattr(hybrid, "BLOCK_ROWS", 8)
        cfg = write_config(tmp_path / "c.cfg", self.CONFIG)
        reports = []
        for threads in ("1", "2"):
            prefix = str(tmp_path / f"t{threads}")
            assert run_cli("--config", cfg, "--out", prefix,
                           "--threads", threads) == 0
            reports.append((tmp_path / f"t{threads}_report.csv").read_bytes())
        assert reports[0] == reports[1]


class TestOracleWorkers:
    # the shape of the ctmc_oracle benchmark chunk: 300 trajectories at each of three times
    CONFIG = ("command = oracle\nmodel = ctmcN\nmodel.n_regimes = 5\nmodel.scale = 1.0\n"
              "model.horizon = 2.0\ni0 = 2\ntimes = 0.5,1.0,2.0\nj_trunc = 5\nn = 300\n"
              "sim.dt_target = 2.0\nseed = 921\n")

    def report(self, tmp_path, monkeypatch, threads):
        sizes = []
        get_context = multiprocessing.get_context

        class CountingContext:
            def __init__(self, method):
                self.ctx = get_context(method)

            def Pool(self, size):
                sizes.append(size)
                return self.ctx.Pool(size)

        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_context", CountingContext)
        cfg = write_config(tmp_path / "c.cfg", self.CONFIG)
        prefix = str(tmp_path / f"t{threads}")
        assert run_cli("--config", cfg, "--out", prefix, "--threads", str(threads)) == 0
        return (tmp_path / f"t{threads}_report.csv").read_bytes(), sizes

    def test_small_ensembles_run_serially(self, tmp_path, monkeypatch):
        # 300 rows are fewer than two blocks of BLOCK_ROWS for each of 2 workers
        serial, _ = self.report(tmp_path, monkeypatch, 1)
        two, sizes = self.report(tmp_path, monkeypatch, 2)
        assert sizes == []
        assert two == serial

    def test_forked_report_equals_serial(self, tmp_path, monkeypatch):
        serial, _ = self.report(tmp_path, monkeypatch, 1)
        monkeypatch.setattr(hybrid, "BLOCK_ROWS", 8)
        two, sizes = self.report(tmp_path, monkeypatch, 2)
        assert sizes == [2, 2, 2]
        assert two == serial


class TestProbeCommands:
    def test_oracle_matches_library(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = oracle\nmodel = ctmc2\nseed = 11\n"
                           "n = 2000\nt = 1.0\nj_trunc = 2\n"
                           "sim.dt_target = 1.0\nsim.stop_level = 5\n")
        prefix = str(tmp_path / "o")
        assert run_cli("--config", cfg, "--out", prefix, "--threads", "1") == 0
        text = (tmp_path / "o_report.csv").read_text().splitlines()
        tv_row = next(r for r in text if ",tv," in r)
        tv_cli = float(tv_row.split(",")[3])
        rep = ctmc_oracle(make_model("ctmc2"), 1, 1.0, 2, 2000,
                          SimConfig(stop_level=5, seed=11, dt_target=1.0))
        assert tv_cli == rep.value("tv")

    def test_certify_powerlaw_nonnegative_margin(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = certify\nmodel = powerlaw\n"
                           "model.gamma = 3.0\nmodel.p = 1.0\nseed = 0\n"
                           "cert.kind = poly\ncert.p = 1.0\ncert.beta = 1.0\n"
                           "cert.growth = 3.0\ngrid.regimes = 8\n")
        prefix = str(tmp_path / "c")
        assert run_cli("--config", cfg, "--out", prefix) == 0
        lines = (tmp_path / "c_report.csv").read_text().splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        assert row[header.index("certified")] == "True"
        assert float(row[header.index("margin")]) >= 0.0

    def test_tau_tail_and_feller_and_moments_run(self, tmp_path):
        base = "model = ou2\nseed = 3\nn = 50\nsim.stop_level = 8\n"
        for command, extra in (
                ("moments", "cert.kind = poly\ncert.growth = 6.0\nt = 0.5\n"),
                ("tau-tail", "m_list = 4,8\ndelta = 0.1\nt = 0.5\n"),
                ("feller", "offsets = 0.1\nt = 0.5\nf = indicator_positive\n")):
            cfg = write_config(tmp_path / f"{command}.cfg",
                               f"command = {command}\n{base}{extra}")
            prefix = str(tmp_path / command)
            assert run_cli("--config", cfg, "--out", prefix) == 0, command
            report = (tmp_path / f"{command}_report.csv").read_text()
            assert report.startswith("# switchdiff-csv v1")

    def test_feller_uncoupled(self, tmp_path):
        text = ("command = feller\nmodel = ou2\nseed = 3\nn = 50\nsim.stop_level = 8\n"
                "offsets = 0.1\nt = 0.5\ncouple = false\n")
        prefix = str(tmp_path / "f")
        assert run_cli("--config", write_config(tmp_path / "c.cfg", text), "--out", prefix,
                       "--threads", "1") == 0
        report = feller_probe(make_model("ou2"), TEST_FUNCTIONS["indicator_positive"], 0.5,
                              np.zeros(1), 1, [0.1], 50,
                              SimConfig(stop_level=8, max_stop_level=512, seed=3),
                              couple=False)
        _write_csv(str(tmp_path / "want.csv"), PROBE_HEADER, report.rows())
        assert (tmp_path / "f_report.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        rows = (tmp_path / "f_report.csv").read_text().splitlines()[2:]
        assert rows and all("couple=False" in r.split(",")[1].split(";") for r in rows)
        assert "couple = False" in (tmp_path / "f_meta.txt").read_text().splitlines()
        text = text.replace("couple = false", "couple = maybe")
        assert run_cli("--config", write_config(tmp_path / "c.cfg", text), "--out", prefix) == 2

    def test_feller_in_two_dimensions(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           "command = feller\nmodel = ou2\nmodel.dim = 2\n"
                           "x0 = 0.0,0.0\nn = 20\nt = 0.5\nsim.stop_level = 8\nseed = 3\n")
        prefix = str(tmp_path / "f")
        assert run_cli("--config", cfg, "--out", prefix, "--threads", "1") == 0
        labels = [r.split(",")[-5] for r in
                  (tmp_path / "f_report.csv").read_text().splitlines()[2:]]
        # the default offsets 0.05 and 0.5 move both coordinates
        assert labels == ["ptf[delta=0]", "diff[delta=0]",
                          "ptf[delta=0.0707107]", "diff[delta=0.0707107]",
                          "ptf[delta=0.707107]", "diff[delta=0.707107]"]
