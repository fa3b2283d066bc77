"""End-to-end command-line runs in temporary directories."""

import pytest

from switchdiff import SimConfig, auto_truncation, ctmc_oracle, make_model, simulate
from switchdiff.cli import main


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

    def test_worker_count_invariance(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", self.CONFIG)
        reports = []
        for threads in ("1", "2"):
            prefix = str(tmp_path / f"t{threads}")
            assert run_cli("--config", cfg, "--out", prefix,
                           "--threads", threads) == 0
            reports.append((tmp_path / f"t{threads}_report.csv").read_bytes())
        assert reports[0] == reports[1]


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
