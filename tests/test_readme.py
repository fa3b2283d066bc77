"""README examples run against the current API: the library quick start and the CLI config."""

import os
import re

from switchdiff import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced(language):
    """The README's code blocks fenced as ``language``, in order."""
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```$", fh.read(), re.M | re.S)


def test_library_quick_start_runs(capsys):
    block, = fenced("python")
    exec(compile(block, README, "exec"), {"__name__": "readme"})
    # four prints: path, ensemble, certificate summary, moment rows
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_example_config_runs_through_the_cli(tmp_path, capsys):
    block, = fenced("ini")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block, encoding="utf-8")
    out = str(tmp_path / "run")
    assert cli.main(["--config", str(cfg), "--out", out, "--threads", "1"]) == 0
    written = capsys.readouterr().out.split()
    assert written == [out + "_path.csv", out + "_switches.csv", out + "_meta.txt"]
    for path in written:
        assert os.path.getsize(path) > 0
