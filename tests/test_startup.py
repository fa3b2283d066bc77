"""Start-up cost: scipy loads only in the two calls that use it.

``PowerLawRates.beta_tail`` (``quad``) and ``ctmc_oracle`` (``expm``) import
scipy where they call it, so importing the package, building models,
simulating and probing pay for numpy alone.  ``multiprocessing`` loads only
when an ensemble forks, so serial runs never pay for it.  The other test
modules import scipy themselves, so the contract is checked in a fresh
interpreter.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = r"""
import sys

def scipy_loaded():
    # scipy and its subpackages, e.g. scipy.linalg
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m == "scipy" or m.startswith("scipy.")})

import switchdiff, switchdiff.cli
assert not scipy_loaded(), ("import", scipy_loaded())
assert "multiprocessing" not in sys.modules, "import"

from switchdiff import (PolynomialCertificate, SimConfig, check_condition_poly,
                        ctmc_oracle, default_grid, estimate_moment, estimate_tau_tail,
                        feller_probe, make_model, model_names, run_ensemble, simulate)
from switchdiff.cli import main

models = {name: make_model(name) for name in model_names()}
cfg = SimConfig(stop_level=8, max_stop_level=32, seed=3, dt_target=0.05)
ou, pl = models["ou2"], models["powerlaw"]
cert = PolynomialCertificate(p=1.0, beta=1.0, growth=3.0)
simulate(pl, [0.5], 1, cfg)
run_ensemble(ou, [0.0], 1, cfg, 20)
estimate_tau_tail(pl, [0.0], 1, 0.5, [8, 16], 0.1, 20, cfg, cert=cert, n_starts=2)
feller_probe(ou, lambda x, j: float(x[0] > 0), 0.5, [0.0], 1, [0.0, 0.1], 20, cfg)
estimate_moment(pl, cert, [0.5], 1, 0.5, 20, cfg)
out = sys.argv[1]
for command in ("simulate", "ensemble"):
    path = f"{out}/{command}.cfg"
    with open(path, "w") as fh:
        fh.write(f"command = {command}\nmodel = ou2\nseed = 1\nn = 20\n")
    assert main(["--config", path, "--out", f"{out}/{command}"]) == 0, command
assert not scipy_loaded(), ("work", scipy_loaded())
assert "multiprocessing" not in sys.modules, "serial work"

rep = check_condition_poly(pl, cert, default_grid(1, n_radii=3, regimes=4))
assert rep.nodes > 0 and "scipy.integrate" in sys.modules
ctmc_oracle(models["ctmc2"], 1, 1.0, 2, 50, SimConfig(stop_level=5, seed=1, dt_target=1.0))
assert "scipy.linalg" in sys.modules
print("ok")
"""


def test_scipy_loads_only_for_certificate_tails_and_the_oracle(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "ok"
    assert (tmp_path / "simulate_path.csv").exists()
    assert (tmp_path / "ensemble_report.csv").exists()
