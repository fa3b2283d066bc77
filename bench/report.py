"""Print every end-to-end and per-layer metric of every workload.

Usage: python3 bench/report.py

Runs ``bench/run.py`` at seed 0 for ``run_seconds``, with ``--trace 0`` and
with ``--trace 1``, for each workload listed in ``BENCHMARK.json``, each run
in its own process, then prints every metric by name with
its unit and sample count, and whether each run's outputs were correct.  The
combined table is written to ``bench/_out/report.json``.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    report, ok = {}, True
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "0", "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            path = os.path.join(HERE, "_out", "results",
                                f"{name}-seed0-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            ok = ok and rec["correct"]
            report[f"{name}/trace{trace}"] = rec
            print(f"== {name} trace={trace}: correct={rec['correct']} "
                  f"attempted={rec['attempted']} failed={rec['failed']}")
            for key, m in rec["metrics"].items():
                print(f"   {key:40s} {m['value']:>16.6g} {m['unit']:8s} "
                      f"samples={rec['samples'][key]}")
    out = os.path.join(HERE, "_out", "report.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"report file: {os.path.relpath(out, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
