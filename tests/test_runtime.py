"""The runtime needs numpy only: importing ssofr loads no scipy module, and
every CLI command runs in a process where `import scipy` fails."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs every command through ssofr.cli.main with scipy blocked: an entry of
# None in sys.modules makes `import scipy` and `import scipy.x` raise
# ImportError. Prints {command: exit code} as JSON.
WITHOUT_SCIPY = textwrap.dedent("""
    import json, os, sys
    sys.modules["scipy"] = None
    from ssofr.cli import main

    out = sys.argv[1]
    sim = os.path.join(out, "sim")
    data = ["--curves", f"{sim}/curves.csv", "--response", f"{sim}/response.csv",
            "--weights-matrix", f"{sim}/weights_matrix.csv"]
    codes = {}

    def run(name, *argv):
        codes[name] = main(list(argv))

    run("simulate", "simulate", "--weights-scheme", "rook", "--grid-shape", "6", "6",
        "--n", "36", "--contamination-fraction", "0.1", "--seed", "3", "--out", sim)
    for method in ("fpc", "rfpc", "fpls", "rfpls"):
        for estimator in ("ml", "m"):
            run(f"fit {method} {estimator}", "fit", *data, "--method", method,
                "--estimator", estimator, "--out", os.path.join(out, f"fit_{method}_{estimator}"))
    run("fit --select bic", "fit", *data, "--method", "fpls", "--select", "bic",
        "--out", os.path.join(out, "fit_bic"))
    run("fit --select cv:3", "fit", *data, "--method", "rfpls", "--estimator", "m",
        "--select", "cv:3", "--out", os.path.join(out, "fit_cv"))
    run("predict", "predict", "--model", os.path.join(out, "fit_rfpc_m", "model.json"),
        "--curves", f"{sim}/curves.csv", "--weights-matrix", f"{sim}/weights_matrix.csv",
        "--out", os.path.join(out, "pred"))
    run("diagnose", "diagnose", "--response", f"{sim}/response.csv",
        "--weights-matrix", f"{sim}/weights_matrix.csv", "--out", os.path.join(out, "diag"))
    run("weights", "weights", "--grid", "4", "4", "--scheme", "queen",
        "--out", os.path.join(out, "w"))
    print(json.dumps(codes))
""")


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=600, check=False,
    )


def test_import_loads_no_scipy():
    proc = run_python(
        "import json, sys, ssofr, ssofr.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_command_runs_without_scipy(tmp_path):
    proc = run_python(WITHOUT_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == 14
    assert codes == dict.fromkeys(codes, 0)
