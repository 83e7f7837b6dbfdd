"""Which runs load scipy: the package, an s-rate run, a bottom-arc sweep and
an asymptotics run on a strip grid never call it, so they must not import
it.  A grid's corrector solve never factorizes and reads its stiffness from
the band couplings, so it loads neither SuperLU nor scipy.sparse."""

import json
import subprocess
import sys
from pathlib import Path

import eitlab

# run in a fresh interpreter, so that no other test's imports count; prints
# the scipy modules loaded after each step as one JSON object
_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import eitlab, eitlab.cli
loaded["import"] = scipy_modules()
for name in ("s_rate", "bottom_sweep", "asymptotics", "dtn_norm"):
    eitlab.cli.run_scenario(sys.argv[2] + f"/{name}.json", out_dir=sys.argv[2] + f"/{name}")
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""

_CONFIGS = {
    "s_rate": {
        "version": 1,
        "experiment": "s-rate",
        "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
        "admittivity_2": {"values": [[1, 0], [1.5, 0]], "lambda": 10.0},
        "params": {"k": 2, "radii_over_rho0": [0.5, 0.25]},
    },
    "bottom_sweep": {
        "version": 1,
        "experiment": "sweep",
        "partition": {"n_strips": 3, "with_extension": True},
        "mesh": {"h": 1 / 16},
        "admittivities": [
            {"values": [[1.5, 0.3], [1.9, -0.5], [0.8, 0.1]]},
            {"values": [[1.2, 0.3], [1.6, -0.2], [0.8, 0.1]]},
        ],
        "params": {"arc": "bottom"},
    },
    # the corrector solves through sine modes, and its right-hand side and
    # residual check read the couplings: no sparse matrix is assembled
    "asymptotics": {
        "version": 1,
        "experiment": "asymptotics",
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
        "params": {"link": 2, "radii_over_r0": [0.25, 0.125]},
    },
    # the full map's fractional Gram matrix takes a dense Cholesky factor
    "dtn_norm": {
        "version": 1,
        "experiment": "dtn-norm",
        "partition": {"n_strips": 3, "with_extension": True},
        "mesh": {"h": 1 / 16},
        "admittivity": {"values": [[1.2, 0.3], [1.9, -0.5], [0.8, 0.1]]},
        "admittivity_2": {"values": [[1.2, 0.3], [1.9, -0.5], [1.1, 0.4]]},
        "params": {"arc": "full"},
    },
}


def test_scipy_loads_only_for_runs_that_call_it(tmp_path):
    for name, cfg in _CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    src = str(Path(eitlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _SCRIPT, src, str(tmp_path)],
                          capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["s_rate"] == []
    assert loaded["bottom_sweep"] == []
    assert loaded["asymptotics"] == []
    # the check sees scipy when a run does load it
    assert "scipy.linalg" in loaded["dtn_norm"]
    assert "scipy.sparse" not in loaded["dtn_norm"]
