"""Config fuzzing: whatever a valid config is mutated into, `eitlab run` keeps
its exit-code contract (0, 2 or 3) and never raises.

Each example starts from one small valid config per experiment kind and
overwrites one or two of its key paths with values from a fixed pool.  The
pool holds no mesh size small enough to allocate a large mesh, and the
configs carry no `rect`, so no example can exhaust memory.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import eitlab.cli as cli

_ADM = {"values": [[1, 0], [2, 1]], "lambda": 10.0}
_ADM_2 = {"values": [[1.5, 0.5], [2, 1]], "lambda": 10.0}
_GRID = {"partition": {"n_strips": 2}, "mesh": {"h": 1 / 16}}

BASES = {
    "forward": {"experiment": "forward", "seed": 7, "out_dir": "unused", **_GRID,
                "admittivity": _ADM, "params": {"datum": "x1"}},
    "dtn-norm": {"experiment": "dtn-norm", **_GRID, "admittivity": _ADM,
                 "admittivity_2": _ADM_2, "params": {"arc": "bottom"}},
    "identity-check": {"experiment": "identity-check", "seed": 3, **_GRID,
                       "admittivity": _ADM, "admittivity_2": _ADM_2,
                       "params": {"n_pairs": 2}},
    "asymptotics": {"experiment": "asymptotics", **_GRID, "admittivity": _ADM,
                    "params": {"link": 2, "radii_over_r0": [0.25, 0.125]}},
    "s-rate": {"experiment": "s-rate", "admittivity": _ADM, "admittivity_2": _ADM_2,
               "params": {"k": 2, "rho0": 0.25, "radii_over_rho0": [0.5, 0.25]}},
    "reconstruct": {"experiment": "reconstruct", **_GRID, "admittivity": _ADM_2,
                    "params": {"guess": [[1, 0], [1, 0]], "noise_levels": [1e-3],
                               "max_iter": 8}},
    "constant-bound": {"experiment": "constant-bound",
                       "params": {"n_max": 3, "C": 1.0, "dim": 3}},
    "sweep": {"experiment": "sweep", **_GRID,
              "admittivities": [{"values": [[1, 0], [1, 0]]}, {"values": [[1.25, 0], [1, 0]]}],
              "params": {"pairs": [[0, 1]], "arc": "full"}},
    "three-sphere": {"experiment": "three-sphere", "seed": 3,
                     "params": {"n_samples": 4, "max_degree": 3, "radius": 0.5}},
    "caccioppoli": {"experiment": "caccioppoli", "seed": 5, **_GRID,
                    "params": {"x0": [0.5, 0.5], "rho": 0.1, "R": 0.3, "n_samples": 3,
                               "max_degree": 4}},
}
BASES = {kind: {"version": 1, **cfg} for kind, cfg in BASES.items()}

POOL = [None, True, False, -1, 0, 1, 5, 400, 0.5, -0.5, 0.1, 1e300, -1e300, 1e-300,
        float("nan"), float("inf"), float("-inf"), "", "a", "bottom", [], {},
        [1, 0], [0.5, 0.25], [[1, 0]], ["a"]]


def _paths(obj, prefix=()):
    """Every key path in a JSON value, the root and containers included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _set(cfg, path, value):
    """`cfg` with the entry at `path` set to `value`."""
    if not path:
        return value
    target = cfg
    try:
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass                 # an earlier overwrite cut this path off
    return cfg


@st.composite
def mutated_configs(draw):
    kind = draw(st.sampled_from(sorted(BASES)))
    cfg = json.loads(json.dumps(BASES[kind]))
    paths = list(_paths(cfg))
    for _ in range(draw(st.integers(1, 2))):
        value = json.loads(json.dumps(draw(st.sampled_from(POOL))))
        cfg = _set(cfg, draw(st.sampled_from(paths)), value)
    return cfg


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(cfg=mutated_configs())
def test_mutated_config_keeps_exit_code_contract(tmp_path_factory, cfg):
    case = tmp_path_factory.mktemp("fuzz")
    path = case / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", str(path), "--out", str(case / "out")]) in (0, 2, 3)
