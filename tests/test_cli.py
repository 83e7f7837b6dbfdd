import json
import time
from pathlib import Path

import numpy as np
import pytest

import eitlab.cli as cli
from eitlab import dtn, forward
from eitlab.forward import FemSystem


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


BASE_FORWARD = {
    "version": 1,
    "experiment": "forward",
    "seed": 7,
    "partition": {"n_strips": 2},
    "mesh": {"h": 1 / 16},
    "admittivity": {"values": [[1, 0], [1, 1]], "lambda": 10.0},
    "params": {"datum": "x1"},
}


def test_list_has_ten_kinds(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert len(cli.EXPERIMENTS) == 10
    for kind in cli.EXPERIMENTS:
        assert kind in out


def test_list_json(capsys):
    assert cli.main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 10
    assert {"kind", "description", "params"} <= set(payload[0])


def test_forward_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_FORWARD)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "solution.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "forward"
    assert manifest["config"] == BASE_FORWARD
    assert manifest["mesh_hash"]
    assert manifest["outputs"] == ["solution.csv"]
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "node_index,x,y,re_u,im_u"


def test_identity_check_rel_err(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "identity-check",
        "seed": 3,
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
        "params": {"n_pairs": 3},
    })
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "identity.csv").read_text().splitlines()
    assert lines[0] == "pair_id,lhs_re,lhs_im,rhs_re,rhs_im,rel_err"
    for line in lines[1:]:
        assert float(line.split(",")[-1]) <= 1e-10


def test_validation_error_names_ellipticity(tmp_path, capsys):
    bad = dict(BASE_FORWARD)
    bad["admittivity"] = {"values": [[1, 0], [0, 1]], "lambda": 10.0}
    cfg = write_config(tmp_path, bad)
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "ellipticity" in err
    assert "admittivity 2" in err


def test_validation_unknown_key(tmp_path, capsys):
    bad = dict(BASE_FORWARD)
    bad["extra"] = True
    cfg = write_config(tmp_path, bad)
    assert cli.main(["run", str(cfg)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_validation_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validation_too_coarse(tmp_path, capsys):
    bad = dict(BASE_FORWARD)
    bad["mesh"] = {"h": 0.75}
    cfg = write_config(tmp_path, bad)
    assert cli.main(["run", str(cfg)]) == 2
    assert "resolve" in capsys.readouterr().err


def test_reproducible_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "identity-check",
        "seed": 11,
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
        "params": {"n_pairs": 2},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "identity.csv").read_bytes() == (out2 / "identity.csv").read_bytes()


def test_seed_override_changes_random_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "identity-check",
        "seed": 11,
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
        "params": {"n_pairs": 2},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "identity.csv").read_bytes() != (out2 / "identity.csv").read_bytes()
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["seed"] == 99


def test_constant_bound_experiment(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "constant-bound",
        "params": {"n_max": 4, "C": 1.0, "dim": 3},
    })
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "constant_bound.csv").read_text().splitlines()
    assert lines[0] == "N,log10_bound,tower_depth,tower_value"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(110.878, abs=0.1)
    assert len(lines) == 5


def test_constant_bound_takes_a_large_n_max_in_seconds(tmp_path):
    # each bound jumps to its final tower depth instead of stepping N times
    cfg = write_config(tmp_path, _with(_CONSTANT_BOUND, ("params", "n_max"), 100000))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 20.0
    lines = (out / "constant_bound.csv").read_text().splitlines()
    assert len(lines) == 100001
    assert lines[-1].startswith("100000,")


def test_sweep_experiment_with_threads(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "sweep",
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "admittivities": [
            {"values": [[1, 0], [1, 0]], "lambda": 10.0},
            {"values": [[1.25, 0], [1, 0]], "lambda": 10.0},
            {"values": [[1, 0], [1.25, 0]], "lambda": 10.0},
        ],
        "params": {"arc": "bottom"},
    })
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "scenario_id,N,E,eps,ratio,h"
    ratios = [float(line.split(",")[4]) for line in lines[1:]]
    assert ratios[1] > ratios[0]      # deeper strip is harder to see


def test_bottom_arc_sweep_csv_is_the_same_at_one_and_two_threads(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "sweep",
        "partition": {"n_strips": 3, "with_extension": True},
        "mesh": {"h": 1 / 30},
        "admittivities": [
            {"values": [[1.2, 0.3], [1.9, -0.5], [0.8, 0.1]], "lambda": 10.0},
            {"values": [[1.5, 0.3], [1.9, -0.5], [0.8, 0.1]], "lambda": 10.0},
            {"values": [[1.2, 0.3], [1.6, -0.2], [0.8, 0.1]], "lambda": 10.0},
            {"values": [[1.2, 0.3], [1.9, -0.5], [1.1, 0.4]], "lambda": 10.0},
        ],
        "params": {"arc": "bottom"},
    })
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        assert cli.main(["run", str(cfg), "--out", str(out), "--threads", threads]) == 0
        bodies.append((out / "sweep.csv").read_bytes())
    assert bodies[0] == bodies[1]



def test_bottom_arc_sweep_csv_does_not_depend_on_the_order_of_its_pairs(tmp_path):
    # every admittivity's mode map comes from one stacked pass, and each one's
    # values do not depend on the batch's order or makeup
    base = [[1.2, 0.3], [1.9, -0.5], [0.8, 0.1]]
    admittivities = [{"values": base, "lambda": 10.0}] + [
        {"values": [v if i != j else [v[0] + 0.3, v[1] + 0.2] for i, v in enumerate(base)],
         "lambda": 10.0} for j in range(3)]

    def sweep(name, pairs):
        cfg = write_config(tmp_path, {
            "version": 1,
            "experiment": "sweep",
            "partition": {"n_strips": 3, "with_extension": True},
            "mesh": {"h": 1 / 30},
            "admittivities": admittivities,
            "params": {"arc": "bottom", "pairs": pairs},
        }, name=f"{name}.json")
        out = tmp_path / cfg.stem
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        return (out / "sweep.csv").read_bytes()

    body = sweep("base", [[0, 1], [0, 2], [0, 3]])
    assert sweep("swapped", [[1, 0], [2, 0], [3, 0]]) == body
    header, *rows = body.decode().splitlines()
    backwards = sweep("reversed", [[3, 0], [2, 0], [1, 0]])
    reversed_header, *reversed_rows = backwards.decode().splitlines()
    assert reversed_header == header
    assert [r.split(",", 1)[1] for r in reversed(reversed_rows)] == \
        [r.split(",", 1)[1] for r in rows]


def _s_rate_run(tmp_path, rho0):
    """Exit status and `s_rate.csv` rows (None on failure) of the smoke
    s-rate run at region size `rho0`."""
    cfg = write_config(tmp_path, _with(_SMOKE["s-rate"], ("params", "rho0"), rho0),
                       name=f"rho0-{rho0!r}.json")
    out = tmp_path / cfg.stem
    status = cli.main(["run", str(cfg), "--out", str(out)])
    if status != 0:
        return status, None
    lines = (out / "s_rate.csv").read_text().splitlines()[1:]
    return status, [[float(x) for x in line.split(",")] for line in lines]


def _assert_scales_as_one_over_rho0(tmp_path, rows, rho0, rel):
    unit_status, unit = _s_rate_run(tmp_path, 1.0)
    assert unit_status == 0
    for (r, s, slope), (r1, s1, slope1) in zip(rows, unit):
        assert r / rho0 == pytest.approx(r1, rel=1e-15)
        assert s * rho0 == pytest.approx(s1, rel=rel)
        assert slope == pytest.approx(slope1, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho0, code", [(1e-160, 0), (1e-300, 0), (1e-310, 3), (5e-324, 2)],
                         ids=["1e-160", "1e-300", "1e-310", "subnormal"])
def test_s_rate_with_a_tiny_rho0_keeps_the_cli_contract(tmp_path, capsys, rho0, code):
    # the probe integral is taken in units of rho0, so a tiny region neither
    # underflows nor warns; S scales exactly as 1 / rho0
    status, rows = _s_rate_run(tmp_path, rho0)
    err = capsys.readouterr().err
    assert status == code
    if status != 0:
        assert err.startswith(("numeric failure:", "validation error:"))
        assert "Traceback" not in err
        return
    assert np.isfinite(rows).all()
    _assert_scales_as_one_over_rho0(tmp_path, rows, rho0, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho0", [1e160, 1e300, 1.7e308], ids=["1e160", "1e300", "1.7e308"])
def test_s_rate_with_a_huge_rho0_runs(tmp_path, rho0):
    # in units of rho0, rho0 ** 2 cannot overflow either; at 1.7e308 the
    # values are subnormal and keep about 14 digits
    status, rows = _s_rate_run(tmp_path, rho0)
    assert status == 0
    assert np.isfinite(rows).all()
    _assert_scales_as_one_over_rho0(tmp_path, rows, rho0, rel=1e-13)


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    def broken(scn, rng):
        raise cli.NumericFailure("synthetic breakdown")
    monkeypatch.setitem(cli.EXPERIMENTS, "forward",
                        (broken,) + cli.EXPERIMENTS["forward"][1:])
    cfg = write_config(tmp_path, BASE_FORWARD)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_asymptotics_experiment(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "asymptotics",
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 32},
        "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
        "params": {"link": 2, "radii_over_r0": [0.25, 0.125, 0.0625]},
    })
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "asymptotics.csv").read_text().splitlines()
    assert lines[0] == "r,deviation,grad_deviation"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["verdict"] == "bounded"


_ASYMPTOTICS = {
    "version": 1,
    "experiment": "asymptotics",
    "partition": {"n_strips": 2},
    "mesh": {"h": 1 / 16},
    "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
    "params": {"link": 2, "radii_over_r0": [0.25, 0.125]},
}
_S_RATE = {
    "version": 1,
    "experiment": "s-rate",
    "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
    "admittivity_2": {"values": [[1, 0], [1.5, 0]], "lambda": 10.0},
    "params": {"k": 2},
}
_DTN_NORM = {
    "version": 1,
    "experiment": "dtn-norm",
    "partition": {"n_strips": 3},
    "mesh": {"h": 1 / 16},
    "admittivity": {"values": [[1, 0], [2, 1], [1, 0]], "lambda": 10.0},
    "admittivity_2": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
}


_DTN_NORM_OK = {
    "version": 1,
    "experiment": "dtn-norm",
    "partition": {"n_strips": 2},
    "mesh": {"h": 1 / 16},
    "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
    "admittivity_2": {"values": [[1.5, 0.5], [2, 1]], "lambda": 10.0},
    "params": {"arc": "bottom"},
}
# the five runners no other test drives past validation, at small sizes, plus
# the harmonic datum of `forward`
_SMOKE = {
    "forward-harmonic": dict(BASE_FORWARD, params={
        "datum": {"kind": "harmonic", "degree": 3, "part": "im"}}),
    "dtn-norm": _DTN_NORM_OK,
    "reconstruct": {
        "version": 1,
        "experiment": "reconstruct",
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "admittivity": {"values": [[1.5, 0.5], [2, 1]], "lambda": 10.0},
        "params": {"max_iter": 8, "noise_levels": [1e-3]},
    },
    "s-rate": dict(_S_RATE, params={"k": 2, "radii_over_rho0": [0.5, 0.25]}),
    "three-sphere": {
        "version": 1,
        "experiment": "three-sphere",
        "seed": 3,
        "params": {"n_samples": 4, "max_degree": 3, "radius": 0.5},
    },
    "caccioppoli": {
        "version": 1,
        "experiment": "caccioppoli",
        "seed": 5,
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "params": {"x0": [0.5, 0.5], "rho": 0.1, "R": 0.3, "n_samples": 3},
    },
}
_IDENTITY = {
    "version": 1,
    "experiment": "identity-check",
    "partition": {"n_strips": 2},
    "mesh": {"h": 1 / 16},
    "admittivity": {"values": [[1, 0], [2, 1]], "lambda": 10.0},
    "params": {"n_pairs": 2},
}
_SWEEP = {
    "version": 1,
    "experiment": "sweep",
    "partition": {"n_strips": 2},
    "mesh": {"h": 1 / 16},
    "admittivities": [{"values": [[1, 0], [1, 0]]}, {"values": [[1.25, 0], [1, 0]]}],
}
_CONSTANT_BOUND = {
    "version": 1,
    "experiment": "constant-bound",
    "params": {"n_max": 2, "C": 1.0, "dim": 3},
}


def _with(base, path, value):
    """Copy of `base` with the entry at key path `path` set to `value`."""
    cfg = json.loads(json.dumps(base))
    if path:
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return cfg


@pytest.mark.parametrize("base, path, value", [
    (BASE_FORWARD, ("admittivity", "values"), [[float("nan"), 0], [1, 1]]),
    (BASE_FORWARD, ("admittivity", "lambda"), float("inf")),
    (_S_RATE, ("params", "radii_over_rho0"), ["a"]),
    (_ASYMPTOTICS, ("params", "link"), 7),
    (_ASYMPTOTICS, ("params", "radii_over_r0"), [0.6, 0.25]),
    (_DTN_NORM, (), None),
    (_SMOKE["s-rate"], ("params", "radii_over_rho0"), []),
    (_SMOKE["s-rate"], ("params", "radii_over_rho0"), [-0.1]),
    (_SMOKE["s-rate"], ("params", "rho0"), 0),
    (_SMOKE["s-rate"], ("admittivity_2", "values"), [[1, 0]]),
    (_SMOKE["three-sphere"], ("params", "radius"), 0),
    (_SMOKE["three-sphere"], ("params",), {"n_samples": 0, "max_degree": 0}),
    (_IDENTITY, ("params", "n_pairs"), 0),
    (_SMOKE["caccioppoli"], ("params", "n_samples"), 0),
    (_SMOKE["caccioppoli"], ("params", "rho"), -0.1),
    (_SMOKE["reconstruct"], ("params", "max_iter"), -1),
    (_SMOKE["reconstruct"], ("params", "guess"), 5),
    (_SMOKE["reconstruct"], ("params", "guess"), [[0.01, 0], [1, 0]]),
    (_SWEEP, ("params",), {"pairs": 5}),
    (_ASYMPTOTICS, ("params", "radii_over_r0"), []),
    (_ASYMPTOTICS, ("params", "radii_over_r0"), [0.25]),
    (_ASYMPTOTICS, ("params", "radii_over_r0"), [0.25, 0.25]),
    (_SMOKE["s-rate"], ("params", "radii_over_rho0"), [0.5]),
    (_SWEEP, ("params",), {"pairs": [[0, -1]]}),
    (_SWEEP, ("admittivities", 1), {"values": [[1.25, 0], [1, 0], [1, 0]]}),
    (BASE_FORWARD, ("experiment",), ["forward"]),
    (BASE_FORWARD, ("out_dir",), 5),
    (_SWEEP, ("admittivities",), 5),
    (BASE_FORWARD, ("seed",), -1),
    (BASE_FORWARD, ("mesh", "h"), 1e-300),
    (_CONSTANT_BOUND, ("params", "dim"), 400),
    (_CONSTANT_BOUND, ("params", "dim"), 10 ** 400),
    (_CONSTANT_BOUND, ("params",), {"dim": 5, "C": 0.1}),
    (BASE_FORWARD, ("version",), True),
    (_S_RATE, ("admittivity_2", "values"), [[1, 0], [2, 1]]),
    (BASE_FORWARD, ("mesh", "h"), 1e-9),
    (BASE_FORWARD, ("partition", "rect"), [0, 0, 0.05, 1]),
], ids=["nan-admittivity", "inf-lambda", "radius-not-a-number",
        "no-such-link", "radius-beyond-r0", "strip-count-mismatch",
        "s-rate-no-radii", "s-rate-negative-radius", "s-rate-zero-rho0",
        "s-rate-strip-count-mismatch",
        "three-sphere-zero-radius", "three-sphere-no-samples",
        "identity-no-pairs", "caccioppoli-no-samples", "caccioppoli-negative-rho",
        "reconstruct-negative-max-iter", "reconstruct-guess-not-a-list",
        "reconstruct-guess-outside-ellipticity",
        "sweep-pairs-not-a-list", "asymptotics-no-radii", "asymptotics-one-radius",
        "asymptotics-repeated-radius", "s-rate-one-radius", "sweep-negative-pair-index",
        "sweep-mixed-strip-counts", "experiment-not-a-string", "out-dir-not-a-string",
        "admittivities-not-a-list", "negative-seed", "unrepresentable-mesh-size",
        "constant-bound-huge-dim", "constant-bound-dim-beyond-float",
        "constant-bound-outside-branch", "version-true",
        "s-rate-zero-jump", "mesh-too-many-nodes", "mesh-one-cell-wide"])
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, recwarn, base, path,
                                              value):
    cfg = _with(base, path, value)
    assert cli.main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err
    assert not [str(w.message) for w in recwarn]


@pytest.mark.parametrize("out, flags", [
    ("out", ["--threads", "0"]), ("out", ["--seed", "-1"]),
    ("file", []), ("file/sub", []),
], ids=["zero-threads", "negative-seed", "out-is-a-file", "out-under-a-file"])
def test_bad_flag_exits_2_without_traceback(tmp_path, capsys, out, flags):
    cfg = write_config(tmp_path, _SWEEP)
    (tmp_path / "file").write_text("kept\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "file").read_text() == "kept\n"


def test_sweep_mixed_strip_counts_rejected_at_parse_time_with_two_threads(tmp_path, capsys):
    cfg = _with(_SWEEP, ("admittivities", 1), {"values": [[1.25, 0], [1, 0], [1, 0]]})
    assert cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out"),
                     "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert "config.admittivities[1]: 3 values for 2 strips" in err
    assert "Traceback" not in err


_COARSE_RECONSTRUCT = _with(_SMOKE["reconstruct"], ("mesh", "h"), 0.25)


@pytest.mark.parametrize("cfg", [
    _with(BASE_FORWARD, ("params", "datum"), {"kind": "harmonic", "degree": -1}),
    _with(_DTN_NORM_OK, ("admittivity_2",), _DTN_NORM_OK["admittivity"]),
    _with(_COARSE_RECONSTRUCT, ("params", "noise_levels"), [1e308]),
    _with(_COARSE_RECONSTRUCT, ("params", "noise_levels"), [1e200]),
    _with(_COARSE_RECONSTRUCT, ("params", "noise_levels"), [1.7e308]),
    _with(_SMOKE["s-rate"], ("params", "radii_over_rho0"), [1e-200, 0.25]),
    _with(_SMOKE["s-rate"], ("params", "radii_over_rho0"), [1e-300, 0.25]),
], ids=["forward-pole-at-a-node", "dtn-norm-zero-eps", "reconstruct-noise-1e308",
        "reconstruct-misfit-overflows", "reconstruct-noisy-map-overflows",
        "s-rate-depth-1e-200", "s-rate-depth-1e-300"])
def test_nan_output_exits_3(tmp_path, capsys, recwarn, cfg):
    out = tmp_path / "out"
    assert cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "Traceback" not in err
    assert not list(out.glob("*.csv"))
    assert not [str(w.message) for w in recwarn]


@pytest.mark.parametrize("kind", sorted(_SMOKE))
def test_runner_smoke_is_reproducible(tmp_path, kind):
    cfg = write_config(tmp_path, _SMOKE[kind])
    bodies = []
    for run in ("a", "b"):
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / run)]) == 0
        csvs = sorted((tmp_path / run).glob("*.csv"))
        assert csvs
        bodies.append({p.name: p.read_bytes() for p in csvs})
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("kind", sorted(_SMOKE))
def test_rerun_into_same_out_dir_rewrites_identical_outputs(tmp_path, kind):
    cfg = write_config(tmp_path, _SMOKE[kind])
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        cli.run_scenario(cfg, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        del manifest["wall_time_s"]
        runs.append(({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}, manifest))
    assert runs[0][0]
    assert runs[0] == runs[1]


def test_corrector_residual_failure_exits_3(tmp_path, capsys, monkeypatch):
    # the config's generated mesh solves through its sine modes: skew that solve
    solve = FemSystem._mode_solve
    monkeypatch.setattr(FemSystem, "_mode_solve", lambda system, rhs: 1.01 * solve(system, rhs))
    cfg = write_config(tmp_path, _ASYMPTOTICS)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "residual" in capsys.readouterr().err


def test_reconstruct_noise_past_lambda_stays_admissible(tmp_path, capsys):
    # noise this large drives Gauss-Newton iterates out of the admissible
    # set; each must be projected back into it, not merely toward it
    cfg = write_config(tmp_path, {
        "version": 1,
        "experiment": "reconstruct",
        "partition": {"n_strips": 2},
        "mesh": {"h": 1 / 16},
        "admittivity": {"values": [[0.8702539555789301, 1.0966576734784768], [1.0, 0.0]],
                        "lambda": 2.0},
        "params": {"noise_levels": [30.0]},
    })
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    assert (out / "noise_sweep.csv").exists()


def _reconstruct_counts(tmp_path, monkeypatch, config):
    """Run a reconstruct config; return its factorization count, its count
    of derivative-column builds, the result of each Gauss-Newton run and its
    count of boundary Gram builds."""
    factorizations = []
    splu = forward.splu

    def counted(A):
        factorizations.append(A.shape)
        return splu(A)

    builds = []
    derivatives = FemSystem.derivatives
    runs = []
    reconstruct = cli.gauss_newton_reconstruct

    def traced(*args, **kwargs):
        runs.append(reconstruct(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(forward, "splu", counted)
    monkeypatch.setattr(FemSystem, "derivatives",
                        lambda system: builds.append(system) or derivatives(system))
    monkeypatch.setattr(cli, "gauss_newton_reconstruct", traced)
    grams = []
    gram = dtn.h_half_gram
    monkeypatch.setattr(dtn, "h_half_gram", lambda *args: grams.append(args) or gram(*args))
    cfg = write_config(tmp_path, config)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return len(factorizations), len(builds), runs, len(grams)


def _steps(res, max_iter):
    """Gauss-Newton iterates that computed a step: every build but the last,
    unless the last stopped on a vanishing step, which it had to compute."""
    return len(res.history) - (res.converged or res.iterations == max_iter)


def test_reconstruct_factorizes_the_truth_once(tmp_path, monkeypatch):
    # on a strip mesh neither a DtN map nor its derivative columns factorize;
    # only the truth's Jacobian (for the worst-case noise direction) and each
    # iterate that computes a step build derivative columns, once each
    config = _SMOKE["reconstruct"]
    max_iter = config["params"]["max_iter"]
    count, builds, runs, grams = _reconstruct_counts(tmp_path, monkeypatch, config)
    assert len(runs) == 2
    assert runs[0].converged                       # its last build forms nothing
    assert not runs[1].converged and runs[1].iterations < max_iter   # a vanishing step
    assert count == 0
    assert builds == 1 + sum(_steps(r, max_iter) for r in runs)
    # the truth's Jacobian and both Gauss-Newton runs share one boundary Gram
    assert grams == 1


def test_reconstruct_without_noise_forms_no_truth_lifting(tmp_path, monkeypatch):
    config = dict(_SMOKE["reconstruct"], params={"max_iter": 8})
    count, builds, runs, _ = _reconstruct_counts(tmp_path, monkeypatch, config)
    assert len(runs) == 1 and runs[0].converged
    assert count == 0
    assert builds == len(runs[0].history) - 1


_FALLBACK = json.loads((Path(__file__).resolve().parents[1] / "demos" / "configs"
                        / "reconstruct_h30.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
def test_reconstruct_fallback_factorizes_each_build_once(tmp_path, monkeypatch, noise):
    # h = 1/30 leaves the node columns unevenly spaced in floating point, and
    # still no build factorizes: every mesh the CLI builds takes sine modes
    config = _FALLBACK if noise else dict(_FALLBACK, params={})
    max_iter = 30                                  # the CLI default
    count, builds, runs, _ = _reconstruct_counts(tmp_path, monkeypatch, config)
    assert len(runs) == (2 if noise else 1)
    assert count == 0
    truth = 1 if noise else 0                      # the noise direction's Jacobian
    assert builds == truth + sum(_steps(r, max_iter) for r in runs)
