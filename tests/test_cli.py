"""End-to-end command-line interface behaviour and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from sepfeti import cli, problems


@pytest.fixture()
def desk_config(tmp_path):
    cfg = problems.profile_config("lshape-desk")
    cfg["solver"].update(
        {"rank_max": 2, "max_sweeps": 3, "n_mc_residual": 400, "eps": 0.5}
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


RUN_OUTPUTS = ("solution.json", "trace.csv", "moments.csv", "summary.json")


def test_run_outputs_and_rerun_byte_identical(tmp_path, desk_config, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(desk_config), "--out-dir", str(d1)]) == 0
    assert (
        cli.main(
            [
                "run",
                "--config",
                str(desk_config),
                "--out-dir",
                str(d2),
                "--threads",
                "1",
            ]
        )
        == 0
    )
    for name in RUN_OUTPUTS:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    assert (d1 / "manifest.json").exists()
    summary = json.loads((d1 / "summary.json").read_text())
    assert summary["rank"] >= 1
    assert summary["eps_res"] > 0.0
    assert "config" in summary
    out = capsys.readouterr().out
    assert "rank" in out


def test_run_seed_changes_solution(tmp_path, desk_config):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(desk_config), "--out-dir", str(d1)]) == 0
    assert (
        cli.main(
            [
                "run",
                "--config",
                str(desk_config),
                "--out-dir",
                str(d2),
                "--seed",
                "7",
            ]
        )
        == 0
    )
    assert (d1 / "solution.json").read_text() != (d2 / "solution.json").read_text()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"fieldx": {"sigma1": 0.1}}))
    code = cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "fieldx" in capsys.readouterr().err


def test_auto_det_update_exit_2(tmp_path, desk_config, capsys):
    cfg = json.loads(desk_config.read_text())
    cfg["solver"]["det_update"] = "auto"
    desk_config.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = cli.main(["run", "--config", str(desk_config), "--out-dir", str(out)])
    assert code == 2
    assert "solver.det_update" in capsys.readouterr().err
    assert not (out / "solution.json").exists()


def test_missing_config_file_exit_1(tmp_path, capsys):
    code = cli.main(
        ["run", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "JSON" in capsys.readouterr().err


def test_negative_eps_exit_2(tmp_path, desk_config, capsys):
    code = cli.main(
        [
            "run",
            "--config",
            str(desk_config),
            "--out-dir",
            str(tmp_path / "o"),
            "--eps",
            "-1",
        ]
    )
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_reference_sg_and_compare_self(tmp_path, desk_config, capsys):
    ref_dir = tmp_path / "ref"
    assert (
        cli.main(
            [
                "reference",
                "--config",
                str(desk_config),
                "--method",
                "sg",
                "--out-dir",
                str(ref_dir),
            ]
        )
        == 0
    )
    moments = ref_dir / "moments.csv"
    assert moments.exists()
    table = np.loadtxt(moments, delimiter=",", skiprows=1, ndmin=2)
    assert table.shape[1] == 3
    assert np.all(table[:, 2] >= 0.0)

    out_file = tmp_path / "cmp.json"
    assert (
        cli.main(
            [
                "compare",
                "--candidate",
                str(moments),
                "--reference",
                str(moments),
                "--out",
                str(out_file),
            ]
        )
        == 0
    )
    payload = json.loads(out_file.read_text())
    assert payload["eps_mean"] == 0.0
    assert payload["eps_std"] == 0.0
    assert payload["std_defined"] is True


def test_one_sided_dirichlet_interface_node_run_reference_compare(tmp_path, one_sided_config):
    config = tmp_path / "one-sided.json"
    config.write_text(json.dumps(one_sided_config))
    run, ref = tmp_path / "run", tmp_path / "ref"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(run)]) == 0
    assert (
        cli.main(["reference", "--config", str(config), "--method", "sg", "--out-dir", str(ref)])
        == 0
    )
    out = tmp_path / "cmp.json"
    args = ["--candidate", str(run / "moments.csv"), "--reference", str(ref / "moments.csv")]
    assert cli.main(["compare", *args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["eps_mean"] < 1e-2


def test_reference_mc_summary(tmp_path, desk_config):
    ref_dir = tmp_path / "ref"
    assert (
        cli.main(
            [
                "reference",
                "--config",
                str(desk_config),
                "--method",
                "mc",
                "--samples",
                "64",
                "--seed",
                "3",
                "--out-dir",
                str(ref_dir),
            ]
        )
        == 0
    )
    summary = json.loads((ref_dir / "summary.json").read_text())
    assert summary["method"] == "mc"
    assert summary["n_samples"] == 64


def test_run_vs_reference_compare_finite(tmp_path, desk_config):
    run_dir, ref_dir = tmp_path / "run", tmp_path / "ref"
    assert cli.main(["run", "--config", str(desk_config), "--out-dir", str(run_dir)]) == 0
    assert (
        cli.main(
            [
                "reference",
                "--config",
                str(desk_config),
                "--method",
                "sg",
                "--out-dir",
                str(ref_dir),
            ]
        )
        == 0
    )
    out_file = tmp_path / "cmp.json"
    assert (
        cli.main(
            [
                "compare",
                "--candidate",
                str(run_dir / "moments.csv"),
                "--reference",
                str(ref_dir / "moments.csv"),
                "--out",
                str(out_file),
            ]
        )
        == 0
    )
    payload = json.loads(out_file.read_text())
    assert 0.0 < payload["eps_mean"] < 1.0


def test_reference_size_guard_exit_2(tmp_path, capsys):
    cfg = problems.profile_config("lshape-desk")
    cfg["pc"] = {"p1": 14, "p2": 14}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(
        [
            "reference",
            "--config",
            str(path),
            "--method",
            "sg",
            "--out-dir",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_profile_flag_builds_problem(tmp_path):
    out = tmp_path / "mesh"
    assert cli.main(["mesh-export", "--profile", "beam-desk", "--out-dir", str(out)]) == 0
    payload = json.loads((out / "mesh.json").read_text())
    assert payload["kind"] == "elasticity"
    assert len(payload["subdomains"]) == 2
    assert payload["subdomains"][1]["floating"] is True
    nodes = np.asarray(payload["subdomains"][0]["nodes"])
    assert nodes.ndim == 2 and nodes.shape[1] == 2


def test_compare_missing_file_exit_1(tmp_path, capsys):
    code = cli.main(
        [
            "compare",
            "--candidate",
            str(tmp_path / "a.csv"),
            "--reference",
            str(tmp_path / "b.csv"),
        ]
    )
    assert code == 1


def test_run_zero_variance_full_lshape_exit_0(tmp_path):
    # a zero-variance field on the 861-node meshes, whose KL otherwise
    # takes the Lanczos route
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps({"field": {"sigma1": 0.0}, "solver": {"rank_max": 1, "max_sweeps": 1}})
    )
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    assert (out / "solution.json").exists()


def test_run_solver_error_exit_3(tmp_path, desk_config, capsys, monkeypatch):
    from sepfeti import arr, feti

    def fail(*args, **kwargs):
        raise feti.SolverError("block saddle system is singular: test")

    monkeypatch.setattr(arr, "arr_run", fail)
    out = tmp_path / "o"
    code = cli.main(["run", "--config", str(desk_config), "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "singular" in err
    assert not (out / "solution.json").exists()


def test_run_pcpg_zero_factor_exit_3(tmp_path, capsys, monkeypatch):
    # a zero stochastic factor makes the local blocks singular: the banded
    # local factor of the interface iteration refuses it, and run exits 3
    from sepfeti import arr

    start = arr._append_random_factor

    def zero_factor(problem, solution, rng):
        grown = start(problem, solution, rng)
        grown.phi1[-1] = 0.0
        return grown

    monkeypatch.setattr(arr, "_append_random_factor", zero_factor)
    cfg = problems.profile_config("lshape-desk")
    cfg["solver"].update({"det_update": "pcpg", "rank_max": 1, "n_mc_residual": 400})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = cli.main(["run", "--config", str(path), "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "block operator is not positive definite (leading minor of order" in err
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize(
    "key, value, keyword",
    [
        ("rank_max", 0, "r_max"),
        ("max_sweeps", 0, None),
        ("n_mc_residual", 1, "n_mc_residual"),
        ("n_mc_residual", 0, "n_mc_residual"),
    ],
)
def test_unusable_solver_settings_exit_2(tmp_path, desk_config, capsys, key, value, keyword):
    # no rank or sweep to report, or a residual standard error from fewer
    # than two samples: refused in the config, and as arr_run arguments
    from sepfeti import arr

    cfg = json.loads(desk_config.read_text())
    cfg["solver"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "a")]) == 2
    assert f"solver.{key} must be >= " in capsys.readouterr().err
    if keyword is not None:
        problem = problems.build_from_config(json.loads(desk_config.read_text()))
        with pytest.raises(ValueError, match=f"solver.{key} must be >= "):
            arr.arr_run(problem, **{keyword: value})
    if key == "rank_max":
        args = ["run", "--config", str(desk_config), "--rank-max", "0"]
        assert cli.main([*args, "--out-dir", str(tmp_path / "b")]) == 2
        assert "solver.rank_max must be >= 1, not 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/summary.json"))
