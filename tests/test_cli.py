import json
import warnings

import numpy as np
import pytest

from bomp.cli import main
from bomp.core import BlockedMatrix, BlockLayout, BlockSignal
from bomp.io import save_matrix, save_vector


@pytest.fixture
def instance_files(tmp_path):
    """Well-conditioned 12x8 system with truth on blocks (2, 4)."""
    rng = np.random.default_rng(50)
    layout = BlockLayout(4, 2)
    A = BlockedMatrix(layout, rng.normal(size=(12, 8)) / np.sqrt(12))
    x = BlockSignal.from_blocks(layout, {2: [2.0, -1.0], 4: [1.5, 0.5]})
    y = A.entries @ x.values
    save_matrix(tmp_path / "A.csv", A, tmp_path / "A.json")
    save_vector(tmp_path / "y.csv", y)
    return tmp_path


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_run_with_epsilon(instance_files, capsys):
    code = main([
        "run",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--obs", str(instance_files / "y.csv"),
        "--epsilon", "1e-10",
    ])
    assert code == 0
    payload = _json_out(capsys)
    assert sorted(payload["chosen_indices"]) == [2, 4]
    assert payload["status"] == "converged"
    assert payload["residual_norms"][-1] <= 1e-10


def test_run_writes_trace_file(instance_files, capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code = main([
        "run",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--obs", str(instance_files / "y.csv"),
        "--max-iter", "2",
        "--trace", str(trace_path),
    ])
    assert code == 0
    on_disk = json.loads(trace_path.read_text())
    assert on_disk == _json_out(capsys)
    assert on_disk["iterations_run"] == 2


def test_run_requires_a_stopping_flag(instance_files, capsys):
    code = main([
        "run",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--obs", str(instance_files / "y.csv"),
    ])
    assert code == 2
    assert "stopping" in capsys.readouterr().err


def test_run_rejects_overflowing_selection_scores(tmp_path, capsys):
    rng = np.random.default_rng(0)
    A = BlockedMatrix(BlockLayout(4, 2), rng.normal(size=(6, 8)))
    save_matrix(tmp_path / "A.csv", A, tmp_path / "A.json")
    save_vector(tmp_path / "y.csv", A.block(2) @ np.array([1e160, 2e160]))
    code = main([
        "run",
        "--matrix", str(tmp_path / "A.csv"),
        "--layout", str(tmp_path / "A.json"),
        "--obs", str(tmp_path / "y.csv"),
        "--max-iter", "1",
    ])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: the residual norm or the block selection scores overflow double precision"
    ]


def test_rip_exact_and_sampled(instance_files, capsys):
    args = [
        "rip",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--order", "2",
    ]
    assert main(args) == 0
    exact = _json_out(capsys)
    assert exact["order"] == 2
    assert exact["delta"] > 0.0
    assert exact["rip_holds"] == (exact["delta"] < 1.0)
    assert len(exact["arg_support"]) == 2

    assert main(args + ["--sample", "50", "--seed", "4"]) == 0
    sampled = _json_out(capsys)
    assert sampled["delta_lower_bound"] <= exact["delta"] + 1e-14
    assert sampled["trials"] == 50


def test_rip_budget_exit_code(instance_files, capsys):
    code = main([
        "rip",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--order", "2",
        "--budget", "1",
    ])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_rip_refuses_an_overflowing_gram(tmp_path, capsys):
    rng = np.random.default_rng(26)
    entries = rng.normal(size=(20, 12))
    entries[:, 3] *= 1e160  # second column of block 2
    save_matrix(tmp_path / "A.csv", BlockedMatrix(BlockLayout(6, 2), entries), tmp_path / "A.json")
    base = [
        "rip",
        "--matrix", str(tmp_path / "A.csv"),
        "--layout", str(tmp_path / "A.json"),
    ]
    for extra in (["--order", "1"], ["--order", "2"], ["--order", "2", "--sample", "5"]):
        assert main(base + extra) == 2, extra
        assert "Gram matrix" in _one_line_error(capsys)


def test_bounds_json(capsys):
    assert main(["bounds", "--K", "10", "--delta", "0.04", "--epsilon", "1"]) == 0
    payload = _json_out(capsys)
    assert payload["z1"] == pytest.approx(2.1964, abs=1e-3)
    assert payload["necessary"] == pytest.approx(1.1468, abs=1e-3)
    assert payload["verdict"] is None

    assert main([
        "bounds", "--K", "10", "--delta", "0.04", "--min-block-norm", "2.5",
    ]) == 0
    verdict = _json_out(capsys)["verdict"]
    assert verdict["guaranteed"] is True


def test_bounds_infeasible_exit_code(capsys):
    assert main(["bounds", "--K", "10", "--delta", "0.5"]) == 3
    assert "not below" in capsys.readouterr().err


def test_figure1_stdout_and_file(tmp_path, capsys):
    assert main(["figure1", "--K", "10,20", "--points", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "K,delta,z1,z2,diff"
    assert len(lines) == 1 + 8
    first = lines[1].split(",")
    assert first[0] == "10"
    assert float(first[4]) < 0.0

    out = tmp_path / "fig1.csv"
    assert main(["figure1", "--K", "10", "--points", "5", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "K,delta,z1,z2,diff"
    assert len(out.read_text().splitlines()) == 6


def test_figure1_rejects_bad_k_list(capsys):
    assert main(["figure1", "--K", "10,x"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_adversarial_writes_all_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "adv"
    code = main([
        "adversarial", "--d", "2", "--K", "3", "--delta", "0.2",
        "--epsilon", "1", "--out-dir", str(out_dir),
    ])
    assert code == 0
    for name in ("A.csv", "layout.json", "y.csv", "truth.csv", "report.json"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    assert report == _json_out(capsys)
    assert report["failed"] is True
    assert report["first_selected_index"] == 1
    assert report["t0"] < report["t0_failure_threshold"]
    assert json.loads((out_dir / "layout.json").read_text()) == {"m": 8, "M": 4, "d": 2}


def test_adversarial_rejects_bad_delta(tmp_path, capsys):
    # delta outside (0,1) is a usage error
    code = main([
        "adversarial", "--d", "1", "--K", "3", "--delta", "1.5",
        "--epsilon", "1", "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "delta" in capsys.readouterr().err
    # delta in (0,1) but outside the failure regime: no default t0 exists
    code = main([
        "adversarial", "--d", "1", "--K", "3", "--delta", "0.6",
        "--epsilon", "1", "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 3
    assert "not below" in capsys.readouterr().err


def test_verify_proofs_json(capsys):
    assert main(["verify-proofs", "--trials", "10", "--seed", "2"]) == 0
    payload = _json_out(capsys)
    assert payload["trials"] == 10
    assert payload["identity_passes"] == 10
    assert payload["lemma_failures"] == 0
    assert payload["worst_identity_residual"] < 1e-9


def test_experiment_roundtrip(tmp_path, capsys):
    cfg = {
        "m": 24, "M": 6, "d": 2, "K": 2, "noise_norm": 0.0,
        "min_block_norm": 1.0, "trials": 6, "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "result.json"
    assert main([
        "experiment", "--config", str(cfg_path), "--out", str(out_path),
    ]) == 0
    summary = _json_out(capsys)
    assert summary["recovery_rate"] == 1.0
    result = json.loads(out_path.read_text())
    assert result["config"]["trials"] == 6
    assert len(result["records"]) == 6

    # flag overrides beat the file
    assert main([
        "experiment", "--config", str(cfg_path), "--trials", "2",
    ]) == 0
    assert len(_json_out(capsys)["records"]) == 2


def test_experiment_config_errors(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 4}')
    assert main(["experiment", "--config", str(bad)]) == 2
    capsys.readouterr()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_experiment_rejects_unknown_stopping_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m": 24, "M": 6, "d": 2, "K": 2,
        "stopping": {"mode": "fixed_iterations", "bogus": 1},
    }))
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert "bogus" in _one_line_error(capsys)


def test_experiment_rejects_fractional_trials(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 24, "M": 6, "d": 2, "K": 2, "trials": 2.5}))
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert "trials must be an integer" in _one_line_error(capsys)


def test_experiment_rejects_removed_ensemble_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m": 24, "M": 6, "d": 2, "K": 2, "matrix_ensemble": "from_file",
    }))
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert "unknown config keys" in _one_line_error(capsys)


def test_negative_seed_is_a_usage_error(instance_files, capsys):
    cfg_path = instance_files / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 24, "M": 6, "d": 2, "K": 2}))
    for argv in (
        ["experiment", "--config", str(cfg_path), "--seed", "-1"],
        ["verify-proofs", "--trials", "1", "--seed", "-1"],
        [
            "rip",
            "--matrix", str(instance_files / "A.csv"),
            "--layout", str(instance_files / "A.json"),
            "--order", "2", "--sample", "5", "--seed", "-1",
        ],
    ):
        assert main(argv) == 2, argv
        assert "seed" in _one_line_error(capsys)


def test_bounds_reject_infinite_epsilon(capsys):
    for argv in (
        ["bounds", "--K", "2", "--delta", "0.1", "--epsilon", "inf"],
        ["figure1", "--K", "2", "--points", "3", "--epsilon", "inf"],
    ):
        assert main(argv) == 2, argv
        assert "epsilon" in _one_line_error(capsys)


def test_bounds_reject_overflowing_epsilon(capsys):
    assert main(["bounds", "--K", "2", "--delta", "0.1", "--epsilon", "1e308"]) == 2
    assert "not finite" in _one_line_error(capsys)


def test_figure1_rejects_overflowing_epsilon(capsys):
    assert main(["figure1", "--K", "2", "--points", "3", "--epsilon", "1e308"]) == 2
    assert "not finite" in _one_line_error(capsys)


def test_bounds_reject_delta_at_the_rounding_edge(capsys):
    # just below 1/sqrt(3), where the necessary bound's denominator rounds to 0
    assert main(["bounds", "--K", "2", "--delta", "0.5773502691896257"]) == 2
    assert "necessary bound is not finite" in _one_line_error(capsys)


def test_bounds_reject_nan_min_block_norm(capsys):
    assert main(["bounds", "--K", "2", "--delta", "0.1", "--min-block-norm", "nan"]) == 2
    assert "min_block_norm" in _one_line_error(capsys)


def test_run_rejects_layout_that_is_a_list(instance_files, capsys):
    layout = instance_files / "list.json"
    layout.write_text("[12, 4, 2]")
    code = main([
        "run",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(layout),
        "--obs", str(instance_files / "y.csv"),
        "--max-iter", "2",
    ])
    assert code == 2
    assert "must be a JSON object" in _one_line_error(capsys)


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "adversarial" in capsys.readouterr().out


def test_figure1_rejects_k_below_one(capsys):
    for K in ("-1", "-2"):
        assert main(["figure1", "--K", K, "--points", "3"]) == 2, K
        assert f"K must be a positive integer, got {K}" in _one_line_error(capsys)


def test_run_rejects_an_empty_csv(instance_files, capsys):
    empty = instance_files / "empty.csv"
    empty.write_text("")
    files = {"--matrix": instance_files / "A.csv", "--obs": instance_files / "y.csv"}
    for flag in files:
        paths = {**files, flag: empty}
        argv = ["run", "--layout", str(instance_files / "A.json"), "--max-iter", "1"]
        for name, path in paths.items():
            argv += [name, str(path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2, flag
        assert not caught, flag
        assert f"{empty} holds no numbers" in _one_line_error(capsys)
