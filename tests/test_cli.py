import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bomp.cli import _build_parser, main
from bomp.core import BlockedMatrix, BlockLayout, BlockSignal
from bomp.io import load_matrix, save_matrix, save_vector
from bomp.rip import exact_block_rip

ROOT = Path(__file__).resolve().parents[1]


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
    # the scores are taken at unit scale, so an observation of 1e160 picks as
    # at scale 1; one whose norm is past the double range is refused
    rng = np.random.default_rng(0)
    A = BlockedMatrix(BlockLayout(4, 2), rng.normal(size=(6, 8)))
    save_matrix(tmp_path / "A.csv", A, tmp_path / "A.json")
    argv = [
        "run",
        "--matrix", str(tmp_path / "A.csv"),
        "--layout", str(tmp_path / "A.json"),
        "--obs", str(tmp_path / "y.csv"),
        "--max-iter", "1",
    ]
    for scale in (1.0, 1e160):
        save_vector(tmp_path / "y.csv", A.block(2) @ np.array([scale, 2.0 * scale]))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["chosen_indices"] == [4]
    save_vector(tmp_path / "y.csv", np.full(6, 1e308))
    code = main(argv)
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: the residual norm or the block selection scores overflow double precision"
    ]


def test_run_rejects_an_overflowing_estimate(tmp_path, capsys):
    rng = np.random.default_rng(0)
    A = BlockedMatrix(BlockLayout(5, 2), 1e-300 * rng.normal(size=(20, 10)))
    save_matrix(tmp_path / "A.csv", A, tmp_path / "A.json")
    save_vector(tmp_path / "y.csv", 1e10 * rng.normal(size=20))
    code = main([
        "run",
        "--matrix", str(tmp_path / "A.csv"),
        "--layout", str(tmp_path / "A.json"),
        "--obs", str(tmp_path / "y.csv"),
        "--max-iter", "3",
    ])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: the least-squares estimate overflows double precision"]


def _system_files(directory, matrix: BlockedMatrix, y) -> list:
    """The ``--matrix``, ``--layout`` and ``--obs`` flags of ``matrix`` and
    ``y``, written under ``directory``."""
    save_matrix(directory / "A.csv", matrix, directory / "A.json")
    save_vector(directory / "y.csv", y)
    return [
        "--matrix", str(directory / "A.csv"),
        "--layout", str(directory / "A.json"),
        "--obs", str(directory / "y.csv"),
    ]


def test_run_reports_a_rank_deficient_pick_in_one_line(tmp_path, capsys):
    # block 3 repeats the first column of block 1, and the first two picks take both
    rng = np.random.default_rng(15)
    entries = rng.normal(size=(10, 8))
    entries[:, 4] = entries[:, 0]
    y = entries @ np.array([3.0, 2.5, 0.0, 0.0, 2.0, 4.0, 0.0, 0.0]) + 0.1 * rng.normal(size=10)
    files = _system_files(tmp_path, BlockedMatrix(BlockLayout(4, 2), entries), y)
    assert main(["run", *files, "--max-iter", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1, lines
    # the smallest singular value the line prints is round-off: match the rest
    assert lines[0].startswith("error: subdictionary on blocks [1, 3] is rank deficient"), lines


def test_run_with_both_flags_stops_at_whichever_fires_first(instance_files, capsys):
    rng = np.random.default_rng(51)
    clean = np.loadtxt(instance_files / "y.csv", delimiter=",")
    save_vector(instance_files / "noisy.csv", clean + 0.1 * rng.normal(size=clean.size))

    def run(obs, *flags):
        code = main([
            "run",
            "--matrix", str(instance_files / "A.csv"),
            "--layout", str(instance_files / "A.json"),
            "--obs", str(instance_files / obs),
            *flags,
        ])
        assert code == 0
        payload = _json_out(capsys)
        return payload["iterations_run"], payload["status"]

    # the residual reaches epsilon after the two true blocks, inside the budget
    assert run("y.csv", "--epsilon", "1e-10", "--max-iter", "4") == (2, "converged")
    # the budget fires before the residual gets there: still converged
    assert run("y.csv", "--epsilon", "1e-10", "--max-iter", "1") == (1, "converged")
    # epsilon alone, out of reach of the noise: the four blocks run out first
    assert run("noisy.csv", "--epsilon", "1e-3") == (4, "iteration_budget_exceeded")


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

    assert main(args + ["--search", "4"]) == 0
    searched = _json_out(capsys)
    assert searched["delta_lower_bound"] <= exact["delta"]
    assert searched["starts"] == 4
    witness = searched["witness"]
    assert len(witness) == 2 and 1 <= witness[0] < witness[1] <= 4


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


def test_rip_refuses_a_negative_budget(instance_files, capsys):
    code = main([
        "rip",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--order", "2",
        "--budget", "-5",
    ])
    assert code == 2
    assert "budget must be a nonnegative integer" in _one_line_error(capsys)


def test_rip_search_takes_no_budget(instance_files, capsys):
    # the budget bounds the enumeration only, so a search refuses it
    base = [
        "rip",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--order", "2",
        "--search", "1",
    ]
    for budget in ("1", "-5", str(10**8)):
        assert main(base + ["--budget", budget]) == 2, budget
        assert "--budget bounds the exact scan only" in _one_line_error(capsys)


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
    for extra in (["--order", "1"], ["--order", "2"], ["--order", "2", "--search", "2"]):
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
    # the edge prints to six significant digits, so a tiny one does not read 0
    assert main(["bounds", "--K", str(10**30), "--delta", "0.1"]) == 3
    assert "1/sqrt(K+1)=1e-15 for K=" in _one_line_error(capsys)


def test_a_k_that_no_double_holds_is_refused_by_name(tmp_path, capsys):
    huge = str(10**400)
    for argv in (
        ["bounds", "--K", huge, "--delta", "0.1"],
        ["figure1", "--K", huge],
        ["adversarial", "--d", "2", "--K", huge, "--delta", "0.1", "--epsilon", "1",
         "--out-dir", str(tmp_path / "adv")],
    ):
        assert main(argv) == 2, argv
        err = _one_line_error(capsys)
        assert "K must be below the largest double, got a 1329-bit integer" in err, argv


def test_a_count_too_large_for_an_array_is_refused_by_name(tmp_path, capsys):
    huge = str(10**400)
    adversarial = ["adversarial", "--K", "2", "--delta", "0.1", "--epsilon", "1",
                   "--out-dir", str(tmp_path / "adv")]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 2**40, "M": 2**30, "d": 1, "K": 1, "trials": 1}))
    for argv, message in (
        (["figure1", "--points", huge], "points must be at most 72057594037927936 (2**56)"),
        (["figure1", "--points", str(2**56 + 1)], "points must be at most"),
        (adversarial + ["--d", huge], "the dictionary side d*(K+1) must be at most 268435456"),
        (adversarial + ["--d", str(10**9)], "the dictionary side d*(K+1) must be at most"),
        (["experiment", "--config", str(config)], "the dictionary size m*M*d must be at most"),
    ):
        assert main(argv) == 2, argv
        assert message in _one_line_error(capsys), argv
    assert not (tmp_path / "adv").exists()


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

    # the pursuit on the written files takes the decoy first, as reported
    assert main([
        "run",
        "--matrix", str(out_dir / "A.csv"),
        "--layout", str(out_dir / "layout.json"),
        "--obs", str(out_dir / "y.csv"),
        "--max-iter", "3",
    ]) == 0
    assert _json_out(capsys)["chosen_indices"][0] == report["first_selected_index"]


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
    # with a t0 the instance builds, but the report's bound is refused before
    # anything is written
    code = main([
        "adversarial", "--d", "1", "--K", "3", "--delta", "0.6",
        "--epsilon", "1", "--t0", "1", "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 3
    assert "not below" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_verify_proofs_json(capsys):
    assert main(["verify-proofs", "--trials", "10", "--seed", "2"]) == 0
    payload = _json_out(capsys)
    assert payload["trials"] == 10
    assert payload["identity_passes"] == 10
    for check in ("identity", "lemma", "theta"):
        assert payload[f"{check}_failures"] == 0, check
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
    ):
        assert main(argv) == 2, argv
        assert "seed" in _one_line_error(capsys)


def test_rip_takes_no_sample_or_seed(instance_files, capsys):
    # the sampled bound and its seed are gone; --search takes their place.
    # The exact scan runs unless --search is given, so it has no flag either
    base = [
        "rip",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(instance_files / "A.json"),
        "--order", "2",
    ]
    for extra in (["--sample", "5"], ["--seed", "0"], ["--exact"]):
        assert main(base + extra) == 2, extra
        assert "unrecognized arguments" in _one_line_error(capsys)


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


def test_subnormal_epsilon_is_refused_by_name(tmp_path, capsys):
    # at 5e-324 the default t0 rounds to the failure threshold itself
    out_dir = tmp_path / "adv"
    for argv in (
        ["bounds", "--K", "2", "--delta", "0.1", "--epsilon", "5e-324"],
        [
            "adversarial", "--d", "1", "--K", "2", "--delta", "0.1",
            "--epsilon", "5e-324", "--out-dir", str(out_dir),
        ],
    ):
        assert main(argv) == 2, argv
        assert "error: epsilon must be at least" in _one_line_error(capsys), argv
    assert not out_dir.exists()


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


def test_run_rejects_a_layout_with_an_unknown_key(instance_files, capsys):
    layout = instance_files / "extra.json"
    layout.write_text('{"m": 12, "M": 4, "d": 2, "D": 3}')
    code = main([
        "run",
        "--matrix", str(instance_files / "A.csv"),
        "--layout", str(layout),
        "--obs", str(instance_files / "y.csv"),
        "--max-iter", "2",
    ])
    assert code == 2
    assert f"unknown layout sidecar {layout} keys: ['D']" in _one_line_error(capsys)


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    for name, argv in (
        ("--K", ["bounds", "--K", "abc", "--delta", "0.1"]),
        ("--K", ["bounds", "--delta", "0.1"]),
        ("--order", ["rip", "--matrix", "A.csv", "--layout", "A.json", "--order", "2.5"]),
    ):
        assert main(argv) == 2, argv
        assert name in _one_line_error(capsys), argv


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


def test_infinite_parameters_are_refused_by_name(instance_files, capsys):
    cfg_path = instance_files / "cfg.json"
    cfg_path.write_text(
        '{"m": 24, "M": 6, "d": 2, "K": 2, "stopping": '
        '{"mode": "residual_threshold", "epsilon": 1e999, "max_iterations": 2}}'
    )
    files = ["--matrix", str(instance_files / "A.csv"), "--layout", str(instance_files / "A.json")]
    adversarial = ["adversarial", "--d", "1", "--K", "2", "--delta", "0.2"]
    out_dir = ["--out-dir", str(instance_files / "adv")]
    for name, argv in (
        ("epsilon", ["experiment", "--config", str(cfg_path)]),
        ("epsilon", ["run", *files, "--obs", str(instance_files / "y.csv"), "--epsilon", "inf"]),
        ("t0", [*adversarial, "--epsilon", "1", "--t0", "inf", *out_dir]),
        ("epsilon", [*adversarial, "--epsilon", "inf", "--t0", "1", *out_dir]),
    ):
        assert main(argv) == 2, argv
        assert f"error: {name} must be finite" in _one_line_error(capsys), argv


def test_experiment_too_large_for_memory_exits_3(tmp_path, capsys):
    # 10**9 x 10**6 doubles (7.11 PiB) exceed the x86-64 user address space
    # (128 TiB with 4-level paging), so the allocation fails without
    # touching memory
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 10**9, "M": 10**6, "d": 1, "K": 1, "trials": 1}))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "Unable to allocate" in _one_line_error(capsys)


def test_deeply_nested_json_is_refused_by_file(instance_files, capsys):
    deep = instance_files / "deep.json"
    deep.write_text("[" * 200_000)
    for argv in (
        ["experiment", "--config", str(deep)],
        [
            "rip",
            "--matrix", str(instance_files / "A.csv"),
            "--layout", str(deep),
            "--order", "1",
        ],
    ):
        assert main(argv) == 2, argv
        assert f"{deep} nests too deeply" in _one_line_error(capsys), argv


def test_overflowing_draws_are_refused_by_name(tmp_path, capsys):
    # the first overflows in the block norms, the second in y = A x + noise
    for cfg in (
        {"m": 12, "M": 6, "d": 2, "K": 2, "min_block_norm": 1e308, "trials": 3},
        {
            "m": 2, "M": 2, "d": 1, "K": 1,
            "noise_norm": 1.7e308, "min_block_norm": 1e308, "trials": 3,
        },
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(cfg_path)]) == 2, cfg
        err = _one_line_error(capsys)
        assert "min_block_norm" in err and "noise_norm" in err, err


# Flag values a user might type: edge and malformed values mixed with valid ones.
# The first is a 401-digit integer, which no double holds; hypothesis draws the
# first value of a ``sampled_from`` most often, so the derandomized runs reach it.
_EDGE_VALUES = (
    "1" + "0" * 400, "0", "-1", "-0.5", "5e-324", "1e308", "inf", "-inf", "nan", "abc", "", "[1]",
)
# a huge trial count is valid and only runs long, so a count never draws one
_COUNT_EDGE_VALUES = _EDGE_VALUES[1:]


def _flag(valid, required=False, edges=_EDGE_VALUES):
    """A flag value: valid three times in four, else one of ``edges``, so
    that whole argument vectors are often valid; or left out (None) when
    optional. A left-out required flag is one case only, so it is not drawn."""
    valid = valid.map(str)
    values = st.one_of(valid, valid, valid, st.sampled_from(edges))
    return values if required else st.one_of(st.none(), values)


def _reals(high):
    return st.floats(1e-6, high).map(repr)


def _comma_joined(values):
    return ",".join(map(str, values))


_CLI_FLAGS = {
    "bounds": {
        "--K": _flag(st.integers(1, 60), required=True),
        "--delta": _flag(_reals(1.0), required=True),
        "--epsilon": _flag(_reals(10.0)),
        "--min-block-norm": _flag(_reals(100.0)),
    },
    "figure1": {
        "--K": _flag(st.lists(st.integers(1, 50), min_size=1, max_size=3).map(_comma_joined)),
        "--points": _flag(st.integers(2, 40)),
        "--epsilon": _flag(_reals(10.0)),
    },
    "run": {
        "--epsilon": _flag(_reals(10.0)),
        "--max-iter": _flag(st.integers(1, 6)),
    },
    "verify-proofs": {
        # a left-out --trials would run the default 100
        "--trials": _flag(st.integers(1, 5), required=True, edges=_COUNT_EDGE_VALUES),
        "--seed": _flag(st.integers(0, 2**32)),
    },
    "rip": {
        "--order": _flag(st.integers(1, 5), required=True),
        "--search": _flag(st.integers(1, 8), edges=_COUNT_EDGE_VALUES),
        "--budget": _flag(st.integers(0, 10**6)),
    },
    "adversarial": {
        "--d": _flag(st.integers(1, 4), required=True),
        "--K": _flag(st.integers(1, 5), required=True),
        "--delta": _flag(_reals(0.5), required=True),
        "--epsilon": _flag(_reals(10.0), required=True),
        "--t0": _flag(_reals(10.0)),
    },
    # the overrides of a small config file (``_experiment_config``)
    "experiment": {
        "--trials": _flag(st.integers(1, 5), edges=_COUNT_EDGE_VALUES),
        "--seed": _flag(st.integers(0, 2**32)),
        "--noise-norm": _flag(_reals(10.0)),
        "--min-block-norm": _flag(_reals(100.0)),
    },
}


def _run_files(tmp_path) -> list:
    """The ``--matrix``, ``--layout`` and ``--obs`` flags of a noisy 12x8
    system, written once under ``tmp_path``."""
    if not (tmp_path / "y.csv").exists():
        rng = np.random.default_rng(52)
        A = BlockedMatrix(BlockLayout(4, 2), rng.normal(size=(12, 8)) / np.sqrt(12))
        save_matrix(tmp_path / "A.csv", A, tmp_path / "A.json")
        save_vector(tmp_path / "y.csv", A.entries @ rng.normal(size=8) + 0.1 * rng.normal(size=12))
    return [
        "--matrix", str(tmp_path / "A.csv"),
        "--layout", str(tmp_path / "A.json"),
        "--obs", str(tmp_path / "y.csv"),
    ]


def _experiment_config(tmp_path) -> list:
    """The ``--config`` flag of a three-trial experiment at (12, 6, 2, K=2)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m": 12, "M": 6, "d": 2, "K": 2, "trials": 3}))
    return ["--config", str(path)]


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("command", sorted(_CLI_FLAGS))
@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_exits_cleanly_on_any_flag_values(command, data, tmp_path, capsys):
    """Exit 0, 2 or 3; a refusal is one ``error:`` line, a success strict JSON."""
    argv = [command]
    for flag, values in _CLI_FLAGS[command].items():
        value = data.draw(values, label=flag)
        if value is not None:
            argv += [flag, value]
    if command == "adversarial":
        argv += ["--out-dir", str(tmp_path / "adv")]
    if command == "run":
        argv += _run_files(tmp_path)
    if command == "rip":
        argv += _run_files(tmp_path)[:4]  # its matrix and layout
    if command == "experiment":
        argv += _experiment_config(tmp_path)

    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, code, err)
    # usage errors whatever the values
    if "--search" in argv and "--budget" in argv:
        assert code == 2, (argv, err)
    if code == 0:
        assert err == "", argv
        if command != "figure1":  # figure1 writes CSV
            json.loads(out, parse_constant=_refuse_constant)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


# Config values a user might write: edge and malformed values mixed with valid
# ones. A huge count is valid and only runs long, so no edge value is one.
_CONFIG_EDGE_VALUES = (
    0, -1, -0.5, 5e-324, 1e-170, 1e308, True, False, "abc", "", [1], {"m": {"d": [2]}},
)


def _entry(valid, required=False):
    """A config entry: valid about five times in six, else an edge value; or
    left out (None, which no edge value is) when optional. (``st.one_of``
    would merge repeated branches, so the weight comes from a drawn integer.)"""
    edges = st.sampled_from(_CONFIG_EDGE_VALUES)
    values = st.integers(0, 5).flatmap(lambda i: edges if i == 0 else valid)
    return values if required else st.one_of(st.none(), values)


# valid shapes always fit: K <= M and K d <= m
_CONFIG_ENTRIES = {
    "m": _entry(st.integers(12, 24), required=True),
    "M": _entry(st.integers(4, 8), required=True),
    "d": _entry(st.integers(1, 3), required=True),
    "K": _entry(st.integers(1, 4), required=True),
    "noise_norm": _entry(st.floats(0.0, 10.0)),
    "min_block_norm": _entry(st.floats(1e-6, 100.0)),
    "trials": _entry(st.integers(1, 5)),
    "seed": _entry(st.integers(0, 2**32)),
}
_STOPPING_ENTRIES = {
    "mode": _entry(
        st.sampled_from(("residual_threshold", "fixed_iterations", "both")), required=True
    ),
    "epsilon": _entry(st.floats(0.0, 10.0)),
    "max_iterations": _entry(st.integers(1, 6)),
}


def _drawn_object(data, entries, label) -> dict:
    drawn = {key: data.draw(values, label=f"{label}.{key}") for key, values in entries.items()}
    return {key: value for key, value in drawn.items() if value is not None}


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_experiment_exits_cleanly_on_any_config_contents(data, tmp_path, capsys):
    """Exit 0, 2 or 3; a refusal is one ``error:`` line, a success strict JSON."""
    config = _drawn_object(data, _CONFIG_ENTRIES, "config")
    stopping = data.draw(
        st.one_of(st.none(), st.just("object"), st.sampled_from(_CONFIG_EDGE_VALUES)),
        label="stopping",
    )
    if stopping == "object":
        stopping = _drawn_object(data, _STOPPING_ENTRIES, "stopping")
    if stopping is not None:
        config["stopping"] = stopping
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    code = main(["experiment", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (config, code, err)
    if code == 0:
        assert err == "", config
        json.loads(out, parse_constant=_refuse_constant)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (config, err)


# CSV fields and layout contents a user might write: edge and malformed ones
_CSV_EDGE_FIELDS = ("abc", "", "nan", "inf", "-inf", "5e-324", "1e308", "-1e308", "1e400")
_LAYOUT_EDGE_VALUES = (0, -1, -2.5, 2.5, True, False, "abc", "", None, [1], {"m": 1}, 10**30)
_LAYOUT_EDGE_TEXTS = ("[12, 4, 2]", "3", '"m"', "null", "{", "", "[" * 200_000)


def _csv_text(data, count, label) -> str:
    """``count`` numbers, one per line: valid about half the time, else with
    an edge field in place of one, one number short or over, or none."""
    fields = [repr(v) for v in data.draw(
        st.lists(st.floats(-10.0, 10.0), min_size=count, max_size=count), label=label
    )]
    kind = data.draw(st.integers(0, 5), label=f"{label} kind")
    if kind == 2:
        index = data.draw(st.integers(0, count - 1), label=f"{label} index")
        fields[index] = data.draw(st.sampled_from(_CSV_EDGE_FIELDS), label=f"{label} edge")
    elif kind == 3:
        fields = fields[:-1]
    elif kind == 4:
        fields.append("1.0")
    elif kind == 5:
        fields = []
    return "".join(field + "\n" for field in fields)


def _layout_text(data, layout: dict):
    """The layout sidecar of ``layout`` and whether it is malformed: valid
    about half the time, else with an edge value, a key left out or one extra,
    or a document that is no layout at all."""
    kind = data.draw(st.integers(0, 5), label="layout kind")
    key = data.draw(st.sampled_from(sorted(layout)), label="layout key")
    if kind == 2:
        layout[key] = data.draw(st.sampled_from(_LAYOUT_EDGE_VALUES), label="layout value")
    elif kind == 3:
        del layout[key]
    elif kind == 4:
        layout[data.draw(st.sampled_from(("D", "rows", "m ")), label="layout extra")] = 3
    elif kind == 5:
        return data.draw(st.sampled_from(_LAYOUT_EDGE_TEXTS), label="layout text"), True
    return json.dumps(layout), kind >= 2


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_run_exits_cleanly_on_any_file_contents(data, tmp_path, capsys):
    """Exit 0, 2 or 3; a refusal is one ``error:`` line, a success strict JSON."""
    m, M, d = (data.draw(st.integers(1, high), label=name) for name, high in
               (("m", 8), ("M", 4), ("d", 3)))
    layout, malformed = _layout_text(data, {"m": m, "M": M, "d": d})
    files = {
        "--matrix": _csv_text(data, m * M * d, "matrix"),
        "--layout": layout,
        "--obs": _csv_text(data, m, "obs"),
    }
    argv = ["run", "--max-iter", str(data.draw(st.integers(1, 4), label="--max-iter"))]
    for flag, text in files.items():
        path = tmp_path / flag.lstrip("-")
        path.write_text(text)
        argv += [flag, str(path)]

    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (files, code, err)
    if malformed:
        assert code == 2, (files, out, err)
    if code == 0:
        assert err == "", files
        json.loads(out, parse_constant=_refuse_constant)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (files, err)


_RANK_ERROR = re.compile(
    r"^error: subdictionary on blocks \[([0-9, ]+)\] is rank deficient "
    r"\(singular values \S+ \.\. \S+\)$"
)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_run_refuses_any_repeated_direction_in_one_line(data, tmp_path, capsys):
    """A column of block b is a power-of-two multiple of one of block a. With
    m >= M d the M picks take every block, so the pursuit meets the pair."""
    d, M, extra_rows = (data.draw(st.integers(low, high), label=name) for name, low, high in
                        (("d", 1, 3), ("M", 2, 6), ("extra rows", 0, 4)))
    m = M * d + extra_rows
    a, b = data.draw(st.lists(st.integers(1, M), min_size=2, max_size=2, unique=True), label="a, b")
    column_a, column_b = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)),
                                   label="columns")
    power = data.draw(st.integers(-8, 8), label="power")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    entries = rng.normal(size=(m, M * d))
    entries[:, (b - 1) * d + column_b] = np.ldexp(entries[:, (a - 1) * d + column_a], power)
    files = _system_files(tmp_path, BlockedMatrix(BlockLayout(M, d), entries), rng.normal(size=m))

    code = main(["run", *files, "--max-iter", str(M)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), (code, out, err)
    lines = err.splitlines()
    assert len(lines) == 1, lines
    match = _RANK_ERROR.match(lines[0])
    assert match, lines
    assert {a, b} <= {int(block) for block in match[1].split(",")}, (a, b, lines)


CLI_OUTPUTS = ROOT / "scripts" / "cli_outputs.py"


def test_the_listed_cli_outputs_pick_alike_at_every_scale(tmp_path):
    # runs the whole script, so a local run also shows when the script breaks
    spec = importlib.util.spec_from_file_location("cli_outputs", CLI_OUTPUTS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([str(tmp_path)]) == 0

    def picks(name):
        return json.loads((tmp_path / f"{name}.json").read_text())["chosen_indices"]

    # the observation scaled by 2^-600 and by 2^400, and the dictionary by
    # 2^-600 and by 2^600
    for name in ("tiny", "huge", "tiny_dictionary", "huge_dictionary"):
        assert picks(name) == picks("run"), name

    # the order-3 search from 4 starts reaches the exact constant, bit for bit
    searched = json.loads((tmp_path / "rip_search.json").read_text())
    exact = exact_block_rip(load_matrix(tmp_path / "A.csv", tmp_path / "layout.json"), 3)
    assert searched["delta_lower_bound"] == exact.delta
    assert searched["witness"] == list(exact.arg_support) == [31, 34, 46]


def test_every_readme_command_parses():
    # a flag the parser no longer takes cannot stay documented
    readme = (ROOT / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("bomp ")]
    parser = _build_parser()
    commands = set()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            commands.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    assert commands == set(_CLI_FLAGS)


def test_the_module_runs_as_the_bomp_executable():
    def bomp(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bomp.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )

    refused = bomp("bounds", "--K", "0", "--delta", "0.1")
    assert refused.returncode == 2
    lines = refused.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: K must be"), refused.stderr
    done = bomp("bounds", "--K", "2", "--delta", "0.1")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["K"] == 2
