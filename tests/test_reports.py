"""The JSON form of every report: key order, JSON-native values, and the
derived verdicts and aggregates that no caller can pass in."""

import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

from bomp import (
    AdversarialParams,
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    ExperimentConfig,
    ExperimentResult,
    FailureReport,
    Lemma1Report,
    RecoveryTrace,
    RipReport,
    SensingProblem,
    StoppingRule,
    SufficiencyVerdict,
    TrialRecord,
    check_sufficient,
    demonstrate_failure,
    exact_block_rip,
    lemma1_check,
    random_proof_instance,
    run_bomp,
    run_experiment,
    run_proof_verification,
)
from bomp.cli import main
from bomp.proofs import LEMMA_SLACK, ProofVerificationSummary

_CFG = ExperimentConfig(m=12, M=4, d=2, K=1, trials=3)


def _trace():
    rng = np.random.default_rng(0)
    layout = BlockLayout(4, 2)
    A = BlockedMatrix(layout, rng.normal(size=(12, 8)))
    y = A.entries @ BlockSignal.from_blocks(layout, {2: [1.0, 2.0]}).values
    return run_bomp(SensingProblem(A, y), StoppingRule("fixed_iterations", max_iterations=2))


def _rip():
    rng = np.random.default_rng(1)
    return exact_block_rip(BlockedMatrix(BlockLayout(4, 2), rng.normal(size=(12, 8))), 2)


# key sequences as the reports have always written them
REPORTS = {
    "RecoveryTrace": (
        _trace,
        ["chosen_indices", "residual_norms", "final_estimate", "iterations_run", "status"],
    ),
    "RipReport": (
        _rip,
        ["order", "delta", "arg_support", "lambda_min", "lambda_max", "rip_holds"],
    ),
    "SufficiencyVerdict": (
        lambda: check_sufficient(2, 0.1, 0.1, 1.0),
        ["guaranteed", "reasons", "z1"],
    ),
    "FailureReport": (
        lambda: demonstrate_failure(AdversarialParams(d=2, K=3, delta=0.2, epsilon=1.0)),
        ["first_selected_index", "scores", "failed", "score_off_support", "score_in_support"],
    ),
    "Lemma1Report": (
        lambda: lemma1_check(random_proof_instance(np.random.default_rng(2))),
        ["lhs", "rhs", "holds", "theta_norm", "theta_bound", "theta_holds"],
    ),
    "ProofVerificationSummary": (
        lambda: run_proof_verification(2, 0),
        [
            "trials", "t_values", "identity_passes", "identity_failures", "lemma_passes",
            "lemma_failures", "theta_passes", "theta_failures", "worst_identity_residual",
        ],
    ),
    "TrialRecord": (
        lambda: TrialRecord(0, True, 2),
        ["seed_offset", "recovered", "iterations"],
    ),
    "TrialRecord with error": (
        lambda: TrialRecord(0, False, 0, error="RankDeficientError: x"),
        ["seed_offset", "recovered", "iterations", "error"],
    ),
    "ExperimentConfig": (
        lambda: _CFG,
        [
            "m", "M", "d", "K", "noise_norm", "min_block_norm", "trials", "seed",
            "stopping",
        ],
    ),
    "ExperimentResult": (
        lambda: run_experiment(_CFG),
        ["recovery_rate", "avg_iterations", "records"],
    ),
}


@pytest.mark.parametrize("name", REPORTS)
def test_to_dict_key_order_and_json_values(name):
    make, keys = REPORTS[name]
    data = make().to_dict()
    assert list(data) == keys
    # tuples come out as lists, so the dict survives a JSON round trip unchanged
    assert json.loads(json.dumps(data)) == data


def test_nested_dicts_keep_field_order():
    data = ExperimentConfig.from_dict(_CFG.to_dict()).to_dict()
    assert list(data["stopping"]) == ["mode", "epsilon", "max_iterations"]
    assert list(run_experiment(_CFG).to_dict()["records"][0]) == REPORTS["TrialRecord"][1]


def test_cli_payload_key_order(tmp_path, capsys):
    assert main(["bounds", "--K", "10", "--delta", "0.04", "--min-block-norm", "2.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "K", "delta", "epsilon", "delta_limit", "z1", "z2", "necessary", "verdict",
    ]
    assert list(payload["verdict"]) == ["guaranteed", "reasons", "z1"]

    assert main([
        "adversarial", "--d", "2", "--K", "3", "--delta", "0.2", "--epsilon", "1",
        "--out-dir", str(tmp_path),
    ]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "d", "K", "delta", "epsilon", "t0", "t0_failure_threshold", "true_support",
        "first_selected_index", "scores", "failed", "score_off_support", "score_in_support",
    ]


DERIVED = [
    (RecoveryTrace, "iterations_run"),
    (RipReport, "rip_holds"),
    (SufficiencyVerdict, "guaranteed"),
    (FailureReport, "first_selected_index"),
    (FailureReport, "failed"),
    (Lemma1Report, "holds"),
    (Lemma1Report, "theta_holds"),
    (ProofVerificationSummary, "identity_failures"),
    (ProofVerificationSummary, "lemma_failures"),
    (ProofVerificationSummary, "theta_failures"),
    (ExperimentResult, "recovery_rate"),
    (ExperimentResult, "avg_iterations"),
]


@pytest.mark.parametrize(("cls", "name"), DERIVED)
def test_derived_value_is_a_field_but_not_a_parameter(cls, name):
    assert name in {f.name for f in fields(cls)}
    assert name not in inspect.signature(cls).parameters


def test_derived_values_agree_with_their_sources():
    trace = _trace()
    assert trace.iterations_run == len(trace.chosen_indices) == 2

    rip = _rip()
    assert rip.rip_holds == (rip.delta < 1.0)
    assert RipReport(2, 0.5, (1, 2), 0.5, 1.5).rip_holds
    assert not RipReport(2, 1.0, (1, 2), 0.0, 1.5).rip_holds

    assert SufficiencyVerdict(reasons=(), z1=1.0).guaranteed
    assert not SufficiencyVerdict(reasons=("norm",), z1=1.0).guaranteed
    assert not check_sufficient(2, 0.9, 0.1, 1.0).guaranteed

    params = AdversarialParams(d=2, K=3, delta=0.2, epsilon=1.0)
    assert demonstrate_failure(params).failed
    # far above the threshold the first pick lands in the support
    big = demonstrate_failure(AdversarialParams(d=2, K=3, delta=0.2, epsilon=1.0, t0=100.0))
    assert big.first_selected_index != 1 and not big.failed

    on_edge = Lemma1Report(lhs=1.0, rhs=1.0 + LEMMA_SLACK, theta_norm=1.0, theta_bound=1.0)
    assert on_edge.holds and on_edge.theta_holds
    off = Lemma1Report(lhs=1.0, rhs=2.0, theta_norm=3.0, theta_bound=1.0)
    assert not off.holds and not off.theta_holds

    summary = ProofVerificationSummary(
        trials=5, identity_passes=5, lemma_passes=4, theta_passes=3, worst_identity_residual=0.0
    )
    assert (summary.identity_failures, summary.lemma_failures, summary.theta_failures) == (0, 1, 2)

    records = (TrialRecord(0, True, 2), TrialRecord(1, False, 0, error="x"), TrialRecord(2, True, 4))
    result = ExperimentResult(records=records)
    assert result.recovery_rate == 2 / 3
    assert result.avg_iterations == 2.0
    batch = run_experiment(_CFG)
    assert batch.recovery_rate == sum(r.recovered for r in batch.records) / _CFG.trials
