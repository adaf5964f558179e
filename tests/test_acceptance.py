"""Acceptance suite: one test per headline claim, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines on passing runs too). Every test computes its check, prints
``[criterion N] PASS/FAIL ...``, and then asserts, so the line is emitted
even when the assertion trips.
"""

import math

import numpy as np
import pytest

from bomp.adversarial import (
    AdversarialParams,
    build_matrix,
    closed_form_spectrum,
    demonstrate_failure,
)
from bomp.bounds import BoundInputs, figure1_curves, necessary_bound, z1_sufficient_bound
from bomp.cli import main
from bomp.core import (
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    SensingProblem,
    block_support,
)
from bomp.proofs import eta_direct, eta_via_identity, lemma1_check, random_proof_instance
from bomp.rip import exact_block_rip
from bomp.solver import (
    RESIDUAL_THRESHOLD,
    STATUS_CONVERGED,
    FIXED_ITERATIONS,
    StoppingRule,
    project_least_squares,
    run_bomp,
)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_reference_threshold_values():
    b = BoundInputs(K=10, delta=0.04, epsilon=1.0)
    z1 = z1_sufficient_bound(b)
    nec = necessary_bound(b)
    gap = z1 - nec
    ok = (
        abs(z1 - 2.1964) <= 1e-3
        and abs(nec - 1.1468) <= 1e-3
        and abs(gap - 1.0496) <= 1e-3
    )
    _verdict(1, ok, f"z1={z1:.6f} necessary={nec:.6f} gap={gap:.6f} (tol 1e-3)")
    assert ok


def test_criterion_2_family_constant_equals_delta_on_the_grid():
    worst = 0.0
    cells = 0
    for d in (1, 2, 3):
        for K in (1, 2, 3, 4):
            for delta in (0.1, 0.3, 0.5 / math.sqrt(K + 1)):
                p = AdversarialParams(d=d, K=K, delta=delta, epsilon=1.0)
                report = exact_block_rip(build_matrix(p), K + 1)
                worst = max(worst, abs(report.delta - delta))
                cells += 1
    ok = cells == 36 and worst <= 1e-8
    _verdict(2, ok, f"{cells} cells, worst |delta_exact - delta| = {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_3_width_one_spectra_match_closed_form():
    worst = 0.0
    for K in range(1, 7):
        for delta in (0.1, 0.4):
            # explicit t0: the spectrum is defined for any delta in (0,1),
            # beyond the regime where a default magnitude exists
            p = AdversarialParams(d=1, K=K, delta=delta, epsilon=1.0, t0=1.0)
            A = build_matrix(p)
            numeric = np.sort(np.linalg.eigvalsh(A.entries.T @ A.entries))
            worst = max(worst, float(np.max(np.abs(numeric - closed_form_spectrum(p)))))
    ok = worst <= 1e-10
    _verdict(3, ok, f"12 spectra, worst eigenvalue deviation = {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_4_first_pick_fails_on_a_50_point_grid():
    failures = 0
    score_err = 0.0
    points = 0
    for K in (1, 2, 3, 4, 5):
        d = (K % 3) + 1
        limit = 1.0 / math.sqrt(K + 1)
        for frac in np.linspace(0.05, 0.95, 10):
            p = AdversarialParams(d=d, K=K, delta=float(frac * limit), epsilon=1.0)
            report = demonstrate_failure(p)  # default t0 = 0.99 x threshold
            points += 1
            failures += report.first_selected_index == 1
            score_err = max(
                score_err,
                abs(report.scores[0] - report.score_off_support),
                max(abs(s - report.score_in_support) for s in report.scores[1:]),
            )
    ok = points == 50 and failures == 50 and score_err <= 1e-10
    _verdict(
        4,
        ok,
        f"{failures}/{points} off-support first picks, "
        f"worst score deviation = {score_err:.3e} (tol 1e-10)",
    )
    assert ok


def test_criterion_5_certified_instances_recover_in_exactly_k_steps():
    rng = np.random.default_rng(2024)
    successes = 0
    total = 500
    for _ in range(total):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        M = int(rng.integers(K + 2, 9))  # M <= 8 with room beyond the support
        m = 40 * (K + 1) * d
        limit = 1.0 / math.sqrt(K + 1)
        layout = BlockLayout(M, d)
        while True:  # certified means the exact constant qualifies
            A = BlockedMatrix(
                layout, rng.normal(size=(m, layout.ambient_dim)) / math.sqrt(m)
            )
            delta = exact_block_rip(A, K + 1).delta
            if delta < limit:
                break
        eps = 0.1
        z1 = z1_sufficient_bound(BoundInputs(K=K, delta=delta, epsilon=eps))
        support = sorted(int(i) for i in rng.choice(M, size=K, replace=False) + 1)
        blocks = {}
        for k, idx in enumerate(support):
            g = rng.normal(size=d)
            g /= np.linalg.norm(g)
            scale = 1.01 * z1 if k == 0 else (1.01 + abs(rng.normal())) * z1
            blocks[idx] = scale * g
        x = BlockSignal.from_blocks(layout, blocks)
        raw = rng.normal(size=m)
        noise = raw * (eps / np.linalg.norm(raw))
        problem = SensingProblem(matrix=A, observation=A.entries @ x.values + noise)
        trace = run_bomp(problem, StoppingRule(RESIDUAL_THRESHOLD, epsilon=eps))
        successes += (
            trace.status == STATUS_CONVERGED
            and trace.iterations_run == K
            and set(trace.chosen_indices) == set(support)
        )
    ok = successes == total
    _verdict(5, ok, f"{successes}/{total} exact recoveries in exactly K iterations")
    assert ok


def test_criterion_6_sufficient_bound_always_improves(tmp_path):
    table = figure1_curves([10, 20, 30, 40, 50], grid_points=200)
    rows_ok = table.shape == (1000, 5)
    all_negative = bool(np.all(table[:, 4] < 0.0))

    out = tmp_path / "fig1.csv"
    code = main(["figure1", "--K", "10,20,30,40,50", "--points", "200", "--out", str(out)])
    lines = out.read_text().splitlines()
    csv_ok = code == 0 and lines[0] == "K,delta,z1,z2,diff" and len(lines) == 1001

    ok = rows_ok and all_negative and csv_ok
    _verdict(
        6,
        ok,
        f"1000 rows, z1 - z2 < 0 everywhere: {all_negative}, "
        f"CSV emitted with header: {csv_ok}",
    )
    assert ok


def test_criterion_7_margin_identity_on_1000_instances():
    rng = np.random.default_rng(77)
    passes = 0
    pairs = 0
    worst = 0.0
    for _ in range(1000):
        num_blocks = int(rng.integers(4, 9))
        block_width = int(rng.integers(1, 4))
        sparsity = int(rng.integers(1, min(4, num_blocks)))
        inst = random_proof_instance(
            rng,
            num_blocks=num_blocks,
            block_width=block_width,
            sparsity=sparsity,
            epsilon=float(rng.uniform(0.05, 0.5)),
        )
        direct = eta_direct(inst)
        for t in (0.1, 1.0, 10.0):
            via = eta_via_identity(inst, t)
            err = abs(direct - via)
            tol = 1e-9 * max(1.0, abs(direct))
            worst = max(worst, err / max(1.0, abs(direct)))
            pairs += 1
            passes += err <= tol
    ok = pairs == 3000 and passes == 3000
    _verdict(7, ok, f"{passes}/{pairs} identity evaluations agree, worst rel dev = {worst:.3e}")
    assert ok


def test_criterion_8_projection_perturbation_bound_on_1000_instances():
    rng = np.random.default_rng(88)
    inequality_passes = 0
    theta_passes = 0
    for _ in range(1000):
        num_blocks = int(rng.integers(4, 9))
        block_width = int(rng.integers(1, 4))
        sparsity = int(rng.integers(1, min(4, num_blocks)))
        inst = random_proof_instance(
            rng,
            num_blocks=num_blocks,
            block_width=block_width,
            sparsity=sparsity,
            epsilon=float(rng.uniform(0.05, 0.5)),
        )
        report = lemma1_check(inst)
        inequality_passes += report.holds
        theta_passes += report.theta_holds
    ok = inequality_passes == 1000 and theta_passes == 1000
    _verdict(
        8,
        ok,
        f"min-norm inequality {inequality_passes}/1000, "
        f"coefficient bound {theta_passes}/1000",
    )
    assert ok


def test_criterion_9_solver_invariants_on_200_problems():
    rng = np.random.default_rng(99)
    ortho_ok = True
    monotone_ok = True
    deterministic_ok = True
    worst_ortho = 0.0
    for _ in range(200):
        M, d = 6, int(rng.integers(1, 3))
        m = 12 * d + int(rng.integers(0, 10))
        layout = BlockLayout(M, d)
        A = BlockedMatrix(layout, rng.normal(size=(m, layout.ambient_dim)) / math.sqrt(m))
        K = int(rng.integers(1, 4))
        x = BlockSignal.from_blocks(
            layout,
            {
                int(i): rng.normal(size=d) * 3
                for i in rng.choice(M, size=K, replace=False) + 1
            },
        )
        noise_level = float(rng.uniform(0.0, 0.5))
        e = rng.normal(size=m)
        e *= noise_level / max(np.linalg.norm(e), 1e-300)
        y = A.entries @ x.values + e
        problem = SensingProblem(matrix=A, observation=y)
        stop = StoppingRule(FIXED_ITERATIONS, max_iterations=4)
        trace = run_bomp(problem, stop)
        again = run_bomp(problem, stop)

        y_norm = float(np.linalg.norm(y))
        # residual after every prefix projection is orthogonal to all chosen columns
        for j in range(1, trace.iterations_run + 1):
            prefix = trace.chosen_indices[:j]
            _, r = project_least_squares(A, prefix, y)
            for i in prefix:
                dev = float(np.linalg.norm(A.block(i).T @ r))
                worst_ortho = max(worst_ortho, dev)
                ortho_ok = ortho_ok and dev <= 1e-8 * y_norm
        norms = trace.residual_norms
        monotone_ok = monotone_ok and all(
            hi <= lo + 1e-12 * max(1.0, y_norm) for lo, hi in zip(norms, norms[1:])
        )
        deterministic_ok = deterministic_ok and (
            trace.chosen_indices == again.chosen_indices
            and trace.residual_norms == again.residual_norms
            and np.array_equal(trace.final_estimate.values, again.final_estimate.values)
        )
    ok = ortho_ok and monotone_ok and deterministic_ok
    _verdict(
        9,
        ok,
        f"orthogonality worst dev = {worst_ortho:.3e} (tol 1e-8*||y||), "
        f"monotone: {monotone_ok}, deterministic: {deterministic_ok}",
    )
    assert ok
