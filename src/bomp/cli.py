"""Command line front end.

One executable ``bomp`` with a subcommand per capability: run the solver on
files, compute isometry constants, evaluate recovery thresholds, tabulate
the threshold comparison curves, emit a worst-case instance, sweep the
proof identity checks, and drive Monte Carlo experiments.

Exit codes: 0 success, 2 malformed input or configuration, 3 a computation
refused as over budget or infeasible, or too large for the memory at hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adversarial import (
    AdversarialParams,
    build_adversarial_instance,
    demonstrate_failure,
)
from .bounds import (
    BoundInputs,
    check_sufficient,
    delta_limit,
    figure1_curves,
    necessary_bound,
    z1_sufficient_bound,
    z2_prior_bound,
)
from .core import SensingProblem
from .errors import BompError, BudgetExceededError, InfeasibleError
from .experiment import ExperimentConfig, run_experiment
from .io import FLOAT_FMT, json_fields, load_matrix, load_vector, save_matrix, save_vector
from .proofs import run_proof_verification
from .rip import DEFAULT_BUDGET, exact_block_rip, rip_lower_bound_search
from .solver import BOTH, FIXED_ITERATIONS, RESIDUAL_THRESHOLD, StoppingRule, run_bomp


def _emit(data: dict, path=None) -> None:
    """Print ``data`` as JSON; also write it to ``path`` when one is given."""
    text = json.dumps(data, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    print(text)


def _cmd_run(args) -> int:
    A = load_matrix(args.matrix, args.layout)
    y = load_vector(args.obs)
    if args.epsilon is not None and args.max_iter is not None:
        stop = StoppingRule(BOTH, epsilon=args.epsilon, max_iterations=args.max_iter)
    elif args.epsilon is not None:
        stop = StoppingRule(RESIDUAL_THRESHOLD, epsilon=args.epsilon)
    elif args.max_iter is not None:
        stop = StoppingRule(FIXED_ITERATIONS, max_iterations=args.max_iter)
    else:
        raise ValueError("pass --epsilon, --max-iter, or both to define stopping")
    _emit(run_bomp(SensingProblem(matrix=A, observation=y), stop).to_dict(), args.trace)
    return 0


def _cmd_rip(args) -> int:
    A = load_matrix(args.matrix, args.layout)
    if args.search is not None:
        if args.budget is not None:
            raise ValueError("--budget bounds the exact scan only; --search enumerates nothing")
        bound, witness = rip_lower_bound_search(A, args.order, args.search)
        _emit(
            {
                "order": args.order,
                "delta_lower_bound": bound,
                "witness": list(witness),
                "starts": args.search,
            }
        )
    else:
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        _emit(exact_block_rip(A, args.order, budget=budget).to_dict())
    return 0


def _cmd_bounds(args) -> int:
    b = BoundInputs(K=args.K, delta=args.delta, epsilon=args.epsilon)
    payload = {
        **json_fields(b),
        "delta_limit": delta_limit(b.K),
        "z1": z1_sufficient_bound(b),
        "z2": z2_prior_bound(b),
        "necessary": necessary_bound(b),
        "verdict": None,
    }
    if args.min_block_norm is not None:
        payload["verdict"] = check_sufficient(
            args.K, args.delta, args.epsilon, args.min_block_norm
        ).to_dict()
    _emit(payload)
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError("need at least one K value")
    return values


def _cmd_figure1(args) -> int:
    table = figure1_curves(_parse_int_list(args.K), args.points, epsilon=args.epsilon)
    lines = ["K,delta,z1,z2,diff"]
    for K, delta, z1, z2, diff in table:
        lines.append(
            f"{int(K)}," + ",".join(FLOAT_FMT % v for v in (delta, z1, z2, diff))
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(table)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_adversarial(args) -> int:
    params = AdversarialParams(
        d=args.d, K=args.K, delta=args.delta, epsilon=args.epsilon, t0=args.t0
    )
    problem, truth = build_adversarial_instance(params)
    report = demonstrate_failure(params)
    # before anything is written, so a refused bound leaves no files behind
    payload = {
        **json_fields(params),
        "t0_failure_threshold": necessary_bound(
            BoundInputs(K=params.K, delta=params.delta, epsilon=params.epsilon)
        ),
        "true_support": list(params.true_support),
        **report.to_dict(),
    }

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(out_dir / "A.csv", problem.matrix, out_dir / "layout.json")
    save_vector(out_dir / "y.csv", problem.observation)
    save_vector(out_dir / "truth.csv", truth.values)
    _emit(payload, out_dir / "report.json")
    return 0


def _cmd_verify_proofs(args) -> int:
    summary = run_proof_verification(args.trials, args.seed)
    _emit(summary.to_dict())
    return 0


def _cmd_experiment(args) -> int:
    overrides = {}
    for key in ("trials", "seed", "noise_norm", "min_block_norm"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    cfg = ExperimentConfig.load(args.config, overrides)
    result = run_experiment(cfg)
    payload = {"config": cfg.to_dict(), **result.to_dict()}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        payload = {
            "recovery_rate": result.recovery_rate,
            "avg_iterations": result.avg_iterations,
            "trials": cfg.trials,
            "out": args.out,
        }
    _emit(payload)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, exit code 2, as every
    other malformed input is reported; subcommand parsers inherit this."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bomp",
        description="Block-sparse greedy recovery: solver, isometry analysis, "
        "recovery thresholds, worst-case instances, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the solver on a matrix/observation pair")
    p.add_argument("--matrix", required=True, help="dictionary CSV (row-major)")
    p.add_argument("--layout", required=True, help='JSON sidecar {"m","M","d"}')
    p.add_argument("--obs", required=True, help="observation vector CSV")
    p.add_argument("--epsilon", type=float, help="stop when the residual norm drops to this")
    p.add_argument("--max-iter", type=int, help="iteration budget (exact count if no --epsilon)")
    p.add_argument("--trace", help="also write the JSON trace to this file")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("rip", help="block isometry constant, exact or a searched lower bound")
    p.add_argument("--matrix", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--order", type=int, required=True, help="number of blocks per support")
    p.add_argument(
        "--search", type=int, metavar="STARTS", help="swap-ascent lower bound from STARTS supports"
    )
    p.add_argument(
        "--budget", type=int, help=f"flop ceiling of the exact scan (default {DEFAULT_BUDGET:.0e})"
    )
    p.set_defaults(handler=_cmd_rip)

    p = sub.add_parser("bounds", help="recovery thresholds at one (K, delta, epsilon)")
    p.add_argument("--K", type=int, required=True, help="block sparsity")
    p.add_argument("--delta", type=float, required=True, help="isometry constant of order K+1")
    p.add_argument("--epsilon", type=float, default=1.0, help="noise norm bound")
    p.add_argument(
        "--min-block-norm",
        type=float,
        help="also judge whether recovery is guaranteed at this magnitude",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("figure1", help="threshold comparison table as CSV")
    p.add_argument("--K", default="10,20,30,40,50", help="comma-separated sparsity levels")
    p.add_argument("--points", type=int, default=200, help="grid points per curve")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--out", help="CSV destination (stdout if omitted)")
    p.set_defaults(handler=_cmd_figure1)

    p = sub.add_parser(
        "adversarial", help="emit a worst-case instance and its failure report"
    )
    p.add_argument("--d", type=int, required=True, help="block width")
    p.add_argument("--K", type=int, required=True, help="block sparsity")
    p.add_argument("--delta", type=float, required=True, help="target isometry constant")
    p.add_argument("--epsilon", type=float, required=True, help="noise norm")
    p.add_argument(
        "--t0",
        type=float,
        help="supported block magnitude (default: 0.99 x failure threshold)",
    )
    p.add_argument("--out-dir", required=True, help="directory for A.csv, layout.json, y.csv, truth.csv, report.json")
    p.set_defaults(handler=_cmd_adversarial)

    p = sub.add_parser(
        "verify-proofs", help="randomized checks of the analysis identities"
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_proofs)

    p = sub.add_parser("experiment", help="seeded Monte Carlo recovery batch")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", help="result JSON destination (stdout if omitted)")
    p.add_argument("--trials", type=int, help="override the config's trial count")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--noise-norm", dest="noise_norm", type=float, help="override noise norm")
    p.add_argument(
        "--min-block-norm", dest="min_block_norm", type=float, help="override magnitude floor"
    )
    p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (BudgetExceededError, InfeasibleError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BompError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
