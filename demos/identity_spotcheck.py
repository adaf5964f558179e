"""Numerical spot checks of the two internal identities behind the guarantee.

The selection margin eta of a candidate block can be computed two ways:
directly from least-squares residuals, or through a polarization identity
with a free parameter t that must cancel out. The second check is the
floor on surviving block norms after a partial solve. Both are exercised
on freshly drawn random instances here. The two margin routes share only
the projection coefficients xi of the observation on the true support; each
computes its own residual, and the identity route its own projected
dictionary, so agreement is evidence, not bookkeeping.
"""

import argparse

import numpy as np

from bomp import eta_direct, eta_via_identity, lemma1_check, random_proof_instance, run_proof_verification


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    inst = random_proof_instance(rng)
    print("one instance, margin eta along t (the identity route must not move):")
    direct = eta_direct(inst)
    for t in (0.05, 0.5, 1.0, 5.0, 50.0):
        via = eta_via_identity(inst, t)
        print(f"  t = {t:>6}: direct {direct:+.12f}   identity {via:+.12f}   "
              f"diff {abs(direct - via):.2e}")

    rep = lemma1_check(inst)
    print()
    print("block-norm floor on the same instance:")
    print(f"  smallest surviving norm {rep.lhs:.6f} >= floor {rep.rhs:.6f}: {rep.holds}")
    print(f"  coefficient perturbation {rep.theta_norm:.6f} <= {rep.theta_bound:.6f}: "
          f"{rep.theta_holds}")

    print()
    summary = run_proof_verification(trials=args.trials, seed=args.seed)
    print(f"batch over {args.trials} instances x 3 values of t:")
    print(f"  identity failures: {summary.identity_failures}")
    print(f"  worst identity residual: {summary.worst_identity_residual:.3e}")
    print(f"  norm-floor failures: {summary.lemma_failures}")


if __name__ == "__main__":
    main()
