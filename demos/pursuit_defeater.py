# A dictionary family that defeats the greedy selector right below the
# necessary magnitude threshold. One decoy block plus K supported blocks;
# the decoy soaks up exactly enough correlation that the first pick goes
# wrong whenever the active blocks are too quiet.

import numpy as np

from bomp import (
    AdversarialParams,
    BoundInputs,
    StoppingRule,
    build_adversarial_instance,
    closed_form_spectrum,
    demonstrate_failure,
    exact_block_rip,
    necessary_bound,
    run_bomp,
)

delta, K, epsilon = 0.2, 3, 1.0

p = AdversarialParams(d=1, K=K, delta=delta, epsilon=epsilon)
threshold = necessary_bound(BoundInputs(K=K, delta=delta, epsilon=epsilon))
print(f"family at d=1, K={K}, delta={delta}, epsilon={epsilon}")
print(f"  failure threshold on t0: {threshold:.6f}")
print(f"  default t0 (just below): {p.t0:.6f}")

# the order-(K+1) isometry constant of this dictionary is delta, exactly
problem, truth = build_adversarial_instance(p)
report = exact_block_rip(problem.matrix, K + 1)
print(f"  exact order-{K + 1} constant: {report.delta:.12f}")

gram = problem.matrix.entries.T @ problem.matrix.entries
print("  spectrum (computed):   ", np.sort(np.linalg.eigvalsh(gram)).round(12))
print("  spectrum (closed form):", closed_form_spectrum(p))

fail = demonstrate_failure(p)
print()
print("first greedy pick:", fail.first_selected_index, "(true support is", f"{p.true_support})")
print("  decoy score     ", fail.score_off_support)
print("  supported score ", fail.score_in_support)
print("  failed:", fail.failed)

# run the pursuit to completion; the budget of K picks is spent and the
# support still comes out wrong
trace = run_bomp(problem, StoppingRule(mode="fixed_iterations", max_iterations=K))
print()
print("full run chose:", sorted(trace.chosen_indices))
print("support missed:", sorted(trace.chosen_indices) != list(p.true_support))

# push t0 above the threshold and the very same family becomes benign
loud = AdversarialParams(d=1, K=K, delta=delta, epsilon=epsilon, t0=1.5 * threshold)
print()
print("with t0 raised 50% above the threshold:")
print("  first pick:", demonstrate_failure(loud).first_selected_index)
