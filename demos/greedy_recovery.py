# Run the block pursuit on a small random instance and watch the residual fall.

import numpy as np

from bomp import (
    BlockLayout,
    BlockSignal,
    BlockedMatrix,
    SensingProblem,
    StoppingRule,
    block_support,
    run_bomp,
)

rng = np.random.default_rng(7)

m, M, d = 24, 8, 2
layout = BlockLayout(num_blocks=M, block_width=d)
A = BlockedMatrix(layout, rng.standard_normal((m, M * d)) / np.sqrt(m))

# plant three active blocks with unit-ish coefficients
true_blocks = {2: np.array([1.3, -0.4]), 5: np.array([0.9, 0.8]), 7: np.array([-1.1, 0.2])}
x = BlockSignal.from_blocks(layout, true_blocks)

noise = rng.standard_normal(m)
noise *= 0.05 / np.linalg.norm(noise)
y = A.entries @ x.values + noise

problem = SensingProblem(matrix=A, observation=y)
trace = run_bomp(problem, StoppingRule(mode="residual_threshold", epsilon=0.05, max_iterations=M))

print("true support:     ", block_support(x))
print("chosen blocks:    ", trace.chosen_indices)
print("status:           ", trace.status)
print("residual norms:")
for k, r in enumerate(trace.residual_norms):
    print(f"  after {k} iterations: {r:.6f}")

recovered = tuple(sorted(trace.chosen_indices))
print("support recovered:", recovered == block_support(x))
