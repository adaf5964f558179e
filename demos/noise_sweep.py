# Monte Carlo recovery rate as the noise grows. Each cell reruns the same
# seeded batch with a different noise norm; every trial draws its instance
# from (seed, trial index), so each row is reproducible on its own.

from bomp import ExperimentConfig, run_experiment

BASE = dict(m=24, M=6, d=2, K=2, min_block_norm=1.0, trials=300, seed=42)

print(f"{'noise norm':>10} {'recovery rate':>14} {'avg iterations':>15}")
for noise in (0.0, 0.2, 0.5, 1.0, 2.0, 4.0):
    cfg = ExperimentConfig(noise_norm=noise, **BASE)
    result = run_experiment(cfg)
    print(f"{noise:>10.1f} {result.recovery_rate:>14.4f} {result.avg_iterations:>15.2f}")

print()
print("the rate sits near 1 while the noise is small next to the planted")
print("minimum block norm, then decays; the rare noiseless misses are real,")
print("greedy selection has no unconditional guarantee on a random dictionary")

# a couple of individual records from the last batch
for rec in result.records[:3]:
    print(rec)
