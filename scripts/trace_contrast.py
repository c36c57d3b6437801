"""Trajectory-level versus mean-level trace preservation.

For each preset, runs a handful of single trajectories and one ensemble,
then prints how far the per-trajectory trace wanders against how well the
ensemble-mean trace holds. Models whose noise operators are anti-Hermitian
(along every active covariance direction) keep the trace exactly per
trajectory; the damping model only preserves it in the mean.

Usage:
    python scripts/trace_contrast.py --trajectories 2000
"""

import argparse
import math

import numpy as np

from lindbladsde.presets import PRESET_NAMES, preset_model, uniform_superposition
from lindbladsde.lindblad import time_grid
from lindbladsde.unraveling import run_ensemble, run_trajectory


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--trajectories", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    n_steps, _ = time_grid(args.t_final, args.dt, 1, "trace_contrast")
    # every 100th step, or the largest divisor of 100 that divides the run
    record_every = math.gcd(n_steps, 100)

    header = (f"{'preset':>26} {'constrained':>11} {'traj |tr-1| max':>16} "
              f"{'mean |tr-1| max':>16} {'min eig seen':>13}")
    print(header)
    for name in PRESET_NAMES:
        model = preset_model(name)
        rho0 = uniform_superposition(model.dim)
        constrained = model.report.trajectory_trace_preserving

        worst = 0.0
        for index in range(5):
            traj = run_trajectory(model, rho0, args.t_final, args.dt,
                                  seed=args.seed, traj_index=index)
            worst = max(worst, abs(traj.trace_extremes[0] - 1.0),
                        abs(traj.trace_extremes[1] - 1.0))

        stats, diag = run_ensemble(model, rho0, args.t_final, args.dt,
                                   args.trajectories, seed=args.seed,
                                   record_every=record_every)
        mean_traces = np.einsum("taa->t", stats.mean_state).real
        mean_gap = np.abs(mean_traces - 1.0).max()
        print(f"{name:>26} {str(constrained):>11} {worst:>16.3e} "
              f"{mean_gap:>16.3e} {diag.min_eigenvalue:>13.3e}")


if __name__ == "__main__":
    main()
