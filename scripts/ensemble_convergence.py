"""Monte Carlo convergence experiment.

Sweeps the trajectory count on a preset model and reports how far the
ensemble mean sits from the deterministic master-equation solution at the
final time, alongside the estimated standard error. The error should
shrink like 1/sqrt(n) until the Euler bias floor appears.

Usage:
    python scripts/ensemble_convergence.py --preset dephasing --t-final 1.0
"""

import argparse

from lindbladsde.lindblad import integrate_ode, time_grid
from lindbladsde.operators import frobenius
from lindbladsde.presets import PRESET_NAMES, preset_model, uniform_superposition
from lindbladsde.unraveling import run_ensemble


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="dephasing", choices=PRESET_NAMES)
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--counts", type=int, nargs="+",
                        default=[100, 400, 1600, 6400, 25600])
    args = parser.parse_args()

    model = preset_model(args.preset)
    rho0 = uniform_superposition(model.dim)
    steps, _ = time_grid(args.t_final, args.dt, 1, "ensemble_convergence")
    reference = integrate_ode(model, rho0, args.t_final, args.dt / 10.0,
                              record_every=steps * 10)

    print(f"preset={args.preset} t_final={args.t_final} dt={args.dt}")
    print(f"{'trajectories':>12} {'|mean - ode|':>14} {'stderr':>12} {'ratio':>8}")
    for count in args.counts:
        stats, _ = run_ensemble(model, rho0, args.t_final, args.dt, count,
                                seed=args.seed, record_every=steps)
        gap = frobenius(stats.mean_state[-1] - reference.states[-1])
        stderr = stats.stderr[-1]
        ratio = gap / stderr if stderr > 0 else float("inf")
        print(f"{count:>12d} {gap:>14.6e} {stderr:>12.3e} {ratio:>8.2f}")


if __name__ == "__main__":
    main()
