"""Command-line interface: model files, subcommand dispatch, CSV emission.

Model files are JSON with complex entries written as [re, im] pairs::

    {
      "dim": 2,
      "hamiltonian": [[[0,0],[0,0]],[[0,0],[0,0]]],
      "lindblad_ops": [[[[0,0],[0,1]],[[0,0],[0,0]]]],
      "weights": [1.0],
      "covariance": [[1.0]]
    }

weights may be omitted when there is exactly one operator (defaults to
[1.0]); covariance defaults to the identity. Anywhere a model path is
expected, the name of a built-in preset is accepted too, unless a file of
that name exists.

Exit codes: 0 success, 1 usage error (an --out that cannot be written
included), 2 invalid model, 3 numerical failure, 4 derivation mismatch,
5 a chunk worker died before it sent its results (WorkerDiedError).

ode, sde and choi open a temporary file next to --out before they
compute, so an unwritable --out fails at once, and move it onto --out with
an atomic replace, so a failing subcommand leaves its output path as it
was. The replaced file's permission bits are kept. A device or a pipe,
such as /dev/stdout, is written in place. The CSV of a recorded series is streamed one block of
rows at a time: besides the series itself and its per-row trace,
eigenvalue and purity columns, it holds one block of rows as numbers and
one row as text.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .channels import build_infinitesimal_kraus, choi_of
from .ito import derive_stochastic_evolution
from .lindblad import LindbladModel, NumericalError, integrate_ode, time_grid
from .operators import matrix_from_literal, min_eigenvalues, purities, real_matrix_from_literal
from .presets import PRESET_NAMES, preset_model, uniform_superposition
from .unraveling import STEPPERS, WorkerDiedError, run_ensemble, trajectory_rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_NUMERICAL = 3
EXIT_DERIVATION = 4
EXIT_WORKER = 5

DERIVE_TOL = 1e-10


class _UsageError(Exception):
    pass


def parse_model(path_or_preset: str) -> LindbladModel:
    """Load and validate a model from a JSON file or a preset name.

    An existing file wins over a preset of the same name. The model's
    validation report goes to stderr; hard invariant violations raise
    ValueError, the soft trajectory-trace check is reported only.
    """
    path = Path(path_or_preset)
    if path.is_file():
        model = _model_from_file(path)
    elif path_or_preset in PRESET_NAMES:
        model = preset_model(path_or_preset)
    else:
        raise ValueError(
            f"model file not found: {path_or_preset!r} "
            f"(presets: {', '.join(PRESET_NAMES)})"
        )
    print(f"model report for {path_or_preset!r}:", file=sys.stderr)
    print(model.report.summary(), file=sys.stderr)
    return model


def _model_from_file(path: Path) -> LindbladModel:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")

    def take(key, required=True):
        if key not in payload:
            if required:
                raise ValueError(f"missing required field {key!r}")
            return None
        return payload[key]

    known = {"dim", "hamiltonian", "lindblad_ops", "weights", "covariance"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"{path}: unknown fields {sorted(unknown)}")

    # the except clause below prefixes each message with the path
    try:
        dim = take("dim")
        # bool is an int subclass, but "dim": true is not a dimension
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError("dim must be a positive integer")
        hamiltonian = matrix_from_literal(take("hamiltonian"), name="hamiltonian")
        raw_ops = take("lindblad_ops")
        if not isinstance(raw_ops, list) or not raw_ops:
            raise ValueError("lindblad_ops: expected a nonempty array of matrices")
        ops = np.array([
            matrix_from_literal(entry, name=f"lindblad_ops[{i}]")
            for i, entry in enumerate(raw_ops)
        ])
        weights = take("weights", required=False)
        if weights is None:
            if len(raw_ops) != 1:
                raise ValueError(
                    "weights: required when there is more than one operator"
                )
            weights = [1.0]
        covariance = take("covariance", required=False)
        covariance = (np.eye(len(raw_ops)) if covariance is None
                      else real_matrix_from_literal(covariance, name="covariance"))
        if hamiltonian.shape[0] != dim:
            raise ValueError(
                f"hamiltonian is {hamiltonian.shape[0]}x{hamiltonian.shape[0]} "
                f"but dim is {dim}"
            )
        model = LindbladModel(
            hamiltonian=hamiltonian,
            lindblad_ops=ops,
            weights=np.asarray(weights, dtype=float),
            covariance=covariance,
        )
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return model


def _format(x: float) -> str:
    return repr(float(x))


# Rows per block of _states_csv. Besides the recorded series and its (T,)
# columns, the CSV holds one block's re/im table, so memory does not grow
# with the horizon.
_CSV_BLOCK_ROWS = 128


def _states_csv(times, states, stderr=None):
    """The recorded series as CSV lines, one row per recorded time.

    Columns: time; the real and imaginary part of every entry of rho in
    row-major order; the trace, smallest eigenvalue and purity of rho; and
    stderr when given. Yields the header and then every row, each ending
    in a newline, building the re/im table one block of rows at a time.
    """
    d = states.shape[-1]
    header = ["time",
              *(f"rho_{i}_{j}_{part}" for i, j in np.ndindex(d, d) for part in ("re", "im")),
              "trace_re", "min_eigenvalue", "purity"]
    # over the whole series at once: a batch of another size may round differently
    scalars = [np.trace(states, axis1=-2, axis2=-1).real,
               min_eigenvalues(states), purities(states)]
    if stderr is not None:
        header.append("stderr")
        scalars.append(stderr)
    yield ",".join(header) + "\n"
    for start in range(0, len(times), _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        entries = states[block].reshape(-1, d * d)
        parts = np.stack([entries.real, entries.imag], axis=-1).reshape(-1, 2 * d * d)
        # repr of a Python float is _format of the numpy one. One row at a
        # time: a whole-block tolist() holds every entry as a Python float.
        for row in np.column_stack([times[block], parts, *(c[block] for c in scalars)]):
            yield ",".join(map(repr, row.tolist())) + "\n"


@contextlib.contextmanager
def _write_output(path: str):
    """Open path for a subcommand's CSV before it computes; yields write(lines).

    The lines go to a temporary file next to path, opened on entry, so an
    unwritable path is a usage error before any work is done. On a clean
    exit the temporary file takes the permission bits of an existing
    regular file at path and then replaces it atomically; its owner and
    any hard links to it are not kept. An exception inside the block, or
    during the write, leaves path as it was and removes the temporary file.
    A device or a pipe, such as /dev/null or /dev/stdout, is opened and
    written in place.
    """
    def unwritable(exc: OSError) -> _UsageError:
        return _UsageError(f"cannot write --out {path}: {exc.strerror or exc}")

    # a rename would replace a device itself; a directory fails to open
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = os.path.realpath(path)
    written = path if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(written, "w", encoding="utf-8")
    except OSError as exc:
        raise unwritable(exc) from exc

    def write(lines) -> None:
        try:
            handle.writelines(lines)
            handle.flush()
        except OSError as exc:
            raise unwritable(exc) from exc

    try:
        with handle:
            yield write
        if not in_place:
            try:
                if os.path.isfile(target):
                    os.chmod(written, stat.S_IMODE(os.stat(target).st_mode))
                os.replace(written, target)
            except OSError as exc:
                raise unwritable(exc) from exc
    except BaseException:
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(written)
        raise


def cmd_check(args) -> int:
    model = parse_model(args.model)
    verdict = "true" if model.report.trajectory_trace_preserving else "false"
    print(f"model ok: dim={model.dim} noises={model.noise_count} "
          f"trajectory_trace_preserving={verdict}")
    return EXIT_OK


def cmd_ode(args) -> int:
    _check_grid(args)
    model = parse_model(args.model)
    with _write_output(args.out) as write:
        trajectory = integrate_ode(model, uniform_superposition(model.dim),
                                   args.t_final, args.dt, args.record_every)
        write(_states_csv(trajectory.times, trajectory.states))
    return EXIT_OK


def cmd_sde(args) -> int:
    _check_grid(args)
    model = parse_model(args.model)
    with _write_output(args.out) as write:
        # run_ensemble forks one worker process per usable CPU, up to the
        # chunk count; the CSV bytes do not depend on how many.
        stats, diagnostics = run_ensemble(
            model, uniform_superposition(model.dim), args.t_final, args.dt,
            args.trajectories, args.seed, args.record_every,
            args.stepper.replace("-", "_"),
        )
        write(_states_csv(stats.times, stats.mean_state, stats.stderr))
    print(f"trajectories={stats.trajectory_count} seed={stats.seed} "
          f"trace_extremes=({diagnostics.trace_min:.6g}, {diagnostics.trace_max:.6g}) "
          f"min_eigenvalue={diagnostics.min_eigenvalue:.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_derive(args) -> int:
    model = parse_model(args.model)
    rng = trajectory_rng(0xD5EED, 0)
    g = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal(
        (model.dim, model.dim))
    probe = g @ g.conj().T
    probe = probe / np.trace(probe).real

    result = derive_stochastic_evolution(model, probe)

    with np.printoptions(precision=12, suppress=False, linewidth=120):
        print("drift coefficient (dt):")
        print(result.drift_coefficient)
        for n, coeff in enumerate(result.noise_coefficients):
            print(f"noise coefficient (dW^{n}):")
            print(coeff)
    print(f"drift residual vs master-equation generator: {result.drift_residual:.3e}")
    print(f"noise residual vs d_n (v_n rho + rho v_n^dagger): {result.noise_residual:.3e}")
    print(f"drift trace residual: {result.trace_residual:.3e}")
    if result.drift_residual > DERIVE_TOL or result.noise_residual > DERIVE_TOL:
        print("derivation mismatch beyond tolerance", file=sys.stderr)
        return EXIT_DERIVATION
    return EXIT_OK


def cmd_choi(args) -> int:
    model = parse_model(args.model)
    root = np.sqrt(args.dt)
    lines = ["dw_scale,index,eigenvalue\n"]
    with _write_output(args.out) as write:
        for scale in (0.0, 1.0, -1.0):
            dw = np.full(model.noise_count, scale * root)
            choi = choi_of(build_infinitesimal_kraus(model, args.dt, dw))
            if not np.all(np.isfinite(choi)):
                raise NumericalError(
                    f"choi: non-finite Choi matrix; dt={args.dt!r} is too large for this model"
                )
            eigenvalues = np.linalg.eigvalsh(choi)
            for idx, value in enumerate(eigenvalues):
                lines.append(f"{_format(scale)},{idx},{_format(value)}\n")
        write(lines)
    return EXIT_OK


def _check_grid(args) -> None:
    try:
        time_grid(args.t_final, args.dt, args.record_every, args.command)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _at_least(low: int, below: int | None = None):
    """argparse type for an integer flag with a lower and an optional upper bound."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value
    return integer


def _finite_positive(text: str) -> float:
    """argparse type for a float flag that must be finite and positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lindbladsde",
                     description="Master-equation dynamics and stochastic unraveling")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True,
                       help="model JSON path or preset name "
                            f"({', '.join(PRESET_NAMES)})")

    p_check = sub.add_parser("check", help="validate a model and print its report")
    add_model(p_check)
    p_check.set_defaults(func=cmd_check)

    p_ode = sub.add_parser("ode", help="integrate the deterministic mean evolution")
    add_model(p_ode)
    p_ode.add_argument("--t-final", type=_finite_positive, required=True)
    p_ode.add_argument("--dt", type=_finite_positive, required=True)
    p_ode.add_argument("--record-every", type=_at_least(1), default=1)
    p_ode.add_argument("--out", required=True)
    p_ode.set_defaults(func=cmd_ode)

    p_sde = sub.add_parser("sde", help="run a Monte Carlo trajectory ensemble")
    add_model(p_sde)
    p_sde.add_argument("--t-final", type=_finite_positive, required=True)
    p_sde.add_argument("--dt", type=_finite_positive, required=True)
    p_sde.add_argument("--trajectories", type=_at_least(1), default=1000)
    # trajectory i draws from Philox keyed by (seed, i), one 64-bit word each
    p_sde.add_argument("--seed", type=_at_least(0, below=2**64), default=0)
    p_sde.add_argument("--record-every", type=_at_least(1), default=1)
    steppers = [name.replace("_", "-") for name in STEPPERS]
    p_sde.add_argument("--stepper", choices=steppers, default=steppers[0])
    p_sde.add_argument("--out", required=True)
    p_sde.set_defaults(func=cmd_sde)

    p_derive = sub.add_parser(
        "derive", help="expand the one-step channel and check it against the generator")
    add_model(p_derive)
    p_derive.set_defaults(func=cmd_derive)

    p_choi = sub.add_parser(
        "choi", help="eigenvalues of the one-step channel's Choi matrix as CSV")
    add_model(p_choi)
    p_choi.add_argument("--dt", type=_finite_positive, required=True)
    p_choi.add_argument("--out", required=True)
    p_choi.set_defaults(func=cmd_choi)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WorkerDiedError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except ValueError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_MODEL


def console_entry() -> None:
    raise SystemExit(main())
