import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import philox
from lindbladsde.cli import (
    EXIT_DERIVATION,
    EXIT_MODEL,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WORKER,
    _CSV_BLOCK_ROWS,
    _format,
    _states_csv,
    main,
    parse_model,
)
from lindbladsde.lindblad import NumericalError
from lindbladsde.operators import min_eigenvalues, purities
from lindbladsde.presets import PRESET_NAMES, preset_model
from test_golden_csv import QUDIT8_MODEL, QUTRIT_MODEL
from test_unraveling import TWO_CPU_RUN, run_python


def write_model(tmp_path, name="model.json", **overrides):
    payload = {
        "dim": 2,
        "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "lindblad_ops": [[[[0, 0], [0, 1]], [[0, 0], [0, 0]]]],
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SIGMA_MINUS_LITERAL = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
SIGMA_PLUS_LITERAL = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
TWO_OPS = {"lindblad_ops": [SIGMA_MINUS_LITERAL, SIGMA_PLUS_LITERAL], "weights": [0.6, 0.8]}
ZERO_2X3 = [[[0, 0]] * 3] * 2


def operator_literal(entry):
    """A 2x2 operator literal with entry as the real part of its (0, 1) element."""
    return [[[0, 0], [entry, 0]], [[0, 0], [0, 0]]]


def plain_complex(rows):
    """A literal of [re, im] pairs read with plain numpy."""
    a = np.array(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class TestParseModel:
    def test_preset_names_resolve(self, capsys):
        for name in PRESET_NAMES:
            model = parse_model(name)
            assert model.dim == 2
            assert model.report.summary() in capsys.readouterr().err

    def test_file_loads_with_defaults(self, tmp_path, capsys):
        model = parse_model(write_model(tmp_path))
        assert model.noise_count == 1
        assert np.array_equal(model.weights, [1.0])
        assert np.array_equal(model.covariance, np.eye(1))

    def test_missing_weights_with_two_operators(self, tmp_path):
        path = write_model(
            tmp_path,
            lindblad_ops=[[[[0, 0], [0, 1]], [[0, 0], [0, 0]]],
                          [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
        )
        with pytest.raises(ValueError, match="weights"):
            parse_model(path)

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,,}')
        with pytest.raises(ValueError, match=r"line \d+, column \d+"):
            parse_model(str(path))

    def test_unnormalized_weights_report_residual(self, tmp_path):
        path = write_model(
            tmp_path,
            lindblad_ops=[[[[0, 0], [0, 1]], [[0, 0], [0, 0]]],
                          [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
            weights=[1.0, 1.0],
        )
        with pytest.raises(ValueError, match="sum of squares differs from 1 by 1"):
            parse_model(path)

    def test_unknown_path_mentions_presets(self):
        with pytest.raises(ValueError, match="presets:"):
            parse_model("no-such-model")

    def test_unknown_field_rejected(self, tmp_path):
        path = write_model(tmp_path, initial_state=[[1, 0], [0, 0]])
        with pytest.raises(ValueError, match="unknown fields"):
            parse_model(path)

    def test_hand_literals(self, tmp_path, capsys):
        path = write_model(tmp_path, hamiltonian=[[[0, 0], [0, 1]], [[0, -1], [0, 0]]],
                           covariance=[[1.0, 0.5], [0.5, 1.0]], **TWO_OPS)
        model = parse_model(path)
        assert np.array_equal(model.hamiltonian, np.array([[0.0, 1.0j], [-1.0j, 0.0]]))
        assert np.array_equal(model.lindblad_ops[1], np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(model.covariance, np.array([[1.0, 0.5], [0.5, 1.0]]))

    @pytest.mark.parametrize("literal", [QUTRIT_MODEL, QUDIT8_MODEL], ids=["qutrit", "qudit8"])
    def test_golden_model_files_parse_to_plain_numpy(self, tmp_path, capsys, literal):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(literal))
        model = parse_model(str(path))
        for got, want in [
            (model.hamiltonian, plain_complex(literal["hamiltonian"])),
            (model.lindblad_ops, plain_complex(literal["lindblad_ops"])),
            (model.weights, np.array(literal["weights"])),
            (model.covariance, np.array(literal["covariance"])),
        ]:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_dim_mismatch_rejected(self, tmp_path):
        path = write_model(tmp_path, dim=3)
        with pytest.raises(ValueError, match="dim is 3"):
            parse_model(path)


class TestCheckCommand:
    def test_dephasing_ok(self, capsys):
        assert main(["check", "--model", "dephasing"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "trajectory_trace_preserving=true" in out

    def test_amplitude_damping_reports_soft_failure(self, capsys):
        assert main(["check", "--model", "amplitude-damping"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "trajectory_trace_preserving=false" in out

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        path = write_model(tmp_path, weights=[2.0])
        assert main(["check", "--model", path]) == EXIT_MODEL
        assert "invalid model" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["dim", "hamiltonian", "lindblad_ops"])
    def test_missing_field_names_the_file_once(self, tmp_path, monkeypatch, capsys, field):
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path, name="m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        del payload[field]
        (tmp_path / "m.json").write_text(json.dumps(payload))
        assert main(["check", "--model", "m.json"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err == f"invalid model: m.json: missing required field {field!r}\n"

    def test_undecodable_file_names_it_once(self, tmp_path, monkeypatch, capsys):
        # \xff\xfe is a UTF-16 byte-order mark, not UTF-8
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bin.json").write_bytes(b"\xff\xfe{}")
        assert main(["check", "--model", "bin.json"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err == ("invalid model: bin.json: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    def test_boolean_dim_is_rejected(self, tmp_path, monkeypatch, capsys):
        # bool is an int subclass; "dim": true must not pass as dim=1
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path, name="m.json", dim=True, hamiltonian=[[[0, 0]]],
                    lindblad_ops=[[[[0, 1]]]])
        assert main(["check", "--model", "m.json"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err == "invalid model: m.json: dim must be a positive integer\n"

    # The reader only turns literals into arrays; LindbladModel judges
    # shapes and values. Each defect is one line naming its field.
    @pytest.mark.parametrize("overrides, message", [
        ({"hamiltonian": ZERO_2X3}, "hamiltonian: expected a square matrix, got shape (2, 3)"),
        ({"hamiltonian": [[[1, 0], [0, 0]]]},
         "hamiltonian: expected a square matrix, got shape (1, 2)"),
        ({"hamiltonian": [[[float("nan"), 0], [0, 0]], [[0, 0], [0, 0]]]},
         "hamiltonian: entries must be finite"),
        ({"hamiltonian": [[0, 0], [0, 0]]},
         "hamiltonian: expected rows of [re, im] pairs, got shape (2, 2)"),
        ({"hamiltonian": [[1.0, 0.0], [0.0, 1.0]]},
         "hamiltonian: expected rows of [re, im] pairs, got shape (2, 2)"),
        ({"hamiltonian": 0}, "hamiltonian: expected rows of [re, im] pairs, got shape ()"),
        ({"hamiltonian": [[[0, 0]], [[0, 0], [1, 0]]]}, "hamiltonian: malformed literal ("),
        ({"hamiltonian": [[[0, 0], [10 ** 400, 0]], [[0, 0], [0, 0]]]},
         "hamiltonian: malformed literal (int too large to convert to float)"),
        ({"hamiltonian": operator_literal(1e200)}, "hamiltonian: not Hermitian"),
        ({"lindblad_ops": [SIGMA_MINUS_LITERAL, [[[0, 0]] * 3] * 3], "weights": [0.6, 0.8]},
         "lindblad_ops: malformed literal ("),
        ({"lindblad_ops": [ZERO_2X3]},
         "lindblad_ops: operator shape (2, 3) does not match dim 2"),
        ({"lindblad_ops": [operator_literal(float("inf"))]},
         "lindblad_ops: entries must be finite"),
        ({"lindblad_ops": [operator_literal(1e160)]}, "lindblad_ops: entries too large"),
        ({"lindblad_ops": [operator_literal(5e154)]}, "lindblad_ops: entries too large"),
        ({"covariance": [[1.0, 0.0]]}, "covariance: expected a square matrix, got shape (1, 2)"),
        ({"covariance": [1.0]}, "covariance: expected a square matrix, got shape (1,)"),
        ({"covariance": [["a"]]},
         "covariance: malformed literal (could not convert string to float: 'a')"),
        ({"covariance": [[1, 1e200], [0, 1]], **TWO_OPS}, "covariance: not Hermitian"),
        ({"weights": ["x"]}, "weights: malformed literal (could not convert string to float: 'x')"),
        ({"weights": [0.6, 0.8]}, "weights: expected shape (1,), got (2,)"),
        ({"covariance": [[1, 0], [0, 1]]}, "covariance: expected shape (1, 1), got (2, 2)"),
        ({"lindblad_ops": [[SIGMA_MINUS_LITERAL]]},
         "lindblad_ops: expected a nonempty (N, d, d) stack, got (1, 1, 2, 2)"),
        ({"lindblad_ops": []}, "lindblad_ops: expected a nonempty array of matrices"),
    ], ids=["hamiltonian-2x3", "hamiltonian-non-square", "hamiltonian-nan", "hamiltonian-2d",
            "hamiltonian-scalar-entries", "hamiltonian-scalar", "hamiltonian-ragged",
            "hamiltonian-int-overflow", "hamiltonian-huge-non-hermitian", "ops-two-sizes",
            "ops-2x3", "ops-infinity", "ops-vdv-overflow-1e160", "ops-vdv-overflow-5e154",
            "covariance-1x2", "covariance-1d", "covariance-text", "covariance-huge-asymmetric",
            "weights-text", "weights-too-many", "covariance-too-large", "ops-too-deep",
            "ops-empty"])
    def test_file_defect_names_its_field(self, tmp_path, monkeypatch, capsys, overrides,
                                         message):
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path, name="m.json", **overrides)
        assert main(["check", "--model", "m.json"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err.startswith(f"invalid model: m.json: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_file_that_is_not_an_object_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text("[]")
        assert main(["check", "--model", "m.json"]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err == "invalid model: m.json: expected a JSON object at the top level\n"

    def test_huge_hermitian_hamiltonian_is_accepted(self, tmp_path, capsys):
        path = write_model(tmp_path, hamiltonian=[[[0, 0], [1e200, 0]], [[1e200, 0], [0, 0]]])
        assert main(["check", "--model", path]) == EXIT_OK
        assert "model ok" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "--model", "missing.json"]) == EXIT_MODEL

    def test_validates_once(self, monkeypatch, capsys):
        import lindbladsde.lindblad as lindblad

        calls = []
        original = lindblad.check_hermitian

        def counting(m, name):
            calls.append(name)
            return original(m, name)

        monkeypatch.setattr(lindblad, "check_hermitian", counting)
        assert main(["check", "--model", "dephasing"]) == EXIT_OK
        assert calls.count("covariance") == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["simulate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["ode", "--model", "dephasing"]) == EXIT_USAGE

    def test_dt_not_dividing_t_final(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["ode", "--model", "dephasing", "--t-final", "1.0",
                     "--dt", "3e-4", "--out", str(out)])
        assert code == EXIT_USAGE
        message = capsys.readouterr().err
        assert "0.0003" in message and "1.0" in message
        assert not out.exists()

    def test_record_every_not_dividing(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["ode", "--model", "dephasing", "--t-final", "1.0",
                     "--dt", "1e-2", "--record-every", "7", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("sde", "--trajectories", "0"),
        ("sde", "--seed", "-1"),
        ("sde", "--record-every", "0"),
        ("sde", "--t-final", "0"),
        ("ode", "--record-every", "0"),
        ("ode", "--dt", "-1"),
    ])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "never.csv"
        # argparse keeps the last occurrence, so flag overrides the valid grid
        argv = [command, "--model", "dephasing", "--t-final", "0.02", "--dt", "1e-3",
                "--out", str(out), flag, value]
        assert main(argv) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


    def test_unparsable_float_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["choi", "--model", "dephasing", "--dt", "abc",
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: argument --dt: invalid float value: 'abc'\n"
        assert not out.exists()

    def test_seed_beyond_the_philox_key_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["sde", "--model", "dephasing", "--t-final", "0.02", "--dt", "1e-3",
                     "--seed", str(2**64), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: argument --seed: must be below {2**64}, got {2**64}\n"
        assert not out.exists()

    def test_trajectories_beyond_the_philox_key_is_usage_error(self, tmp_path, capsys):
        # the last trajectory's key is n - 1, so n = 2**64 is the largest count
        out = tmp_path / "never.csv"
        n = 2**64 + 1
        assert main(["sde", "--model", "dephasing", "--t-final", "0.02", "--dt", "1e-3",
                     "--trajectories", str(n), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: argument --trajectories: must be below {n}, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ode", "--t-final", "inf", "--dt", "0.01"],
        ["ode", "--t-final", "nan", "--dt", "0.01"],
        ["sde", "--t-final", "0.1", "--dt", "nan"],
        ["choi", "--dt", "nan"],
    ], ids=["ode-t-final-inf", "ode-t-final-nan", "sde-dt-nan", "choi-dt-nan"])
    def test_non_finite_float_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "never.csv"
        assert main([*argv, "--model", "dephasing", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must be finite and positive" in err and "model report" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ode", "sde"])
    def test_overflowing_step_count_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "never.csv"
        assert main([command, "--model", "dephasing", "--t-final", "1e300",
                     "--dt", "1e-10", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: {command}: t_final / dt = inf" in err
        assert "model report" not in err
        assert not out.exists()

    def test_unknown_stepper_lists_the_steppers(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["sde", "--model", "dephasing", "--t-final", "0.02", "--dt", "1e-3",
                     "--stepper", "milstein", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid choice: 'milstein'" in err and "'euler', 'exact-unitary'" in err
        assert not out.exists()


class TestOdeCommand:
    def test_writes_expected_schema(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["ode", "--model", "dephasing", "--t-final", "0.1",
                     "--dt", "1e-2", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ("time,rho_0_0_re,rho_0_0_im,rho_0_1_re,rho_0_1_im,"
                            "rho_1_0_re,rho_1_0_im,rho_1_1_re,rho_1_1_im,"
                            "trace_re,min_eigenvalue,purity")
        assert len(lines) == 12  # header + 11 samples

    def test_deterministic_output(self, tmp_path):
        args = ["ode", "--model", "two-noise-correlated", "--t-final", "0.2",
                "--dt", "1e-2", "--record-every", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_failure_leaves_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["ode", "--model", "nonexistent", "--t-final", "0.1",
                     "--dt", "1e-2", "--out", str(out)])
        assert code == EXIT_MODEL
        assert not out.exists()


class TestSdeCommand:
    def test_repeat_run_is_byte_identical(self, tmp_path):
        args = ["sde", "--model", "dephasing", "--t-final", "0.05",
                "--dt", "1e-3", "--trajectories", "64", "--seed", "9",
                "--record-every", "10"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        base = ["sde", "--model", "dephasing", "--t-final", "0.05",
                "--dt", "1e-3", "--trajectories", "64", "--record-every", "10"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--seed", "9", "--out", str(a)]) == EXIT_OK
        assert main(base + ["--seed", "10", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

    def test_stderr_column_present(self, tmp_path):
        out = tmp_path / "mean.csv"
        assert main(["sde", "--model", "amplitude-damping", "--t-final", "0.02",
                     "--dt", "1e-3", "--trajectories", "16", "--seed", "0",
                     "--out", str(out)]) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header.endswith("purity,stderr")

    def test_exact_unitary_stepper_flag(self, tmp_path):
        out = tmp_path / "mean.csv"
        code = main(["sde", "--model", "stochastic-unitary-larmor",
                     "--t-final", "0.02", "--dt", "1e-3", "--trajectories", "8",
                     "--stepper", "exact-unitary", "--out", str(out)])
        assert code == EXIT_OK

    def test_worker_processes_write_the_one_cpu_bytes(self, tmp_path, monkeypatch, capsys):
        import lindbladsde.unraveling as unr

        forks = []
        original = os.fork

        def counting():
            forks.append("fork")
            return original()

        monkeypatch.setattr(os, "fork", counting)
        n_traj = 2 * unr._CHUNK_TRAJECTORIES + 1  # three chunks, the last partial
        args = ["sde", "--model", "two-noise-correlated", "--t-final", "0.02", "--dt", "1e-3",
                "--trajectories", str(n_traj), "--seed", "4", "--record-every", "5"]
        outputs = {}
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            out = tmp_path / f"mean-{len(cpus)}.csv"
            assert main(args + ["--out", str(out)]) == EXIT_OK
            outputs[len(cpus)] = out.read_bytes(), capsys.readouterr().err
        assert forks == ["fork"] * 2  # only the two-CPU run forked, a child per CPU
        assert outputs[1] == outputs[2]

    def test_exact_unitary_rejected_for_damping(self, tmp_path, capsys):
        out = tmp_path / "mean.csv"
        code = main(["sde", "--model", "amplitude-damping", "--t-final", "0.02",
                     "--dt", "1e-3", "--trajectories", "8",
                     "--stepper", "exact-unitary", "--out", str(out)])
        assert code == EXIT_MODEL
        assert not out.exists()

    def test_ineligible_stepper_is_reported_before_the_step_size(self, tmp_path, capsys):
        # dt = 1.5 is refused for any stepper, but the model is the first fault
        out = tmp_path / "mean.csv"
        code = main(["sde", "--model", "amplitude-damping", "--t-final", "1.5",
                     "--dt", "1.5", "--trajectories", "8",
                     "--stepper", "exact-unitary", "--out", str(out)])
        assert code == EXIT_MODEL
        err = capsys.readouterr().err
        assert "noise operator (as -iK)" in err and "refusing" not in err
        assert not out.exists()


class TestStatesCsv:
    @staticmethod
    def reference(times, states, stderr=None):
        # the former _states_csv, which formats every numpy scalar through _format
        d = states.shape[-1]
        header = ["time",
                  *(f"rho_{i}_{j}_{part}" for i, j in np.ndindex(d, d)
                    for part in ("re", "im")),
                  "trace_re", "min_eigenvalue", "purity"]
        entries = states.reshape(len(times), -1)
        parts = np.stack([entries.real, entries.imag], axis=-1).reshape(len(times), -1)
        columns = [times, parts, np.trace(states, axis1=-2, axis2=-1).real,
                   min_eigenvalues(states), purities(states)]
        if stderr is not None:
            header.append("stderr")
            columns.append(stderr)
        lines = [",".join(header)]
        lines += [",".join(map(_format, row)) for row in np.column_stack(columns)]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("with_stderr", [False, True])
    @pytest.mark.parametrize("rows", [1, 9, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_bytes_of_the_scalar_formatter(self, dim, rows, with_stderr):
        rng = philox(100 * dim + rows)
        special = np.array([-0.0, 5e-324, -5e-324, 1e300, -1e300, 0.0, 3.0, -2.0,
                            1e16, 2.0**53 + 2.0, 0.1])

        def table(*shape):
            x = rng.standard_normal(shape)
            mask = rng.random(shape) < 0.4
            x[mask] = rng.choice(special, size=int(mask.sum()))
            return x

        times = table(rows)
        states = table(rows, dim, dim) + 1j * table(rows, dim, dim)
        states = 0.5 * (states + states.conj().swapaxes(-1, -2))  # eigvalsh reads Hermitian
        stderr = table(rows) if with_stderr else None
        with np.errstate(all="ignore"):  # squares of 1e300 overflow the purity
            csv = "".join(_states_csv(times, states, stderr))
            assert csv == self.reference(times, states, stderr)


class TestDeriveCommand:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_pass(self, name, capsys):
        assert main(["derive", "--model", name]) == EXIT_OK
        out = capsys.readouterr().out
        assert "drift residual" in out

    def test_leaves_print_options_alone(self, capsys):
        before = np.get_printoptions()
        assert main(["derive", "--model", "two-noise-correlated"]) == EXIT_OK
        assert np.get_printoptions() == before

    def test_mismatch_exits_4(self, monkeypatch, capsys):
        # the identity always holds for valid models, so fake a generator
        # disagreement to exercise the failure wiring
        import lindbladsde.ito as ito

        def wrong_rhs(model, rho):
            return np.eye(model.dim, dtype=complex)

        monkeypatch.setattr(ito, "lindblad_rhs", wrong_rhs)
        assert main(["derive", "--model", "dephasing"]) == EXIT_DERIVATION
        assert "mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("residual", ["drift_residual", "noise_residual"])
    def test_nan_residual_exits_4(self, monkeypatch, capsys, residual):
        import lindbladsde.cli as cli

        original = cli.derive_stochastic_evolution

        def nan_residual(model, rho):
            return dataclasses.replace(original(model, rho), **{residual: float("nan")})

        monkeypatch.setattr(cli, "derive_stochastic_evolution", nan_residual)
        assert main(["derive", "--model", "dephasing"]) == EXIT_DERIVATION
        assert "mismatch" in capsys.readouterr().err


class TestNumericalFailure:
    def test_oversized_step_exits_3(self, tmp_path, capsys):
        out = tmp_path / "mean.csv"
        code = main(["sde", "--model", "dephasing", "--t-final", "3.0",
                     "--dt", "1.5", "--trajectories", "4", "--out", str(out)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    # Entries at the ends of the float range: the norms are rescaled by a
    # power of two and overflowing steps are judged quietly, so each run
    # ends in its own exit code and message, with no numpy warning first.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, overrides, code, message", [
        ("check", {"hamiltonian": operator_literal(1e-200)}, EXIT_MODEL,
         "hamiltonian: not Hermitian (relative defect 1.414e+00 > 1.0e-10)"),
        ("check", {"hamiltonian": [[[0, 0], [1e-200, 0]], [[1e-200, 0], [0, 0]]]}, EXIT_OK,
         "model ok"),
        ("check", {"lindblad_ops": [operator_literal(1e154)]}, EXIT_OK,
         "trace-constraint residual [0]: 1.414e+154"),
        ("check", {"weights": [1e200]}, EXIT_MODEL,
         "weights: sum of squares differs from 1 by inf"),
        ("sde", {"hamiltonian": [[[0, 0], [1e300, 0]], [[1e300, 0], [0, 0]]]}, EXIT_NUMERICAL,
         "dt*(|H| + sum|v|^2) = 1.41e+298 > 1.0"),
        ("ode", {"lindblad_ops": [operator_literal(10.0)]}, EXIT_NUMERICAL,
         "integrate_ode: non-finite state at t=47"),
    ], ids=["tiny-non-hermitian-hamiltonian", "tiny-hermitian-hamiltonian",
            "operator-1e154", "weight-1e200", "hamiltonian-1e300-sde", "decay-blowup-ode"])
    def test_numeric_edge(self, tmp_path, capsys, command, overrides, code, message):
        path = write_model(tmp_path, **overrides)
        csv = str(tmp_path / "out.csv")
        flags = {"check": [],
                 "sde": ["--t-final", "0.01", "--dt", "0.01", "--trajectories", "4", "--out", csv],
                 "ode": ["--t-final", "300", "--dt", "1", "--out", csv]}[command]
        assert main([command, "--model", path, *flags]) == code
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert "Warning" not in captured.err


class TestWorkerFailure:
    def test_killed_worker_is_one_line_and_its_own_exit_code(self, tmp_path):
        # the self-SIGKILL chunk of test_killed_worker_raises_instead_of_hanging,
        # run through main; a worker lost to the OOM killer looks the same
        out = tmp_path / "mean.csv"
        out.write_text("old bytes\n")
        result = run_python(TWO_CPU_RUN + f"""
import lindbladsde.cli as cli
original = unr._run_chunk
def dying(*args):
    if args[-2] == 4096:  # the first trajectory of chunk 1
        os.kill(os.getpid(), signal.SIGKILL)
    return original(*args)
unr._run_chunk = dying
print(cli.main(["sde", "--model", "dephasing", "--t-final", "0.002", "--dt", "1e-3",
                "--trajectories", str(2 * 4096 + 1), "--out", {str(out)!r}]))
print(no_child_left())
""")
        *report, message = result.stderr.splitlines()
        assert result.stdout.split() == [str(EXIT_WORKER), "True"]
        # parse_model's report, then the one line
        assert report == ["model report for 'dephasing':",
                          *preset_model("dephasing").report.summary().splitlines()]
        assert re.fullmatch(r"worker failure: chunk worker \d+ was killed by signal 9 "
                            r"\(.*\) before it sent its results", message)
        assert out.read_text() == "old bytes\n"
        assert os.listdir(tmp_path) == ["mean.csv"]


# One fast successful run of each command that writes --out.
WRITERS = {
    "ode": ["ode", "--model", "dephasing", "--t-final", "0.02", "--dt", "1e-3"],
    "sde": ["sde", "--model", "dephasing", "--t-final", "0.02", "--dt", "1e-3",
            "--trajectories", "8"],
    "choi": ["choi", "--model", "dephasing", "--dt", "1e-3"],
}


class TestOutputFile:
    @pytest.mark.parametrize("command", sorted(WRITERS))
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_one_line_usage_error(self, tmp_path, capsys, command, target):
        (tmp_path / "directory").mkdir()
        out = tmp_path / target / ("x.csv" if target == "missing-directory" else "")
        assert main([*WRITERS[command], "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"usage error: cannot write --out {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]
        assert list((tmp_path / "directory").iterdir()) == []

    @pytest.mark.parametrize("command, solver", [("ode", "integrate_ode"),
                                                 ("sde", "run_ensemble")])
    def test_unwritable_out_is_found_before_the_computation(self, tmp_path, monkeypatch,
                                                           capsys, command, solver):
        import lindbladsde.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError(f"{solver} ran before --out was opened")

        monkeypatch.setattr(cli, solver, refuse)
        out = tmp_path / "missing-directory" / "x.csv"
        assert main([*WRITERS[command], "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"usage error: cannot write --out {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_replacing_keeps_the_permission_bits(self, tmp_path):
        out = tmp_path / "choi.csv"
        out.write_text("old\n")
        out.chmod(0o600)
        assert main([*WRITERS["choi"], "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("dw_scale,")
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command", sorted(WRITERS))
    def test_success_replaces_an_existing_file(self, tmp_path, command):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        assert main([*WRITERS[command], "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith(("time,", "dw_scale,"))
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command", ["ode", "choi"])
    def test_pipe_is_written_in_place(self, tmp_path, capsys, command):
        # like /dev/null or /dev/stdout, a pipe must not be replaced by a file
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()),
                                  daemon=True)
        reader.start()
        assert main([*WRITERS[command], "--out", str(pipe)]) == EXIT_OK
        reader.join(timeout=20)
        assert received and received[0].startswith((b"time,", b"dw_scale,"))
        assert list(tmp_path.iterdir()) == [pipe] and pipe.is_fifo()

    def test_numerical_failure_keeps_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "mean.csv"
        out.write_bytes(b"old bytes\n")
        code = main(["sde", "--model", "dephasing", "--t-final", "3.0",
                     "--dt", "1.5", "--trajectories", "4", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert out.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command", ["ode", "sde"])
    def test_failure_mid_stream_keeps_an_existing_file(self, tmp_path, monkeypatch,
                                                       capsys, command):
        import lindbladsde.cli as cli

        written = []

        def failing(times, states, stderr=None):
            yield "time\n"
            written.append(True)
            raise NumericalError("failed after the header")

        monkeypatch.setattr(cli, "_states_csv", failing)
        out = tmp_path / "out.csv"
        out.write_bytes(b"old bytes\n")
        assert main([*WRITERS[command], "--out", str(out)]) == EXIT_NUMERICAL
        assert written  # the writer had taken the header
        assert "failed after the header" in capsys.readouterr().err
        assert out.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path, capsys):
        # 20 001 recorded 2x2 states, 1.3 MB; their CSV is 3.3 MB of text, which
        # a writer that joins the whole table before writing holds several times
        states_bytes = 20_001 * 2 * 2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            code = main(["ode", "--model", "dephasing", "--t-final", "20.0",
                         "--dt", "1e-3", "--out", str(tmp_path / "long.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 3 * states_bytes


class TestChoiCommand:
    def test_eigenvalues_nonnegative_for_presets(self, tmp_path):
        for name in PRESET_NAMES:
            out = tmp_path / f"{name}.csv"
            assert main(["choi", "--model", name, "--dt", "1e-3",
                         "--out", str(out)]) == EXIT_OK
            lines = out.read_text().splitlines()
            assert lines[0] == "dw_scale,index,eigenvalue"
            values = [float(line.split(",")[2]) for line in lines[1:]]
            assert min(values) >= -1e-10

    def test_rejects_nonpositive_dt(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["choi", "--model", "dephasing", "--dt", "0",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model, dt", [("dephasing", "1e300"),
                                           ("qudit8.json", "1.7e308")])
    def test_overflow_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys, model, dt):
        # 1e300 overflows the Choi matrix; 1.7e308 already overflows dt * U
        monkeypatch.chdir(tmp_path)
        (tmp_path / "qudit8.json").write_text(json.dumps(QUDIT8_MODEL))
        code = main(["choi", "--model", model, "--dt", dt, "--out", "c.csv"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: " in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_overflow_prints_only_the_failure(self, tmp_path):
        # numpy's overflow warnings would reach stderr ahead of the one line
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "lindbladsde", "choi", "--model", "dephasing",
             "--dt", "1e300", "--out", "c.csv"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=60)
        assert result.returncode == EXIT_NUMERICAL
        assert "Warning" not in result.stderr
        assert result.stderr.splitlines()[-1].startswith("numerical failure: choi:")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("model", ["missing.json", "dephasing"])
    def test_dt_checked_before_the_model_loads(self, tmp_path, capsys, model):
        out = tmp_path / "x.csv"
        code = main(["choi", "--model", model, "--dt", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "model report" not in capsys.readouterr().err
        assert not out.exists()
