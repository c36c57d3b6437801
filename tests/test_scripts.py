"""The scripts on made-up inputs: bench_pair's verdict rule and run record,
without running the benchmark, and code_lines' count."""

import ast
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # quartiles 10.175, 10.725


@pytest.mark.parametrize("base, change, better, more_failures, expected", [
    (BASE, [b - 1.0 for b in BASE], "lower", False, "gain"),
    (BASE, [b + 1.0 for b in BASE], "higher", False, "gain"),
    # nine wins and one tie is still nine tenths; two ties are not
    (BASE, [*(b - 1.0 for b in BASE[:9]), BASE[9]], "lower", False, "gain"),
    (BASE, [*(b - 1.0 for b in BASE[:8]), *BASE[8:]], "lower", False, "no regression"),
    # every pair won, but the medians are closer than the base's quartiles
    (BASE, [b - 0.1 for b in BASE], "lower", False, "no regression"),
    # a gain does not count when more operations fail
    (BASE, [b - 1.0 for b in BASE], "lower", True, "no regression"),
    (BASE, [b + 3.0 for b in BASE], "lower", False, "regression"),
    (BASE, [b - 3.0 for b in BASE], "higher", False, "regression"),
    (BASE, [b + 2.0 for b in BASE], "lower", False, "no regression"),
    # quartile spread wider than the bound: unresolved unless every change
    # run beats every base run
    ([100.0] * 5 + [150.0] * 5, [150.0] * 5 + [100.0] * 5, "lower", False, "unresolved"),
    ([100.0] * 5 + [150.0] * 5, [99.0] * 10, "lower", False, "no regression"),
])
def test_bench_pair_verdict(base, change, better, more_failures, expected):
    # bound 0.25, as BENCHMARK.json gives the time metrics
    judged = load_script("bench_pair").verdict(base, change, better, 0.25, more_failures)
    assert judged["verdict"] == expected


def test_bench_pair_verdict_reports_gap_and_base_spread():
    judged = load_script("bench_pair").verdict(BASE, [b + 0.5 for b in BASE], "lower", 0.1)
    assert judged == {"base_iqr": pytest.approx(0.55), "median_gap": pytest.approx(-0.5),
                      "pairs_won": 0, "verdict": "no regression"}


def test_bench_pair_run_records_the_load_before_and_after(tmp_path, monkeypatch):
    module = load_script("bench_pair")
    detail = {"env": {"source_sha256": "abc"}}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_wall_s": {"value": 0.25, "unit": "s"}}}
    stdout = json.dumps(detail) + "\n" + json.dumps(result) + "\n"
    commands = []

    def run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    readings = iter([(1.5, 1.25, 1.0), (2.5, 1.75, 1.125)])
    monkeypatch.setattr(module.subprocess, "run", run)
    monkeypatch.setattr(module.os, "getloadavg", lambda: next(readings))
    record = module.bench_run(tmp_path, "sde-qubit-wide", 1005, 1.0)
    assert len(commands) == 1 and "perfbench/run.py" in commands[0]
    assert record["load"] == {"before": [1.5, 1.25, 1.0], "after": [2.5, 1.75, 1.125]}
    assert record["metrics"] == {"op_wall_s": 0.25} and record["env"] == detail["env"]
    assert json.loads(json.dumps(record)) == record


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    module = load_script("code_lines")
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function docstring."""
        # another comment
        return (1 +
                2)
'''
    assert module.code_lines(source) == 7
    (tmp_path / "m.py").write_text(source)
    (tmp_path / "n.py").write_text("x = 1\n")
    module.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[-1].split() == ["8", "total"]


# The file names are unique across the three directories, so they stay the ids.
PYTHON_FILES = sorted(f for d in ("src/lindbladsde", "tests", "scripts")
                      for f in (ROOT / d).glob("*.py"))


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: p.name)
def test_source_lines_fit_110_columns(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 110]
    assert long == [], f"{path.relative_to(ROOT)}: lines over 110 columns: {long}"


def unused_imports(source):
    """Names bound by the module-level imports of source that nothing else reads.

    from __future__ imports are left out; a dotted import binds its first part.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_unused_imports_finds_only_the_unread_names():
    source = """from __future__ import annotations
import os.path
import numpy as np
from json import dumps, loads as parse
from .lindblad import drift_operator, lindblad_rhs

def f(x: np.ndarray):
    return os.path.join(parse(x), lindblad_rhs)
"""
    assert unused_imports(source) == ["drift_operator (line 5)", "dumps (line 4)"]


# __init__.py imports to re-export
@pytest.mark.parametrize("path", [p for p in PYTHON_FILES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    unused = unused_imports(path.read_text())
    assert unused == [], f"{path.relative_to(ROOT)}: unused imports: {unused}"
