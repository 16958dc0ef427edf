"""Source-level rules for the library, and the scripts' command lines."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stochgame"


def _script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300)


def _sweep(*args):
    return _script("halfpos_sweep.py", *args)


def test_library_raises_instead_of_asserting():
    # `python -O` strips assert statements, so invariants must raise.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and not found, found


def test_library_imports_only_at_module_level():
    # an import inside a function hides a dependency from the module graph
    found = sorted({f"{path.name}:{node.lineno}"
                    for path in sorted(SRC.glob("*.py"))
                    for func in ast.walk(ast.parse(path.read_text()))
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert sorted(SRC.glob("*.py")) and not found, found


def test_library_module_graph_has_no_cycle():
    # module-level imports only: an `if TYPE_CHECKING:` block is not run
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        deps = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= ({node.module} if node.module
                         else {alias.name for alias in node.names})
        graph[path.stem] = deps
    done, active = set(), []

    def visit(name):
        assert name not in active, active[active.index(name):] + [name]
        if name not in done:
            active.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            active.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
    assert "solve" not in graph["strategy"]


def test_halfpos_sweep_reports_progress_on_stderr():
    proc = _sweep("--payoff", "posavg", "--arenas", "2", "--candidates", "2")
    assert proc.returncode == 0
    assert proc.stdout == "posavg: {'confirmed': 2, 'refuted': 0, 'inconclusive': 0}\n"
    lines = proc.stderr.splitlines()
    assert len(lines) == 2
    assert all(re.fullmatch(rf"seed {i}: confirmed \d+\.\d\ds", line)
               for i, line in enumerate(lines)), lines


def test_halfpos_sweep_rejects_a_payoff_without_arena_kind():
    proc = _sweep("--payoff", "geomfirstone", "--arenas", "1")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flag", ["--memory", "--candidates"])
def test_halfpos_sweep_rejects_a_bound_below_one(flag):
    proc = _sweep("--payoff", "posavg", "--arenas", "1", flag, "0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {flag} must be >= 1, not 0\n"


@pytest.mark.parametrize("args, message", [
    (("--max-cycle", "0"), "max_cycle must be >= 1, not 0"),
    (("--cases", "-5"), "random_cases must be >= 0, not -5"),
    (("--property", "shift-invariance", "--max-cycle", "-1"),
     "max_cycle must be >= 1, not -1"),
])
def test_submixing_search_rejects_a_bad_bound(args, message):
    proc = _script("submixing_search.py", "mean", *args)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_submixing_search_rejects_an_unknown_payoff():
    proc = _script("submixing_search.py", "meanest")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
