"""Source-level rules for the library, the command line's declared
options, and the scripts' command lines."""

import argparse
import ast
import collections
import contextlib
import io
import importlib.util
import inspect
import json
import os
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from stochgame import acceptance, cli, payoff, solve, strategy, verify
from stochgame.arena import P1, P2, random_arena, sample_play
from stochgame.payoff import _CATALOG, parse_payoff_spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stochgame"
CORPUS = ROOT / "corpus" / "v1"


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def _sweep(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "halfpos_sweep.py"), *args],
        capture_output=True, text=True, env=_src_env(), timeout=300)


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


def _constructions(path, names):
    """`file:line` of each call in one module to a name in `names`, bare
    or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in names:
                yield f"{path.name}:{node.lineno}"


def test_only_the_chain_module_builds_products():
    # `chain.product_skeleton` is the one product walk: every chain is
    # picked from it, so no other module constructs a chain or a skeleton
    names = ("InducedChain", "ProductSkeleton")
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   if path.name != "chain.py"
                   for site in _constructions(path, names))
    assert list(_constructions(SRC / "chain.py", names)) and not found, found


def _imported_packages(path):
    """The top-level names of the absolute imports of one module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_holds_no_timer():
    # timings vary from run to run, so only the command line and the
    # acceptance gates read the clock, and reports stay byte-identical
    found = sorted(path.name for path in SRC.glob("*.py")
                   if path.name not in ("cli.py", "acceptance.py")
                   and "time" in _imported_packages(path))
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


def test_grid_and_response_folds_never_order_fractions(monkeypatch):
    # the grid's one reduction (max-min, min-max, the floor's row and
    # column), the response fold, and the floor check, with and without a
    # stationary reply's pair chain, compare values as integers, and
    # bottom classes keep letters, read in tuples of colours: with
    # Fraction's order comparisons and the colour hash raising, every call
    # completes
    cases = [(random_arena(4, 3, kind=kind), parse_payoff_spec(name))
             for name, kind in (("mean", "reward"), ("limsup", "reward"),
                                ("parity", "priority"),
                                ("discounted", "discounted"))]
    posavg = parse_payoff_spec("posavg")

    def refuse(self, other):
        raise AssertionError("a Fraction order comparison")

    def refuse_hash(self):
        raise AssertionError("a colour hash")

    for name in ("__lt__", "__gt__", "__le__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refuse)
    monkeypatch.setattr(payoff.ColourToken, "__hash__", refuse_hash)
    with pytest.raises(AssertionError, match="order comparison"):
        Fraction(1, 2) < Fraction(1, 3)
    with pytest.raises(AssertionError, match="colour hash"):
        hash(payoff.reward(1))
    for arena, spec in cases:
        values = solve.brute_force_value(arena, spec)
        solve.best_response_min(arena, spec, values.sigma_star)
        solve.GridSolver(arena).reduce(spec)
    arena = cases[0][0]
    grid = solve.GridSolver(arena)
    maxmin, _, _, _, column = grid.reduce(posavg)
    floor = dict(zip(arena.states, (Fraction(*v) for v in maxmin)))
    tau = None if column is None else grid.strategy(P2, column)
    sigma = verify._random_memory_strategy(arena, random.Random(1), 2)
    floor = {(sigma.initial, s): v for s, v in floor.items()}
    check = solve.guarantee_exceeds(arena, posavg, sigma, floor)
    assert check.tables >= 1
    # the same check on the pair chain of sigma and the grid's column
    assert tau is not None
    assert solve.guarantee_exceeds(arena, posavg, sigma, floor,
                                   tau=tau).above == check.above
    report = verify.verify_halfpos(arena, posavg)
    assert report.verdict == "confirmed"


def _registries_holding(kinds):
    """(module, name, type) of each module-level container of the library
    that holds an instance of `kinds` among its values."""
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "stochgame":
            continue
        for attr, value in vars(module).items():
            if isinstance(value, type) or not hasattr(value, "values") \
                    and not isinstance(value, (list, tuple, set, frozenset)):
                continue
            held = value.values() if hasattr(value, "values") else value
            if any(isinstance(x, kinds) for x in list(held)):
                yield name, attr, type(value)


def test_grid_and_core_registries_hold_weak_references():
    # a cache of grids or grid cores must never keep one alive: every
    # module-level registry that holds one is a WeakValueDictionary, so a
    # core dies with the last grid that holds it and a grid with its owner
    arena = random_arena(4, 3, seed=2)
    grids = [solve.GridSolver(arena),
             solve.GridSolver(random_arena(4, 3, seed=2, kind="priority"))]
    solve.best_response_min(arena, parse_payoff_spec("mean"),
                            solve.brute_force_value(
                                arena, parse_payoff_spec("mean"),
                                grid=grids[0]).sigma_star)
    found = list(_registries_holding((solve.GridSolver, solve._GridCore)))
    assert {(module, attr) for module, attr, _ in found} >= {
        ("stochgame.solve", "_LIVE_GRIDS"), ("stochgame.solve", "_CORES")}
    assert all(kind is weakref.WeakValueDictionary
               for _, _, kind in found), found


def test_an_arena_caches_only_what_its_walks_reread():
    # a benchmark keeps every input arena alive, so each per-arena cache is
    # retained memory: only the integer transition table and the letter
    # tables, which skeleton walks and colourings read many times, are kept
    fields = {"states", "owner", "available", "transition", "colour"}
    kept = fields | {"_int_transition", "_letter_tables"}
    mean = parse_payoff_spec("mean")
    arenas = []
    for seed in range(3):
        solved, swept, stopped, played = (
            random_arena(4, 3, seed=seed + k) for k in (0, 10, 20, 30))
        grid = solve.GridSolver(solved)
        solve.best_response_min(solved, mean, solve.brute_force_value(
            solved, mean, grid=grid).sigma_star)
        verify.verify_halfpos(swept, mean, candidates=2, seed=seed)
        verify.doob_suite(stopped, mean, trials=5, seed=seed)
        sigma, tau = (
            strategy.PureStationaryStrategy(player, {
                s: played.available[s][0] for s in played.player_states(player)})
            for player in (P1, P2))
        sample_play(played, sigma, tau, played.states[0], 20,
                    random.Random(seed))
        arenas += [solved, swept, stopped, played]
    for arena in arenas:
        assert fields <= set(vars(arena)) <= kept, set(vars(arena)) - kept


# The products in verify.py's search code, counted by function.  Those of
# arrays are each reviewed against the int64 bound: `_Shuffled.__getitem__`
# and `_above` take theirs on the tables a search passes through
# `verify._widened`, which reads them as Python ints where a bound on every
# product reaches 2^63, `_rotations` multiplies cycle positions below
# k^max_cycle, and `_drawn_blocks` 32-bit words by column spans of a few
# values.  The others, `_widened`'s bound among them, multiply Python ints.
ARRAY_PRODUCTS = {"_Shuffled.__getitem__": 10, "_above": 2, "_rotations": 1,
                  "_drawn_blocks": 1}
INT_PRODUCTS = {"_widened": 4, "_rotations": 3,
                "search_submixing_violation": 5, "_drawn_blocks": 3,
                "_case": 3}
NUMPY_PRODUCTS = {"multiply", "prod", "cumprod", "dot", "matmul", "outer",
                  "einsum", "kron"}


def _is_product(node) -> bool:
    """A *, @ or ** operator, in place or not, that does not repeat a list
    or tuple display, or a call of a numpy product."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) in NUMPY_PRODUCTS
    if isinstance(node, ast.BinOp):
        operands = node.left, node.right
    elif isinstance(node, ast.AugAssign):
        operands = node.target, node.value
    else:
        return False
    return isinstance(node.op, (ast.Mult, ast.MatMult, ast.Pow)) and not any(
        isinstance(x, (ast.List, ast.Tuple)) for x in operands)


def _products(node, scope=()):
    """The qualified name of the function around each product under
    `node` (`_is_product`)."""
    for child in ast.iter_child_nodes(node):
        if _is_product(child):
            yield ".".join(scope)
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _products(child, scope + (child.name,) if named else scope)


def test_every_array_product_in_the_search_code_is_listed():
    # a new product in the refutation searches fails here until it is
    # reviewed against the int64 bound and counted as one of arrays or one
    # of Python ints
    source = (SRC / "verify.py").read_text()
    section = source[source.index("# Submixing / shift-invariance searches"):
                     source.index("# Reset strategy / subgame perfection")]
    assert collections.Counter(_products(ast.parse(section))) \
        == collections.Counter(ARRAY_PRODUCTS) \
        + collections.Counter(INT_PRODUCTS)


def test_shift_searches_never_compare_fractions(monkeypatch):
    # the shift search's memo keeps each value as an integer pair and its
    # walk compares those: with Fraction's equality raising, confirmed
    # searches complete.  The submixing searches compare the same pairs by
    # cross-multiplication, or integer arrays on the grid (meancobuchi):
    # with Fraction's order comparisons raising too, confirmed ones complete
    def refuse(self, other):
        raise AssertionError("a Fraction comparison")

    for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refuse)
    for compare in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__",
                    "__ge__"):
        with pytest.raises(AssertionError, match="Fraction comparison"):
            getattr(Fraction(1, 2), compare)(Fraction(1, 3))
    for name in ("mean", "limsup", "parity", "genmean:2"):
        report = verify.search_shift_invariance_violation(
            parse_payoff_spec(name))
        assert report.verdict == "confirmed", name
    for name in ("meancobuchi:100", "suffixtarget:ab"):
        report = verify.search_submixing_violation(parse_payoff_spec(name))
        assert report.verdict == "confirmed", name


def test_discounted_searches_do_no_fraction_arithmetic(monkeypatch):
    # the per-word walks value discounted words in integers: with
    # Fraction's +, -, * and / raising, reflected forms too, both searches
    # still refute discounted, and the token re-check of each witness, which
    # values its lassos through the same walk, agrees
    def refuse(self, other):
        raise AssertionError("a Fraction operation")

    names = [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv")
             for r in ("", "r")]
    for name in names:
        monkeypatch.setattr(Fraction, name, refuse)
    for name in names:
        with pytest.raises(AssertionError, match="Fraction operation"):
            getattr(Fraction(1, 2), name)(Fraction(1, 3))
    spec = parse_payoff_spec("discounted")
    submixing, shift = (search(spec) for search in (
        verify.search_submixing_violation,
        verify.search_shift_invariance_violation))
    assert (submixing.verdict, shift.verdict) == ("refuted", "refuted")
    assert verify.replay_submixing_witness(spec, submixing.witness)


def test_shift_searches_check_and_scale_their_alphabet_once(monkeypatch):
    # the letters' colour kinds are checked and their values scaled per
    # search, not per word or case: 2,000 more seeded cases make no more
    # calls.  The letter payoff's table scales nothing.
    calls = collections.Counter()
    for name in ("_check_kind", "scaled"):
        real = getattr(payoff, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(payoff, name, counted)
    searches = [(verify.search_shift_invariance_violation, name)
                for name in ("mean", "limsup", "parity", "genmean:2")]
    searches += [(verify.search_submixing_violation, name)
                 for name in ("mean", "parity", "meancobuchi:100",
                              "suffixtarget:ab")]
    counts = []
    for random_cases in (0, 2000):
        calls.clear()
        for search, name in searches:
            report = search(parse_payoff_spec(name), verify.SearchBounds(
                random_cases=random_cases), seed=3)
            assert report.verdict == "confirmed", (search.__name__, name)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == {"_check_kind": 8, "scaled": 7}


@pytest.mark.parametrize("calls", [2, 3, 5])
def test_getrandbits_reads_the_stream_in_word_order(calls):
    # the refutation searches draw their seeded cases a block at a time
    # (`verify._drawn_blocks`), and the cases are the same for any block
    # size only if successive `getrandbits(32 * m)` calls read the 32-bit
    # words of one call over all of them, least significant first
    sizes = [7 * i + 1 for i in range(calls)]
    blocks, whole = random.Random(calls), random.Random(calls)
    parts = b"".join(blocks.getrandbits(32 * m).to_bytes(4 * m, "little")
                     for m in sizes)
    total = sum(sizes)
    assert parts == whole.getrandbits(32 * total).to_bytes(4 * total, "little")
    assert blocks.getstate() == whole.getstate()


def test_refutation_searches_leave_numpy_random_unloaded():
    # the seeded cases come from the interpreter's generator; loading
    # numpy.random would add its import time and memory to every search
    code = (
        "import sys\n"
        "from stochgame import payoff, verify\n"
        "for name in ('mean', 'genmean:2'):\n"
        "    spec = payoff.parse_payoff_spec(name)\n"
        "    for search in (verify.search_submixing_violation,\n"
        "                   verify.search_shift_invariance_violation):\n"
        "        search(spec, verify.SearchBounds(), 0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_traced_function_resolves():
    # `perfbench/run.py --trace 1` patches each (module, function) of the
    # tracer's TRACED list; a name the library lost would break that run
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    unresolved = []
    for module, func in traced:
        holder = importlib.import_module(f"stochgame.{module}")
        *classes, name = func.split(".")
        for cls in classes:
            holder = getattr(holder, cls, None)
        if holder is None or not callable(vars(holder).get(name)):
            unresolved.append(f"{module}.{func}")
    assert traced and not unresolved, unresolved


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_library_strategy_overrides_the_strategy_interface():
    # a stationary strategy is the one-memory finite-memory strategy: a
    # subclass fills the fields, and the interface keeps one implementation
    for path in sorted(SRC.glob("*.py")):
        importlib.import_module(f"stochgame.{path.stem}")
    interface = ("action_dist", "next_memory", "choices", "check_in")
    library = [cls for cls in _subclasses(strategy.FiniteMemoryStrategy)
               if cls.__module__.startswith("stochgame.")]
    found = [f"{cls.__name__}.{name}" for cls in library
             for name in interface if name in vars(cls)]
    assert library and not found, found


def test_every_library_exception_is_a_value_error():
    # `cli.run` turns a ValueError into one `error:` line and exit 1, so an
    # error class outside ValueError would escape it as a traceback
    for path in sorted(SRC.glob("*.py")):
        importlib.import_module(f"stochgame.{path.stem}")
    library = [cls for cls in _subclasses(BaseException)
               if cls.__module__.startswith("stochgame.")]
    found = [cls.__name__ for cls in library if not issubclass(cls, ValueError)]
    assert library and not found, found


# One small valid run of every subcommand; "@stay" is a stationary sigma.
SUBCOMMAND_RUNS = {
    "solve": ["solve", "@e2", "--payoff", "mean"],
    "best-response": ["best-response", "@e2", "--payoff", "mean",
                      "--sigma", "@stay"],
    "classify": ["classify", "@e2", "--payoff", "mean"],
    "martingale": ["martingale", "@e2", "--payoff", "mean", "--sigma", "@weak",
                   "--tau", "@weak"],
    "simulate": ["simulate", "@e2", "--sigma", "@weak", "--tau", "@weak",
                 "--trials", "3"],
    "check": ["check", "submixing", "--payoff", "mean", "--max-cycle", "1",
              "--cases", "0"],
    "verify halfpos": ["verify", "halfpos", "@e2", "--payoff", "mean",
                       "--candidates", "1"],
    "verify subgame": ["verify", "subgame", "@e2", "--payoff", "mean",
                       "--sigma", "@weak"],
    "reproduce": ["reproduce", "fig1"],
    "doob": ["doob", "@e2", "--payoff", "mean", "--trials", "20"],
}


def _subcommands(parser, path=()):
    """(name, parser) of every subcommand that runs, nested ones included."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs and path:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _subcommands(sub, (*path, name))


def _recording(args: argparse.Namespace):
    """A copy of `args` and the set of attribute names read from it."""
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    return Recording(**vars(args)), read


def test_every_declared_option_is_read(tmp_path):
    # an option the command never reads is a setting that changes nothing
    stay = tmp_path / "stay.json"
    stay.write_text('{"s": "stay", "t": "loop"}')
    files = {"@e2": str(CORPUS / "e2.game"), "@weak": str(CORPUS / "e2weak.sigma"),
             "@stay": str(stay)}
    commands = dict(_subcommands(cli.build_parser()))
    assert sorted(commands) == sorted(SUBCOMMAND_RUNS)
    unread = {}
    for name, parser in commands.items():
        argv = [files.get(a, a) for a in SUBCOMMAND_RUNS[name]]
        args, read = _recording(cli.build_parser().parse_args(argv))
        with contextlib.redirect_stdout(io.StringIO()):
            cli._dispatch(args)
        declared = {a.dest: a.option_strings[0] for a in parser._actions
                    if a.option_strings and not isinstance(a, argparse._HelpAction)}
        missed = sorted(flag for dest, flag in declared.items() if dest not in read)
        if missed:
            unread[name] = missed
    assert not unread, unread


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


@pytest.mark.parametrize("flag", ["--arenas", "--memory", "--candidates"])
def test_halfpos_sweep_rejects_a_bound_below_one(flag):
    proc = _sweep("--payoff", "posavg", "--arenas", "1", flag, "0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {flag} must be >= 1, not 0\n"


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("args, message", [
    (["--payoff", "genmean:2"], "payoff 'genmean' is not sweepable"),
    (["--payoff", "counter-inf"], "payoff 'counter-inf' is not sweepable"),
    (["--payoff", "discounted"], "payoff 'discounted' is not sweepable"),
    (["--states", "0"], "random_arena needs num_states >= 1, not 0")])
def test_halfpos_sweep_rejects_bad_input_before_the_loop(monkeypatch, capsys,
                                                         args, message):
    script = _script("halfpos_sweep")

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started on bad input")

    monkeypatch.setattr(script, "verify_halfpos", no_work)
    monkeypatch.setattr(sys, "argv", ["halfpos_sweep.py", *args])
    with pytest.raises(SystemExit) as stop:
        script.main()
    # a string exit code is printed to stderr as one line, with status 1
    assert stop.value.code.startswith(f"error: {message}")
    assert "\n" not in stop.value.code
    assert capsys.readouterr() == ("", "")


def test_halfpos_sweep_takes_the_payoffs_the_theorem_covers():
    covered = {name for name, (_, shift_invariant, submixing, *_)
               in _CATALOG.items() if shift_invariant and submixing}
    assert set(_script("halfpos_sweep").KINDS) == covered


def test_run_acceptance_reports_progress_on_stderr(monkeypatch, capsys):
    def holds():
        return acceptance.CriterionResult("holds", True, "fine", 0.3)

    def fails():
        return acceptance.CriterionResult("fails", False, "broken", 0.5)

    monkeypatch.setattr(acceptance, "CRITERIA", (holds, fails))
    assert _script("run_acceptance").main() == 1
    out, err = capsys.readouterr()
    assert out == "[PASS] holds: fine (0.3s)\n[FAIL] fails: broken (0.5s)\n"
    lines = err.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"\[1/2\] holds \.\.\. \d+\.\d\ds", lines[0]), lines
    assert re.fullmatch(r"\[2/2\] fails \.\.\. \d+\.\d\ds", lines[1]), lines


def test_acceptance_criteria_take_no_argument():
    # a criterion's sizes are module constants: no call can shrink it
    for criterion in acceptance.CRITERIA:
        assert not inspect.signature(criterion).parameters, criterion.__name__


def test_every_bench_record_holds_its_pairs_and_both_shas():
    # a speed claim counts only with the alternating pairs behind it
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        for sha in ("parent_sha", "change_sha"):
            assert re.fullmatch(r"[0-9a-f]{40}", doc[sha]), (path.name, sha)
        assert isinstance(doc["cores"], int) and doc["cores"] >= 1, path.name
        assert set(doc["workloads"]) == workloads, path.name
        for name, work in doc["workloads"].items():
            where = (path.name, name)
            assert len(work["seeds"]) == len(work["runs"]) == work["pairs"] >= 1, where
            assert set(work["failed"]) == {"parent", "change"}, where
            assert [r["seed"] for r in work["runs"]] == work["seeds"], where
            for metric in metrics:
                for side in ("parent", "change"):
                    stats = work["metrics"][metric][side]
                    assert stats["q1"] <= stats["median"] <= stats["q3"], \
                        (*where, metric, side)
        assert doc["trace"]["command"].startswith("python3 perfbench/run.py")
        assert doc["trace"]["layers"], path.name
        for layer, sides in doc["trace"]["layers"].items():
            assert set(sides) == {"parent", "change"}, (path.name, layer)
