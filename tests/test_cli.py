"""Command-line surface: subcommands, exit codes, deterministic output."""

import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stochgame.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, run,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus" / "v1"
E2 = str(CORPUS / "e2.game")
E3 = str(CORPUS / "e3.game")
FIG1 = str(CORPUS / "fig1.game")
WEAK = str(CORPUS / "e2weak.sigma")


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_fig1(capsys):
    code, out, _ = run_capture(capsys, ["reproduce", "fig1"])
    assert code == EXIT_OK
    assert "alternating" in out and "confirmed" in out


def test_only_human_output_carries_the_wall_clock(capsys):
    code, out, _ = run_capture(capsys, ["reproduce", "fig1"])
    assert code == EXIT_OK
    assert re.fullmatch(r"wall_clock: \d+\.\d{3}s", out.splitlines()[-1])
    code, out, _ = run_capture(
        capsys, ["--format", "structured", "reproduce", "fig1"])
    assert code == EXIT_OK
    assert "wall_clock" not in json.loads(out) and "wall_clock" not in out


def test_check_submixing_genmean_refuted(capsys):
    code, out, _ = run_capture(
        capsys, ["check", "submixing", "--payoff", "genmean:2"])
    assert code == EXIT_REFUTED
    assert "witness" in out


def test_check_submixing_mean_confirmed(capsys):
    code, out, _ = run_capture(
        capsys, ["check", "submixing", "--payoff", "mean",
                 "--max-cycle", "3", "--cases", "200"])
    assert code == EXIT_OK


def test_solve_e2(capsys):
    code, out, _ = run_capture(capsys, ["solve", E2, "--payoff", "mean"])
    assert code == EXIT_OK
    assert "s: 1" in out
    assert "go" in out


def test_structured_output_is_deterministic(capsys):
    argv = ["--format", "structured", "solve", E2, "--payoff", "mean"]
    code_a, out_a, _ = run_capture(capsys, argv)
    code_b, out_b, _ = run_capture(capsys, argv)
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b
    json.loads(out_a)


def test_structured_report_deterministic(capsys):
    argv = ["--format", "structured", "check", "shift-invariance",
            "--payoff", "geomfirstone"]
    code_a, out_a, _ = run_capture(capsys, argv)
    code_b, out_b, _ = run_capture(capsys, argv)
    assert code_a == code_b == EXIT_REFUTED
    assert out_a == out_b
    assert "wall_clock" not in out_a


def test_verify_subgame_with_files(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "subgame", E2, "--payoff", "mean",
                 "--sigma", WEAK, "--epsilon", "1/4"])
    assert code == EXIT_OK
    assert "confirmed" in out


def test_verify_halfpos_random_arena(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "halfpos", "random:states=3,actions=2,seed=5",
                 "--payoff", "mean"])
    assert code == EXIT_OK


def test_classify_and_martingale(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    tau = tmp_path / "tau.json"
    sigma.write_text('{"s": "go", "t": "loop"}')
    tau.write_text("{}")
    code, out, _ = run_capture(capsys, ["classify", E2, "--payoff", "mean"])
    assert code == EXIT_OK and "value_preserving" in out
    code, out, _ = run_capture(
        capsys, ["martingale", E2, "--payoff", "mean",
                 "--sigma", str(sigma), "--tau", str(tau)])
    assert code == EXIT_OK and "martingale" in out


def test_best_response(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"s": "stay", "t": "loop"}')
    code, out, _ = run_capture(
        capsys, ["best-response", E2, "--payoff", "mean",
                 "--sigma", str(sigma)])
    assert code == EXIT_OK
    assert "s: 0" in out  # staying forever earns the loop reward 0


def test_strategy_missing_a_state_is_a_usage_error(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"x": "1"}')
    code, out, err = run_capture(
        capsys, ["best-response", E3, "--payoff", "mean",
                 "--sigma", str(sigma)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _assert_one_error_line(code, out, err, *words):
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(w in err for w in words), err


@pytest.mark.parametrize("doc", ['[1, 2]', '"x"', '{"memory_states": ["m0"]}'])
def test_malformed_strategy_document_is_a_usage_error(tmp_path, capsys, doc):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(doc)
    _assert_one_error_line(*run_capture(
        capsys, ["best-response", E2, "--payoff", "mean",
                 "--sigma", str(sigma)]))


def _solve_edited_e2(tmp_path, capsys, where, edit):
    """Run `solve` on a copy of e2.game whose entry at path `where` was
    passed through `edit`."""
    doc = json.loads(Path(E2).read_text())
    entry = doc
    for key in where:
        entry = entry[key]
    edit(entry)
    game = tmp_path / "e2.game"
    game.write_text(json.dumps(doc))
    return run_capture(capsys, ["solve", str(game), "--payoff", "mean"])


def _case_ids(cases):
    return [".".join(map(str, (*where, field))) for where, field, *_ in cases]


MISSING_FIELDS = [
    (("states", 0), "name"),
    *[(("actions", 0), f) for f in ("successors", "state", "action", "colour")],
    *[(("actions", 0, "successors", 0), f) for f in ("state", "prob")],
]


@pytest.mark.parametrize("where, field", MISSING_FIELDS,
                         ids=_case_ids(MISSING_FIELDS))
def test_game_file_missing_field_is_a_usage_error(tmp_path, capsys, where, field):
    _assert_one_error_line(
        *_solve_edited_e2(tmp_path, capsys, where, lambda e: e.pop(field)),
        f"missing field '{field}'")


WRONG_VALUES = [
    ((), "states", 5),
    (("states", 0), "name", ["s"]),
    (("actions", 0), "action", ["stay"]),
    (("actions", 0), "successors", 3),
    (("actions", 0), "colour", {"vector": 5}),
    (("actions", 0), "colour", {"shade": 1}),
    (("actions", 0, "successors", 0), "state", None),
    (("actions", 0, "successors", 0), "prob", [1]),
    (("actions", 0, "successors", 0), "prob", float("inf")),
]


@pytest.mark.parametrize("where, field, value", WRONG_VALUES,
                         ids=_case_ids(WRONG_VALUES))
def test_game_file_wrong_value_is_a_usage_error(tmp_path, capsys, where, field,
                                                value):
    _assert_one_error_line(
        *_solve_edited_e2(tmp_path, capsys, where,
                          lambda e: e.__setitem__(field, value)),
        f"'{field}'")


def test_unknown_random_key_is_a_usage_error(capsys):
    _assert_one_error_line(*run_capture(
        capsys, ["solve", "random:state=9", "--payoff", "mean"]),
        "'state'", "states, actions, lo, hi, density, seed, kind")


@pytest.mark.parametrize("key", ["states", "actions", "lo", "hi", "seed"])
def test_a_random_key_that_is_not_an_integer_is_named(capsys, key):
    _assert_one_error_line(*run_capture(
        capsys, ["solve", f"random:{key}=x", "--payoff", "mean"]),
        f"random: {key} is not an integer: 'x'")


@pytest.mark.parametrize("spec, word", [
    ("random:states=0", "num_states"), ("random:actions=0", "max_actions"),
    ("random:lo=2,hi=1", "colour_hi"), ("random:states=3,density=1e309", "density"),
    ("random:density=-1/2", "density")])
def test_out_of_range_random_parameter_is_a_usage_error(capsys, spec, word):
    _assert_one_error_line(*run_capture(
        capsys, ["solve", spec, "--payoff", "mean"]), word)


@pytest.mark.parametrize("argv", [
    ["solve", "{dir}", "--payoff", "mean"],
    ["best-response", E2, "--payoff", "mean", "--sigma", "{dir}"],
    ["martingale", E2, "--payoff", "mean", "--sigma", WEAK, "--tau", "{dir}"],
])
def test_an_unreadable_path_is_one_error_line(tmp_path, capsys, argv):
    # a directory cannot be read as a file.  A file without read permission
    # is left untested: the superuser reads it anyway
    argv = [str(tmp_path) if a == "{dir}" else a for a in argv]
    _assert_one_error_line(*run_capture(capsys, argv),
                           f"cannot read {tmp_path}")


def test_closed_stdout_exits_quietly():
    # The read end is closed before the command starts, so its first write
    # to stdout fails with a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stochgame", "solve",
             "random:states=5,seed=3,kind=discounted", "--payoff", "discounted",
             "--format", "structured"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_USAGE


def test_simulate(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    tau = tmp_path / "tau.json"
    sigma.write_text('{"s": "a", "t": "loop", "u": "loop"}')
    tau.write_text("{}")
    code, out, _ = run_capture(
        capsys, ["simulate", E3, "--sigma", str(sigma), "--tau", str(tau),
                 "--horizon", "5", "--trials", "400", "--seed", "9"])
    assert code == EXIT_OK
    assert "terminal_frequencies" in out


def test_simulate_rejects_a_negative_horizon(tmp_path, capsys):
    tau = tmp_path / "tau.json"
    tau.write_text("{}")
    argv = ["simulate", E2, "--sigma", WEAK, "--tau", str(tau)]
    _assert_one_error_line(*run_capture(capsys, argv + ["--horizon", "-3"]),
                           "horizon")
    code, out, _ = run_capture(capsys, argv + ["--horizon", "0", "--trials", "3"])
    assert code == EXIT_OK and "s: 1.0" in out


@pytest.mark.parametrize("stay", ["0.9", "true"])
def test_simulate_reads_strategy_weights_exactly(tmp_path, capsys, stay):
    # a decimal weight is read from its text, so 0.1 and 0.9 sum to 1;
    # a bool is no weight
    sigma = tmp_path / "sigma.json"
    doc = Path(WEAK).read_text()
    sigma.write_text(doc.replace('"3/4"', "0.1").replace('"1/4"', stay))
    argv = ["simulate", E2, "--sigma", str(sigma), "--tau", WEAK,
            "--horizon", "3", "--trials", "3"]
    if stay == "true":
        _assert_one_error_line(*run_capture(capsys, argv))
    else:
        code, out, _ = run_capture(capsys, argv)
        assert code == EXIT_OK and "terminal_frequencies" in out


GOLDEN = ROOT / "tests" / "golden"


SEEDED_DOOB = [
    ("doob_e2_mean.json", [E2, "--payoff", "mean"]),
    ("doob_priority_parity.json",
     ["random:states=4,actions=3,seed=11,kind=priority", "--payoff", "parity"]),
    # a first-hit estimate off its exact value: the sampler's draws show in
    # this report
    ("doob_reward_mean.json",
     ["random:states=4,actions=3,seed=39,kind=reward", "--payoff", "mean"]),
]


def test_simulate_seeded_output_is_pinned(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    tau = tmp_path / "tau.json"
    sigma.write_text('{"s": "a", "t": "loop", "u": "loop"}')
    tau.write_text("{}")
    code, out, _ = run_capture(
        capsys, ["--format", "structured", "simulate", E3, "--sigma", str(sigma),
                 "--tau", str(tau), "--horizon", "5", "--trials", "400",
                 "--seed", "9"])
    assert code == EXIT_OK
    assert out == (GOLDEN / "simulate_e3.json").read_text()


@pytest.mark.parametrize("golden, argv", SEEDED_DOOB,
                         ids=[g for g, _ in SEEDED_DOOB])
def test_doob_seeded_output_is_pinned(capsys, golden, argv):
    code, out, _ = run_capture(
        capsys, ["--format", "structured", "doob", *argv,
                 "--trials", "2000", "--seed", "5"])
    assert code == EXIT_OK
    assert out == (GOLDEN / golden).read_text()


def test_simulate_without_trials_is_a_usage_error(capsys):
    _assert_one_error_line(*run_capture(
        capsys, ["simulate", E2, "--sigma", WEAK, "--tau", WEAK,
                 "--trials", "0"]), "--trials")


def test_doob_without_trials_is_a_usage_error(capsys):
    _assert_one_error_line(*run_capture(
        capsys, ["doob", "random:states=3,actions=2,seed=4",
                 "--payoff", "mean", "--trials", "0"]),
        "trials must be >= 1, not 0")


def test_doob_cli(capsys):
    code, out, _ = run_capture(
        capsys, ["doob", "random:states=3,actions=2,seed=4",
                 "--payoff", "mean", "--trials", "800"])
    assert code == EXIT_OK


def test_doob_without_a_value_preserving_action_is_a_usage_error(capsys):
    # a discounted value is no martingale: at s2 every action changes it
    assert run_capture(capsys, [
        "doob", "random:states=3,actions=3,seed=0,kind=discounted",
        "--payoff", "discounted"]) == (
        EXIT_USAGE, "", "error: no value-preserving action at state s2\n")


@pytest.mark.parametrize("game, payoff, seed", [
    (E3, "mean", "677"),
    (str(CORPUS / "e3_parity.game"), "parity", "1167"),
])
def test_doob_e3_is_confirmed_where_the_interval_misses(
        capsys, game, payoff, seed):
    # From the first state the stopped value is 0 or 2 (0 or 1) with even
    # odds; at these seeds the reported 99 % Hoeffding interval misses the
    # exact value (below it for e3, above it for e3_parity), which the exact
    # verdict does not depend on.
    code, out, _ = run_capture(
        capsys, ["--format", "structured", "doob", game, "--payoff", payoff,
                 "--trials", "10000", "--seed", seed])
    assert code == EXIT_OK
    doc = json.loads(out)
    first_hit = doc["quantities"]["first_hit"]
    low, high = first_hit["ci"]
    assert not low <= float(Fraction(first_hit["reference"])) <= high
    assert doc["verdict"] == "confirmed" and all(doc["quantities"]["checks"].values())


def test_doob_keeps_a_billion_trials_in_bounded_memory():
    # The sampler keeps one count of runs per chain node, so a billion
    # trials run in seconds under a 2 GB address-space cap; one array entry
    # per run would need several GB.
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-m", "stochgame", "--format", "structured", "doob",
         E3, "--payoff", "mean", "--trials", "1000000000"],
        capture_output=True, env=env, preexec_fn=cap_address_space,
        timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "confirmed"


def test_usage_errors(capsys):
    code, _, err = run_capture(capsys, ["solve", "missing.game",
                                        "--payoff", "mean"])
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run_capture(capsys, ["solve", E2, "--payoff", "nonsense"])
    assert code == EXIT_USAGE
    code, _, err = run_capture(
        capsys, ["verify", "halfpos", E2, "--payoff", "genmean:2"])
    assert code == EXIT_USAGE  # flag gate maps to a validation error


@pytest.mark.parametrize("flag, value, name", [
    ("--memory", "0", "memory_bound"), ("--candidates", "-3", "candidates")])
def test_verify_halfpos_rejects_a_bound_below_one(capsys, flag, value, name):
    _assert_one_error_line(*run_capture(
        capsys, ["verify", "halfpos", "random:states=4,actions=3,seed=7",
                 "--payoff", "posavg", flag, value]), name, value)


def test_inconclusive_exit_code(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "halfpos", "random:states=4,actions=3,seed=2",
                 "--payoff", "mean", "--budget", "1"])
    assert code == EXIT_INCONCLUSIVE


SEEDED_CHECKS = [
    # refuted on the grid of the tail 1:1, witness replayed through shuffle
    ("check_submixing_genmean2.json", ["submixing", "--payoff", "genmean:2"]),
    ("check_shift_discounted.json",
     ["shift-invariance", "--payoff", "discounted"]),
    # refuted at shift 1 from a prefix-free word, a rotation of its cycle
    ("check_shift_geomfirstone.json",
     ["shift-invariance", "--payoff", "geomfirstone", "--cases", "300"]),
    # confirmed: the grids of every tail decide each case --cases could
    # draw, so none is drawn, and each search of a class-determined payoff
    # decides every cycle of 1-4 letters
    ("check_submixing_optgenmean2.json",
     ["submixing", "--payoff", "optgenmean:2", "--cases", "300"]),
    ("check_shift_mean.json",
     ["shift-invariance", "--payoff", "mean", "--cases", "300"]),
    ("check_shift_genmean2.json",
     ["shift-invariance", "--payoff", "genmean:2", "--cases", "300"]),
]


@pytest.mark.parametrize("golden, argv", SEEDED_CHECKS,
                         ids=[g for g, _ in SEEDED_CHECKS])
def test_check_seeded_output_is_pinned(capsys, golden, argv):
    code, out, _ = run_capture(capsys, ["--format", "structured", "check", *argv])
    assert code == (EXIT_REFUTED if "refuted" in out else EXIT_OK)
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("prop", ["submixing", "shift-invariance"])
@pytest.mark.parametrize("flag, value, name", [
    ("--max-cycle", "0", "max_cycle"), ("--max-cycle", "7", "max_cycle"),
    ("--cases", "-5", "random_cases")])
def test_check_rejects_a_bad_search_bound(capsys, prop, flag, value, name):
    _assert_one_error_line(*run_capture(
        capsys, ["check", prop, "--payoff", "mean", flag, value]), name, value)


NEGATIVE_WEIGHT_SIGMA = {
    "memory_states": ["m0"], "initial": "m0", "update": [],
    "choice": [["m0", "s", {"stay": "-1/2", "go": "3/2"}],
               ["m0", "t", {"loop": "1"}]],
}


def test_strategy_with_a_negative_weight_is_a_usage_error(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    tau = tmp_path / "tau.json"
    sigma.write_text(json.dumps(NEGATIVE_WEIGHT_SIGMA))
    tau.write_text("{}")
    _assert_one_error_line(*run_capture(
        capsys, ["verify", "subgame", E2, "--payoff", "mean",
                 "--sigma", str(sigma), "--epsilon", "1/4"]), "-1/2", "[0,1]")
    _assert_one_error_line(*run_capture(
        capsys, ["simulate", E2, "--sigma", str(sigma), "--tau", str(tau)]),
        "-1/2", "[0,1]")


PARITY_RANDOM = "random:states=4,actions=3,seed=48,kind=priority"

SEEDED_RESPONSES = [
    ("best_response_e2_mean.json",
     ["best-response", E2, "--payoff", "mean"], '{"s": "stay", "t": "loop"}'),
    # several responses reach the minimum at s0, s1 and s3, and the
    # per-state minimizers differ: the enumeration order shows here
    ("best_response_priority_parity.json",
     ["best-response", PARITY_RANDOM, "--payoff", "parity"],
     '{"s1": "a1", "s3": "a2"}'),
    ("verify_subgame_e2weak.json",
     ["verify", "subgame", E2, "--payoff", "mean", "--sigma", WEAK], None),
    ("verify_halfpos_posavg.json",
     ["verify", "halfpos", "random:states=4,actions=3,seed=7",
      "--payoff", "posavg"], None),
    ("verify_halfpos_mean.json",
     ["verify", "halfpos", "random:states=4,actions=3,seed=7",
      "--payoff", "mean"], None),
    ("verify_halfpos_budget1.json",
     ["verify", "halfpos", "random:states=4,actions=3,seed=2",
      "--payoff", "mean", "--budget", "1"], None),
]


@pytest.mark.parametrize("golden, argv, sigma", SEEDED_RESPONSES,
                         ids=[g for g, _, _ in SEEDED_RESPONSES])
def test_response_output_is_pinned(tmp_path, capsys, golden, argv, sigma):
    if sigma is not None:
        path = tmp_path / "sigma.json"
        path.write_text(sigma)
        argv = [*argv, "--sigma", str(path)]
    code, out, _ = run_capture(capsys, ["--format", "structured", *argv])
    assert code == (EXIT_INCONCLUSIVE if "inconclusive" in out else EXIT_OK)
    assert out == (GOLDEN / golden).read_text()


def test_best_response_over_budget_is_a_usage_error(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"s1": "a1", "s3": "a2"}')
    code, out, err = run_capture(
        capsys, ["best-response", PARITY_RANDOM, "--payoff", "parity",
                 "--sigma", str(sigma), "--budget", "1"])
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: 6 responses exceed budget 1\n")


@pytest.mark.parametrize("budget", ["0", "-1", "-5"])
@pytest.mark.parametrize("argv", [
    ["solve", E2, "--payoff", "mean"],
    ["best-response", E2, "--payoff", "mean", "--sigma", "SIGMA"],
    ["classify", E2, "--payoff", "mean"],
    ["verify", "halfpos", E2, "--payoff", "parity"],
    ["verify", "halfpos", "random:states=4,actions=3,seed=7",
     "--payoff", "posavg"],
], ids=["solve", "best-response", "classify", "halfpos", "halfpos-sweep"])
def test_a_budget_below_one_is_a_usage_error(tmp_path, capsys, argv, budget):
    # a budget that admits no strategy pair is an input error, not an
    # inconclusive report or an over-budget enumeration
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"s": "stay", "t": "loop"}')
    argv = [str(sigma) if arg == "SIGMA" else arg for arg in argv]
    _assert_one_error_line(*run_capture(capsys, [*argv, "--budget", budget]),
                           f"budget must be >= 1, not {budget}")


def test_a_payoff_of_the_wrong_colour_kind_keeps_its_message(capsys):
    # parity on a reward game is refused from the classes' colours
    assert run_capture(capsys, ["solve", E2, "--payoff", "parity"]) == (
        EXIT_USAGE, "", "error: payoff parity needs priority colours\n")


@pytest.mark.parametrize("dim", ["3", "1"])
def test_a_vector_payoff_of_the_wrong_dimension_is_one_error_line(capsys, dim):
    # the class values check the dimension of the vector colours
    assert run_capture(capsys, [
        "verify", "halfpos", "random:states=3,actions=2,seed=5,kind=vector2",
        "--payoff", f"optgenmean:{dim}"]) == (
        EXIT_USAGE, "",
        f"error: payoff optgenmean:{dim} needs vectors of dimension {dim}\n")


def test_martingale_rejects_an_unknown_source(capsys):
    _assert_one_error_line(*run_capture(
        capsys, ["martingale", E2, "--payoff", "mean", "--sigma", WEAK,
                 "--tau", WEAK, "--source", "zz"]), "'zz'")


@pytest.mark.parametrize("epsilon", ["-1", "0"])
def test_verify_subgame_rejects_an_epsilon_that_is_not_positive(capsys,
                                                                epsilon):
    _assert_one_error_line(*run_capture(
        capsys, ["verify", "subgame", E2, "--payoff", "mean",
                 "--sigma", WEAK, "--epsilon", epsilon]),
        f"epsilon must be > 0, not {epsilon}")


@pytest.mark.parametrize("where, field, message", [
    (("actions", 0, "successors", 0), "prob",
     "actions[0].successors[0]: field 'prob' is not a rational: '1/0'"),
    (("actions", 0), "colour",
     "actions[0]: field 'colour' is not a colour: '1/0'"),
], ids=["prob", "colour"])
def test_game_file_zero_denominator_is_a_usage_error(tmp_path, capsys, where,
                                                     field, message):
    code, out, err = _solve_edited_e2(tmp_path, capsys, where,
                                      lambda e: e.__setitem__(field, "1/0"))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, words", [
    (["solve", "random:states=3,density=1/0", "--payoff", "mean"],
     ("density", "'1/0'")),
    (["solve", E2, "--payoff", "meancobuchi:1/0"], ("penalty", "'1/0'")),
    (["verify", "subgame", E2, "--payoff", "mean", "--sigma", WEAK,
      "--epsilon", "1/0"], ("--epsilon", "'1/0'")),
], ids=["density", "penalty", "epsilon"])
def test_zero_denominator_argument_is_a_usage_error(capsys, argv, words):
    _assert_one_error_line(*run_capture(capsys, argv), *words)


PINNED_OUTPUTS = [
    # a stationary base whose reset fails: the witness strategy is written
    # in finite-memory form
    ("verify_subgame_e2_stay.json", EXIT_REFUTED,
     ["verify", "subgame", E2, "--payoff", "mean", "--epsilon", "1/8"],
     '{"s": "stay", "t": "loop"}'),
    ("martingale_e2weak.json", EXIT_OK,
     ["martingale", E2, "--payoff", "mean", "--sigma", WEAK, "--tau", WEAK],
     None),
    ("solve_priority_parity.json", EXIT_OK,
     ["solve", "random:states=4,actions=3,seed=5,kind=priority",
      "--payoff", "parity"], None),
    ("solve_discounted.json", EXIT_OK,
     ["solve", "random:states=5,actions=3,seed=7,kind=discounted",
      "--payoff", "discounted"], None),
    ("solve_reward_mean.json", EXIT_OK,
     ["solve", "random:states=5,actions=3,seed=7,kind=reward",
      "--payoff", "mean"], None),
]


@pytest.mark.parametrize("golden, exit_code, argv, sigma", PINNED_OUTPUTS,
                         ids=[g for g, *_ in PINNED_OUTPUTS])
def test_structured_output_is_pinned(tmp_path, capsys, golden, exit_code, argv,
                                     sigma):
    if sigma is not None:
        path = tmp_path / "sigma.json"
        path.write_text(sigma)
        argv = [*argv, "--sigma", str(path)]
    code, out, _ = run_capture(capsys, ["--format", "structured", *argv])
    assert code == exit_code
    assert out == (GOLDEN / golden).read_text()


def test_solve_discounted_on_a_reward_arena_is_one_error_line(capsys):
    code, out, err = run_capture(capsys, [
        "solve", "random:states=5,actions=3,seed=7,kind=reward",
        "--payoff", "discounted"])
    assert (code, out, err) == (
        EXIT_USAGE, "", "error: discounted payoff needs reward-discount colours\n")


@pytest.mark.parametrize("argv, flag", [
    (["solve", E2, "--payoff", "mean"], "--seed"),
    (["best-response", E2, "--payoff", "mean", "--sigma", WEAK], "--seed"),
    (["classify", E2, "--payoff", "mean"], "--seed"),
    (["martingale", E2, "--payoff", "mean", "--sigma", WEAK, "--tau", WEAK],
     "--seed"),
    (["verify", "subgame", E2, "--payoff", "mean", "--sigma", WEAK], "--seed"),
    (["simulate", E2, "--sigma", WEAK, "--tau", WEAK], "--budget"),
], ids=lambda x: x[0] if isinstance(x, list) else x)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv,
                                                             flag):
    _assert_one_error_line(*run_capture(capsys, [*argv, flag, "5"]),
                           "unrecognized arguments", flag)


@pytest.mark.parametrize("argv, words", [
    (["simulate", E2, "--sigma", WEAK, "--tau", WEAK, "--trials", "x"],
     ("--trials", "'x'")),
    (["solve", E2, "--payoff", "mean", "--frob"], ("--frob",)),
    (["solve", E2], ("--payoff",)),
    (["frob"], ("'frob'",)),
], ids=["int", "unknown-flag", "missing-option", "unknown-command"])
def test_an_argparse_error_is_one_error_line(capsys, argv, words):
    _assert_one_error_line(*run_capture(capsys, argv), *words)


@pytest.mark.parametrize("argv", [["-h"], ["verify", "halfpos", "-h"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == EXIT_OK and out.startswith("usage: stochgame") and err == ""


def test_the_reused_parser_keeps_no_state_between_runs(capsys):
    # run parses with one parser per process: a usage error, a help text or
    # another subcommand in between leaves a doob line's output unchanged
    doob = ["--format", "structured", "doob", E2, "--payoff", "mean",
            "--trials", "300", "--seed", "7"]
    first = run_capture(capsys, doob)
    assert first[0] == EXIT_OK and first[1]
    assert run_capture(capsys, ["doob", E2, "--payoff", "mean",
                                "--trials", "x"])[0] == EXIT_USAGE
    assert run_capture(capsys, ["doob", "-h"])[0] == EXIT_OK
    code, out, _ = run_capture(capsys, ["solve", E2, "--payoff", "mean"])
    assert code == EXIT_OK and not out.startswith("{")
    assert run_capture(capsys, doob) == first


def test_check_rejects_an_unknown_payoff(capsys):
    _assert_one_error_line(*run_capture(
        capsys, ["check", "submixing", "--payoff", "meanest"]), "meanest")


@pytest.mark.parametrize("spec, message", [
    ("genmean:1e3", "genmean dimension is not an integer: '1e3'"),
    ("genmean:", "genmean dimension is not an integer: ''"),
    ("optgenmean:x", "optgenmean dimension is not an integer: 'x'"),
    ("optgenmean:1/2", "optgenmean dimension is not an integer: '1/2'"),
    ("genmean", "genmean needs a dimension, e.g. genmean:2"),
    ("genmean:0", "genmean needs a dimension >= 1"),
])
def test_a_malformed_vector_dimension_names_its_field(capsys, spec, message):
    assert run_capture(capsys, ["check", "submixing", "--payoff", spec]) == (
        EXIT_USAGE, "", f"error: {message}\n")
