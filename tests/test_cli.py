"""Command-line surface: subcommands, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
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


GOLDEN = ROOT / "tests" / "golden"


SEEDED_DOOB = [
    ("doob_e2_mean.json", [E2, "--payoff", "mean"]),
    ("doob_priority_parity.json",
     ["random:states=4,actions=3,seed=11,kind=priority", "--payoff", "parity"]),
    # value-changing steps up to date 10 and a first-hit estimate off its
    # exact value: the play sampler's draws all show in this report
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


def test_doob_cli(capsys):
    code, out, _ = run_capture(
        capsys, ["doob", "random:states=3,actions=2,seed=4",
                 "--payoff", "mean", "--trials", "800"])
    assert code == EXIT_OK


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
    # refuted by the closed-form sweep, witness replayed through shuffle
    ("check_submixing_genmean2.json", ["submixing", "--payoff", "genmean:2"]),
    ("check_shift_discounted.json",
     ["shift-invariance", "--payoff", "discounted"]),
    # confirmed: every random case is evaluated on lassos and shuffles
    ("check_submixing_optgenmean2.json",
     ["submixing", "--payoff", "optgenmean:2", "--cases", "300"]),
    ("check_shift_mean.json",
     ["shift-invariance", "--payoff", "mean", "--cases", "300"]),
]


@pytest.mark.parametrize("golden, argv", SEEDED_CHECKS,
                         ids=[g for g, _ in SEEDED_CHECKS])
def test_check_seeded_output_is_pinned(capsys, golden, argv):
    code, out, _ = run_capture(capsys, ["--format", "structured", "check", *argv])
    assert code == (EXIT_REFUTED if "refuted" in out else EXIT_OK)
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("prop", ["submixing", "shift-invariance"])
@pytest.mark.parametrize("flag, value, name", [
    ("--max-cycle", "0", "max_cycle"), ("--cases", "-5", "random_cases")])
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
