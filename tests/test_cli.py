"""Command-line surface: subcommands, exit codes, deterministic output."""

import json
from pathlib import Path

from stochgame.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, run,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "v1"
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


def test_inconclusive_exit_code(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "halfpos", "random:states=4,actions=3,seed=2",
                 "--payoff", "mean", "--budget", "1"])
    assert code == EXIT_INCONCLUSIVE
