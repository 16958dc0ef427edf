"""Fuzzing the command line: corpus game files, strategy files, `random:`
specs, payoff specs, epsilons and integer options with one entry mutated,
and unknown flags, never end in a traceback.  Every run exits 0, 1, 2 or 3,
and exit 1 prints one `error:` line."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame.cli import EXIT_USAGE, run

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "v1"

INF = object()    # stands for the JSON number 1e309, which parses as inf
DROP = object()   # removes the entry instead of replacing it
ALPHABET = ("1/0", "-1", "x", None, [], {}, INF)
# the alphabet as command-line text
WORDS = ("1/0", "-1", "x", "null", "[]", "{}", "1e309")

STATIONARY = '{"s": "stay", "t": "loop"}'
RANDOM_SPEC = {"states": "3", "actions": "2", "seed": "5", "density": "1/2",
               "lo": "-2", "hi": "2", "kind": "reward"}
PAYOFFS = ("mean", "meancobuchi:100", "genmean:2", "discounted", "parity")
SIMULATE = ["simulate", "@e2", "--sigma", "@weak", "--tau", "@weak"]
HALFPOS = ["verify", "halfpos", "@e2", "--payoff", "mean"]
CHECK = ["check", "submixing", "--payoff", "mean"]
# every integer-typed option, with a command line that takes it
INT_OPTIONS = {"--trials": SIMULATE, "--horizon": SIMULATE,
               "--budget": ["solve", "@e2", "--payoff", "mean"],
               "--memory": HALFPOS, "--candidates": HALFPOS,
               "--max-cycle": CHECK, "--cases": CHECK}


def _positions(doc, path=()):
    """The path of every entry of a JSON document, the root's included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _positions(value, (*path, key))


def _replaced(doc, path, value):
    """A copy of `doc` with the entry at `path` set to `value` (or removed,
    for DROP)."""
    if not path:
        return doc if value is DROP else value
    key, rest = path[0], path[1:]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if value is DROP and not rest:
        del out[key]
    else:
        out[key] = _replaced(doc[key], rest, value)
    return out


def _dump(doc) -> str:
    return json.dumps(doc, default=lambda _: "@inf@").replace('"@inf@"', "1e309")


@st.composite
def _mutated(draw, text: str) -> str:
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_positions(doc))))
    return _dump(_replaced(doc, path, draw(st.sampled_from(ALPHABET + (DROP,)))))


def _game_cases():
    games = [(CORPUS / name).read_text() for name in ("e2.game", "e3.game")]
    game = st.sampled_from(games).flatmap(_mutated)
    argv = st.sampled_from([
        ["solve", "@game", "--payoff", "mean"],
        ["doob", "@game", "--payoff", "mean", "--trials", "20"],
    ])
    return st.tuples(argv, st.builds(lambda g: {"game": g}, game))


def _strategy_cases():
    strategy = st.sampled_from([STATIONARY, (CORPUS / "e2weak.sigma").read_text()]
                               ).flatmap(_mutated)
    argv = st.sampled_from([
        ["verify", "subgame", "@e2", "--payoff", "mean", "--sigma", "@sigma"],
        ["best-response", "@e2", "--payoff", "mean", "--sigma", "@sigma"],
        ["martingale", "@e2", "--payoff", "mean", "--sigma", "@sigma",
         "--tau", "@sigma"],
        ["simulate", "@e2", "--sigma", "@sigma", "--tau", "@sigma",
         "--trials", "3"],
    ])
    return st.tuples(argv, st.builds(lambda s: {"sigma": s}, strategy))


def _random_spec(key: str, word: str) -> str:
    return "random:" + ",".join(f"{k}={word if k == key else v}"
                                for k, v in RANDOM_SPEC.items())


def _argument_cases():
    words = st.sampled_from(WORDS)
    spec = st.builds(_random_spec, st.sampled_from(list(RANDOM_SPEC)), words)
    payoff = st.one_of(
        words, st.builds(lambda p, w: f"{p.partition(':')[0]}:{w}",
                         st.sampled_from(PAYOFFS), words))
    argv = st.one_of(
        st.builds(lambda g: ["solve", g, "--payoff", "mean"], spec),
        st.builds(lambda p: ["solve", "@e2", "--payoff", p], payoff),
        st.builds(lambda e: ["verify", "subgame", "@e2", "--payoff", "mean",
                             "--sigma", "@weak", "--epsilon", e], words),
        st.builds(lambda flag, w: [*INT_OPTIONS[flag], flag, w],
                  st.sampled_from(list(INT_OPTIONS)), words),
        st.builds(lambda argv, w: [*argv, "--frob", w],
                  st.sampled_from([SIMULATE, HALFPOS, CHECK]), words))
    return st.tuples(argv, st.just({}))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.one_of(_game_cases(), _strategy_cases(), _argument_cases()))
def test_mutated_inputs_never_escape_the_command_line(case):
    argv, texts = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"e2": CORPUS / "e2.game", "weak": CORPUS / "e2weak.sigma"}
        for name, text in texts.items():
            files[name] = Path(tmp) / name
            files[name].write_text(text)
        argv = [str(files[a[1:]]) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
