"""Exact payoff evaluation, shuffles, and the property refuters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame import payoff
from stochgame.payoff import (
    VECTOR, ColourKindError, ColourToken, Lasso, PayoffError, ShuffleError,
    ShufflePattern, check_shift_invariance, check_submixing, class_value,
    colour_from_json, colour_to_json, discounted, evaluate_lasso, increment,
    letter, parse_payoff_spec, priority, priority_lasso, reward,
    reward_buchi, reward_lasso, shuffle, vector, vector_lasso,
)

mean = parse_payoff_spec("mean")
par = parse_payoff_spec("parity")
disc = parse_payoff_spec("discounted")
geom = parse_payoff_spec("geomfirstone")


# -- spec parsing -------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "mean", "discounted", "parity", "limsup", "liminf", "posavg",
    "counter+inf", "counter-inf", "genmean:2", "optgenmean:3",
    "meancobuchi:100", "suffixtarget:ab", "geomfirstone",
])
def test_spec_round_trip(text):
    assert parse_payoff_spec(text).format() == text


def test_spec_rejects_garbage():
    with pytest.raises(PayoffError):
        parse_payoff_spec("meanest")
    with pytest.raises(PayoffError):
        parse_payoff_spec("genmean")
    with pytest.raises(PayoffError):
        parse_payoff_spec("mean:3")


def test_classification_flags():
    both = ["mean", "parity", "limsup", "liminf", "posavg", "optgenmean:2",
            "meancobuchi:100"]
    for name in both:
        spec = parse_payoff_spec(name)
        assert spec.is_shift_invariant and spec.is_submixing, name
    assert not disc.is_shift_invariant and not disc.is_submixing
    gen = parse_payoff_spec("genmean:2")
    assert gen.is_shift_invariant and not gen.is_submixing
    cm = parse_payoff_spec("counter-inf")
    assert cm.is_shift_invariant and not cm.is_submixing
    suf = parse_payoff_spec("suffixtarget:")
    assert suf.is_shift_invariant and not suf.is_submixing
    assert not geom.is_shift_invariant and not geom.is_submixing


# -- evaluate_lasso -----------------------------------------------------------

def test_mean_constant_cycle():
    assert evaluate_lasso(mean, reward_lasso([], [3])) == 3


def test_mean_cycle_average():
    assert evaluate_lasso(mean, reward_lasso([5, 5], [1, 2])) == Fraction(3, 2)


def test_parity_is_max_cycle_priority_parity():
    # prefix priorities are seen finitely often and cannot matter; the cycle
    # maximum of [2, 1] is 2, even, so the play loses
    assert evaluate_lasso(par, priority_lasso([5], [2, 1])) == 0
    assert evaluate_lasso(par, priority_lasso([2], [1])) == 1
    assert evaluate_lasso(par, priority_lasso([], [0, 3, 2])) == 1


def test_discounted_geometric_series():
    word = Lasso((), (discounted(1, Fraction(1, 2)),))
    assert evaluate_lasso(disc, word) == 2


def test_discounted_matches_truncated_series():
    # independent oracle: sum the defining series for 40 terms
    word = Lasso((discounted(2, Fraction(1, 3)),),
                 (discounted(1, Fraction(1, 2)), discounted(-1, Fraction(1, 4))))
    total, factor = Fraction(0), Fraction(1)
    for n in range(40):
        r, lam = word.letter(n).value
        total += factor * r
        factor *= lam
    assert abs(evaluate_lasso(disc, word) - total) < Fraction(1, 2 ** 38)


def test_limsup_liminf():
    word = reward_lasso([9], [1, -2, 2])
    assert evaluate_lasso(parse_payoff_spec("limsup"), word) == 2
    assert evaluate_lasso(parse_payoff_spec("liminf"), word) == -2


def test_positive_average_strict():
    posavg = parse_payoff_spec("posavg")
    assert evaluate_lasso(posavg, reward_lasso([], [1, -1])) == 0
    assert evaluate_lasso(posavg, reward_lasso([-5], [1])) == 1


def test_counter_conditions_on_lassos():
    plus = parse_payoff_spec("counter+inf")
    minus = parse_payoff_spec("counter-inf")
    gain = Lasso((), (increment(1), increment(0)))
    lose = Lasso((), (increment(-1),))
    flat = Lasso((increment(3),), (increment(1), increment(-1)))
    assert evaluate_lasso(plus, gain) == 1 and evaluate_lasso(minus, gain) == 0
    assert evaluate_lasso(plus, lose) == 0 and evaluate_lasso(minus, lose) == 1
    # zero cycle sum keeps partial sums bounded: both conditions fail
    assert evaluate_lasso(plus, flat) == 0 and evaluate_lasso(minus, flat) == 0


def test_generalized_means():
    gen = parse_payoff_spec("genmean:2")
    opt = parse_payoff_spec("optgenmean:2")
    win = vector_lasso([], [(1, 2)])
    half = vector_lasso([], [(2, -1)])
    lose = vector_lasso([], [(-1, -2)])
    assert evaluate_lasso(gen, win) == 1
    assert evaluate_lasso(gen, half) == 0
    assert evaluate_lasso(opt, half) == 1
    assert evaluate_lasso(opt, lose) == 0
    # the optimistic comparison is non-strict
    assert evaluate_lasso(opt, vector_lasso([], [(0, -1)])) == 1


def test_mean_cobuchi_penalty():
    spec = parse_payoff_spec("meancobuchi:100")
    clean = Lasso((reward_buchi(0, True),), (reward_buchi(2, False),))
    dirty = Lasso((), (reward_buchi(2, False), reward_buchi(2, True)))
    assert evaluate_lasso(spec, clean) == 2
    assert evaluate_lasso(spec, dirty) == -100


def test_suffix_target_constant_on_lassos():
    spec = parse_payoff_spec("suffixtarget:ab")
    word = Lasso((letter("a"),), (letter("b"), letter("")))
    assert evaluate_lasso(spec, word) == 1


def test_geom_first_one():
    assert evaluate_lasso(geom, reward_lasso([0, 0, 1], [0])) == Fraction(3, 4)
    assert evaluate_lasso(geom, reward_lasso([], [0])) == 0
    assert evaluate_lasso(geom, reward_lasso([1], [0])) == 0
    with pytest.raises(ColourKindError):
        evaluate_lasso(geom, reward_lasso([], [2]))


def test_kind_mismatch_rejected():
    with pytest.raises(ColourKindError):
        evaluate_lasso(mean, priority_lasso([], [1]))
    with pytest.raises(ColourKindError):
        evaluate_lasso(parse_payoff_spec("genmean:3"), vector_lasso([], [(1, 2)]))


# -- mean payoff invariances --------------------------------------------------

small_cycles = st.lists(st.integers(-3, 3), min_size=1, max_size=6)


@given(small_cycles, st.integers(1, 5))
def test_mean_rotation_invariant(cycle, k):
    rot = cycle[k % len(cycle):] + cycle[:k % len(cycle)]
    assert evaluate_lasso(mean, reward_lasso([], cycle)) == \
        evaluate_lasso(mean, reward_lasso([], rot))


@given(small_cycles)
def test_mean_pumping_invariant(cycle):
    assert evaluate_lasso(mean, reward_lasso([], cycle)) == \
        evaluate_lasso(mean, reward_lasso([], cycle + cycle))


# -- suffixes and shift invariance ---------------------------------------------

def test_suffix_of_lasso():
    word = reward_lasso([1, 2], [3, 4])
    assert word.suffix(1).unroll(5) == word.unroll(6)[1:]
    assert word.suffix(3).unroll(5) == word.unroll(8)[3:]


def test_suffix_rejects_a_negative_count():
    with pytest.raises(PayoffError):
        reward_lasso([1, 2], [3, 4]).suffix(-1)


def test_shift_invariance_mean_has_no_witness():
    assert check_shift_invariance(mean, reward_lasso([2, -1], [0, 1]), 6) is None


def test_shift_invariance_geom_witness():
    # the first letter matters: dropping the leading zero moves the first
    # one to position zero and the payoff from 1/2 to 0
    witness = check_shift_invariance(geom, reward_lasso([0, 1], [0]), 1)
    assert witness is not None
    assert witness.value == Fraction(1, 2)
    assert witness.shifted_value == 0


def test_shift_invariance_discounted_equal_word():
    # absence of a witness is not proof: the constant word has equal value
    # under every shift even though the payoff is not shift-invariant
    word = Lasso((), (discounted(1, Fraction(1, 2)),))
    assert check_shift_invariance(disc, word, 4) is None


# -- shuffles ------------------------------------------------------------------

def test_shuffle_alternating():
    u = reward_lasso([], [0])
    v = reward_lasso([], [2])
    w = shuffle(u, v, ShufflePattern.alternating())
    assert w.unroll(6) == [reward(0), reward(2)] * 3


def test_shuffle_vector_witness_word():
    u = vector_lasso([], [(2, -1)])
    v = vector_lasso([], [(-1, 2)])
    w = shuffle(u, v, ShufflePattern.alternating())
    assert w.unroll(4) == [vector(2, -1), vector(-1, 2)] * 2


def test_shuffle_starving_pattern_rejected():
    u = reward_lasso([], [0])
    v = reward_lasso([], [2])
    with pytest.raises(ShuffleError):
        shuffle(u, v, ShufflePattern((), (2, 0)))
    with pytest.raises(PayoffError):
        ShufflePattern((), (0, 0))


def test_shuffle_consumes_in_order():
    u = reward_lasso([7], [1, 2, 3])
    v = reward_lasso([], [-1, -2])
    w = shuffle(u, v, ShufflePattern((1, 0), (2, 1)))
    expanded = w.unroll(40)
    from_u = [t for t in expanded if t.value > 0 or t.value == 7]
    from_v = [t for t in expanded if t.value < 0]
    assert from_u == u.unroll(len(from_u))
    assert from_v == v.unroll(len(from_v))


@given(st.integers(1, 3), st.integers(1, 3), small_cycles, small_cycles)
@settings(max_examples=60)
def test_shuffle_is_lasso_of_both(a, b, cu, cv):
    w = shuffle(reward_lasso([], cu), reward_lasso([], cv),
                ShufflePattern.alternating(a, b))
    n = len(w.prefix) + len(w.cycle)
    assert sorted(t.value for t in w.unroll(n)).count(cu[0]) >= 1


# -- submixing -----------------------------------------------------------------

def test_submixing_mean_no_witness():
    u = reward_lasso([], [0])
    v = reward_lasso([], [2])
    assert check_submixing(mean, u, v, ShufflePattern.alternating()) is None
    w = shuffle(u, v, ShufflePattern.alternating())
    assert evaluate_lasso(mean, w) == 1


def test_submixing_genmean_witness():
    gen = parse_payoff_spec("genmean:2")
    u = vector_lasso([], [(2, -1)])
    v = vector_lasso([], [(-1, 2)])
    witness = check_submixing(gen, u, v, ShufflePattern.alternating())
    assert witness is not None
    assert (witness.value_u, witness.value_v, witness.value_w) == (0, 0, 1)


@given(small_cycles, small_cycles, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=150)
def test_submixing_mean_random_sweep(cu, cv, a, b):
    assert check_submixing(mean, reward_lasso([], cu), reward_lasso([], cv),
                           ShufflePattern.alternating(a, b)) is None


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=150)
def test_submixing_parity_random_sweep(cu, cv, a, b):
    assert check_submixing(par, priority_lasso([], cu),
                           priority_lasso([], cv),
                           ShufflePattern.alternating(a, b)) is None


# -- class values ---------------------------------------------------------------

def _summary(colour_weights, has_potential=None):
    from stochgame.chain import RecurrentClassSummary
    total = sum(w for _, w in colour_weights)
    n = len(colour_weights)
    return RecurrentClassSummary(
        nodes=tuple(range(n)),
        stationary={i: colour_weights[i][1] for i in range(n)},
        colour_weights=tuple(colour_weights),
        has_potential=has_potential)


def test_class_value_single_state():
    cls = _summary([(reward(3), Fraction(1))])
    assert class_value(mean, cls) == 3


def test_class_value_two_state_mean():
    # stationary (2/3, 1/3) with rewards (0, 3): the ergodic average is 1
    cls = _summary([(reward(0), Fraction(2, 3)), (reward(3), Fraction(1, 3))])
    assert class_value(mean, cls) == 1


def test_class_value_counter_zero_drift_with_potential():
    plus = parse_payoff_spec("counter+inf")
    cls = _summary([(increment(1), Fraction(1, 2)),
                    (increment(-1), Fraction(1, 2))], has_potential=True)
    assert class_value(plus, cls) == 0


def test_class_value_counter_zero_drift_without_potential():
    plus = parse_payoff_spec("counter+inf")
    minus = parse_payoff_spec("counter-inf")
    cls = _summary([(increment(2), Fraction(1, 3)),
                    (increment(-1), Fraction(2, 3))], has_potential=False)
    assert class_value(plus, cls) == 1
    assert class_value(minus, cls) == 1


def test_class_value_rejects_global_payoffs():
    cls = _summary([(reward(0), Fraction(1))])
    with pytest.raises(PayoffError):
        class_value(disc, cls)
    with pytest.raises(PayoffError):
        class_value(parse_payoff_spec("suffixtarget:a"), cls)


def test_class_value_rejects_bad_weights():
    from stochgame.chain import RecurrentClassSummary
    cls = RecurrentClassSummary.__new__(RecurrentClassSummary)
    object.__setattr__(cls, "nodes", (0,))
    object.__setattr__(cls, "stationary", {0: Fraction(1)})
    object.__setattr__(cls, "colour_weights", ((reward(1), Fraction(1, 2)),))
    object.__setattr__(cls, "has_potential", None)
    with pytest.raises(PayoffError):
        class_value(mean, cls)


# -- colour serialization --------------------------------------------------------

@pytest.mark.parametrize("tok", [
    reward(3), reward(Fraction(-5, 6)), priority(4),
    discounted(1, Fraction(1, 2)), vector(1, Fraction(2, 3), -1),
    letter("b"), letter(""), increment(-7), reward_buchi(2, True),
])
def test_colour_json_round_trip(tok):
    assert colour_from_json(colour_to_json(tok)) == tok


# -- the Fraction implementations, kept as oracles -------------------------------
#
# The library evaluates lassos over integer numerators, slices suffixes and
# streams shuffles; these are the letter-by-letter `Fraction` versions it
# replaced, and the properties below require both to agree exactly.


def _check_kind_oracle(spec, word):
    want = spec.colour_kind
    for tok in word.prefix + word.cycle:
        if not isinstance(tok, ColourToken) or tok.kind != want:
            raise ColourKindError(
                f"payoff {spec.format()} needs {want} colours, got {tok!r}")
        if spec.name in ("genmean", "optgenmean") and len(tok.value) != spec.dim:
            raise ColourKindError(
                f"{spec.format()} needs vectors of dimension {spec.dim}")


def _cycle_mean(values):
    return Fraction(sum(values), len(values))


def _vector_cycle_means(cyc, dim):
    return [Fraction(sum(t.value[i] for t in cyc), len(cyc)) for i in range(dim)]


def _evaluate_lasso_oracle(spec, word):
    _check_kind_oracle(spec, word)
    cyc = word.cycle
    name = spec.name
    if name == "mean":
        return _cycle_mean([t.value for t in cyc])
    if name == "limsup":
        return max(t.value for t in cyc)
    if name == "liminf":
        return min(t.value for t in cyc)
    if name == "parity":
        return Fraction(max(t.value for t in cyc) % 2)
    if name == "posavg":
        return Fraction(1) if _cycle_mean([t.value for t in cyc]) > 0 else Fraction(0)
    if name == "counter+inf":
        return Fraction(1) if sum(t.value for t in cyc) > 0 else Fraction(0)
    if name == "counter-inf":
        return Fraction(1) if sum(t.value for t in cyc) < 0 else Fraction(0)
    if name == "genmean":
        means = _vector_cycle_means(cyc, spec.dim)
        return Fraction(1) if all(m > 0 for m in means) else Fraction(0)
    if name == "optgenmean":
        means = _vector_cycle_means(cyc, spec.dim)
        return Fraction(1) if any(m >= 0 for m in means) else Fraction(0)
    if name == "meancobuchi":
        if any(t.value[1] for t in cyc):
            return -spec.penalty
        return _cycle_mean([t.value[0] for t in cyc])
    if name == "discounted":
        return payoff._discounted_value(word)
    if name == "suffixtarget":
        return Fraction(1)
    if name == "geomfirstone":
        return payoff._geom_first_one(word)
    raise PayoffError(name)


def _suffix_oracle(word, k):
    pre, cyc = list(word.prefix), list(word.cycle)
    for _ in range(k):
        if pre:
            pre.pop(0)
        else:
            cyc = cyc[1:] + cyc[:1]
    return Lasso(tuple(pre), tuple(cyc))


def _shuffle_oracle(u, v, pattern):
    if pattern.tail_u == 0:
        raise ShuffleError("pattern never places letters of u")
    if pattern.tail_v == 0:
        raise ShuffleError("pattern never places letters of v")
    out = []
    pu = pv = 0

    def take(word, pos, n):
        for i in range(n):
            out.append(word.letter(pos + i))
        return pos + n

    for i, blk in enumerate(pattern.prefix):
        if i % 2 == 0:
            pu = take(u, pu, blk)
        else:
            pv = take(v, pv, blk)

    def period():
        nonlocal pu, pv
        for i, blk in enumerate(pattern.tail):
            if i % 2 == 0:
                pu = take(u, pu, blk)
            else:
                pv = take(v, pv, blk)

    while pu < len(u.prefix) or pv < len(v.prefix):
        period()
    seen, marks = {}, []
    while True:
        key = ((pu - len(u.prefix)) % len(u.cycle),
               (pv - len(v.prefix)) % len(v.cycle))
        if key in seen:
            start = seen[key]
            return Lasso(tuple(out[:marks[start]]), tuple(out[marks[start]:]))
        seen[key] = len(marks)
        marks.append(len(out))
        period()


def _outcome(f, *args):
    """The value with its type, or the type of the exception raised."""
    try:
        value = f(*args)
    except Exception as e:  # the exception type is the outcome compared
        return ("raised", type(e))
    return ("value", type(value), value)


# Denominators 2 and 3 without 6 make the lcm differ from every single one.
fractions_ = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))


def vectors(dim):
    return st.lists(fractions_, min_size=dim, max_size=dim).map(
        lambda xs: vector(*xs))


TOKENS = {
    payoff.REWARD: st.builds(reward, fractions_),
    payoff.PRIORITY: st.builds(priority, st.integers(0, 5)),
    payoff.INCREMENT: st.builds(increment, st.integers(-3, 3)),
    payoff.REWARD_BUCHI: st.builds(reward_buchi, fractions_,
                                   st.sampled_from([False, False, True])),
    payoff.DISCOUNTED: st.builds(discounted, fractions_,
                                 st.sampled_from([0, Fraction(1, 2),
                                                  Fraction(2, 3)])),
    payoff.LETTER: st.builds(letter, st.sampled_from(["a", "b", ""])),
}

ORACLE_SPECS = [
    "mean", "discounted", "parity", "limsup", "liminf", "posavg",
    "counter+inf", "counter-inf", "genmean:1", "genmean:2", "genmean:3",
    "optgenmean:1", "optgenmean:2", "optgenmean:3", "meancobuchi:100",
    "meancobuchi:5/2", "suffixtarget:ab", "geomfirstone",
]


@st.composite
def spec_and_word(draw):
    spec = parse_payoff_spec(draw(st.sampled_from(ORACLE_SPECS)))
    if spec.colour_kind == VECTOR:
        tokens = vectors(spec.dim)
    elif spec.name == "geomfirstone":
        tokens = st.builds(reward, st.sampled_from([0, 0, 1, 1, 1, 2]))
    else:
        tokens = TOKENS[spec.colour_kind]
    if draw(st.integers(0, 9)) == 0:
        # letters of other kinds or dimensions, which both must reject
        tokens = st.one_of(tokens, *TOKENS.values(), *map(vectors, (1, 2, 3)))
    prefix = draw(st.lists(tokens, max_size=4))
    cycle = draw(st.lists(tokens, min_size=1, max_size=6))
    return spec, Lasso(tuple(prefix), tuple(cycle))


@given(spec_and_word())
@settings(max_examples=600)
def test_evaluate_lasso_matches_fraction_oracle(case):
    spec, word = case
    assert _outcome(evaluate_lasso, spec, word) == \
        _outcome(_evaluate_lasso_oracle, spec, word)


letters = st.integers(0, 9)
lassos = st.builds(Lasso.of, st.lists(letters, max_size=4),
                   st.lists(letters, min_size=1, max_size=4))


@given(lassos)
@settings(max_examples=200)
def test_suffix_matches_letter_by_letter_oracle(word):
    for k in range(len(word.prefix) + 2 * len(word.cycle) + 1):
        assert word.suffix(k) == _suffix_oracle(word, k)


blocks = st.integers(0, 3)
patterns = st.builds(
    ShufflePattern,
    st.lists(st.tuples(blocks, blocks), max_size=2).map(
        lambda pairs: tuple(b for pair in pairs for b in pair)),
    st.lists(st.tuples(blocks, blocks), min_size=1, max_size=2).map(
        lambda pairs: tuple(b for pair in pairs for b in pair)).filter(sum))


@given(lassos, lassos, patterns)
@settings(max_examples=300)
def test_shuffle_matches_letter_by_letter_oracle(u, v, pattern):
    # letters of v are told apart from those of u by their sign
    v = Lasso.of([-1 - x for x in v.prefix], [-1 - x for x in v.cycle])
    assert _outcome(shuffle, u, v, pattern) == \
        _outcome(_shuffle_oracle, u, v, pattern)
