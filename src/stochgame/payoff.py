"""Payoff catalog: colour tokens, exact evaluation, shuffles, and the
shift-invariance / submixing refuters.

A payoff is a function of the infinite play.  Every class-determined payoff
has one rule, its value form (`_VALUE_FORMS`, read by `limit_value`): the
value of a play from the statistics of the colours it sees infinitely
often, weighed by their limit weights.  It reads colours as indices into a
`LetterTable`, an alphabet whose colour kinds are checked once and whose
values are scaled once to integer numerators over one denominator.  A
chain's bottom class (`class_value`, at its moves' letters in its arena's
table, `Arena.letter_table`), a word's cycle (`word_value`, on letter
indices; `evaluate_lasso` values a lasso over the table of its own
letters) and the refutation searches' arrays of cycles and shuffles are
all valued by it.

Values are exact rationals throughout.  The property checkers are refuters,
not provers: a returned witness is a proof of violation, absence of a witness
over a corpus is only evidence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import and_, attrgetter, ge, gt, lt, mul, or_
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .chain import RecurrentClassSummary


class PayoffError(ValueError):
    pass


class ColourKindError(PayoffError):
    pass


# ---------------------------------------------------------------------------
# Colour tokens


REWARD = "reward"
DISCOUNTED = "discounted"
PRIORITY = "priority"
VECTOR = "vector"
LETTER = "letter"
INCREMENT = "increment"
REWARD_BUCHI = "reward_buchi"


@dataclass(frozen=True)
class ColourToken:
    """One colour: a kind tag plus its payload.

    reward       -> Fraction
    discounted   -> (Fraction reward, Fraction discount in [0,1))
    priority     -> int >= 0
    vector       -> tuple[Fraction, ...]
    letter       -> str ("" means no emission)
    increment    -> int
    reward_buchi -> (Fraction reward, bool flag)
    """

    kind: str
    value: Any

    def __post_init__(self):
        if self.kind == DISCOUNTED:
            _, lam = self.value
            if not (0 <= lam < 1):
                raise PayoffError(f"discount factor {lam} outside [0,1)")
        if self.kind == PRIORITY and self.value < 0:
            raise PayoffError(f"priority {self.value} is negative")


def reward(r) -> ColourToken:
    return ColourToken(REWARD, Fraction(r))


def discounted(r, lam) -> ColourToken:
    return ColourToken(DISCOUNTED, (Fraction(r), Fraction(lam)))


def priority(p: int) -> ColourToken:
    return ColourToken(PRIORITY, int(p))


def vector(*rs) -> ColourToken:
    return ColourToken(VECTOR, tuple(Fraction(r) for r in rs))


def letter(ch: str) -> ColourToken:
    return ColourToken(LETTER, ch)


def increment(n: int) -> ColourToken:
    return ColourToken(INCREMENT, int(n))


def reward_buchi(r, flag: bool) -> ColourToken:
    return ColourToken(REWARD_BUCHI, (Fraction(r), bool(flag)))


# ---------------------------------------------------------------------------
# Payoff specs

#: name -> (colour kind, shift_invariant, submixing, class_determined,
#:          both_positional, min_responses_exact)
#: min_responses_exact: against a fixed finite-memory maximizer strategy,
#: a pure stationary response on its memory product is optimal.  That holds
#: when -f is shift-invariant and submixing (Gimbert 2007, STACS), and for
#: the positional payoffs.
_CATALOG = {
    "mean":          (REWARD,       True,  True,  True,  True,  True),
    "discounted":    (DISCOUNTED,   False, False, False, True,  True),
    "parity":        (PRIORITY,     True,  True,  True,  True,  True),
    "limsup":        (REWARD,       True,  True,  True,  True,  True),
    "liminf":        (REWARD,       True,  True,  True,  True,  True),
    # Responses exact: a shuffle's mean lies between its components', so if
    # it is <= 0, one component's is.
    "posavg":        (REWARD,       True,  True,  True,  False, True),
    # The unbounded-above partial-sum condition is submixing: any prefix sum
    # of a shuffle is the sum of one prefix sum of each component word.
    # Responses not flagged exact: no argument for -f is known.
    "counter+inf":   (INCREMENT,    True,  True,  True,  False, False),
    # Flagged not submixing following the cited one-counter example; no
    # positionality claim is made for it anywhere in the harness.  That
    # example (a zero-drift oscillation) is not a lasso, and no ultimately
    # periodic witness exists: a lasso's value is the sign of its cycle sum,
    # and a shuffle's cycle sum is a positive mix of both components' sums.
    # So `check submixing --payoff counter-inf` can only print `confirmed`,
    # the result of a bounded search, not a proof.
    "counter-inf":   (INCREMENT,    True,  False, True,  False, False),
    "genmean":       (VECTOR,       True,  False, True,  False, False),
    # Responses not exact: the equal-weight shuffle of words with means
    # (-1, 1/10) and (1/10, -1) has means (-9/20, -9/20).
    "optgenmean":    (VECTOR,       True,  True,  True,  False, False),
    # Responses exact: a shuffle sees Buchi colours infinitely often only if
    # a component does, and its mean is at least the smaller component's.
    "meancobuchi":   (REWARD_BUCHI, True,  True,  True,  False, True),
    "suffixtarget":  (LETTER,       True,  False, False, False, False),
    "geomfirstone":  (REWARD,       False, False, False, False, False),
}


@dataclass(frozen=True)
class PayoffSpec:
    name: str
    dim: int = 0                      # genmean / optgenmean
    penalty: Optional[Fraction] = None  # meancobuchi
    prefix: str = ""                  # suffixtarget

    def __post_init__(self):
        if self.name not in _CATALOG:
            raise PayoffError(f"unknown payoff {self.name!r}")
        if self.name in ("genmean", "optgenmean") and self.dim < 1:
            raise PayoffError(f"{self.name} needs a dimension >= 1")
        if self.name == "meancobuchi" and self.penalty is None:
            raise PayoffError("meancobuchi needs a penalty bound")

    @property
    def colour_kind(self) -> str:
        return _CATALOG[self.name][0]

    @property
    def is_shift_invariant(self) -> bool:
        return _CATALOG[self.name][1]

    @property
    def is_submixing(self) -> bool:
        return _CATALOG[self.name][2]

    @property
    def is_class_determined(self) -> bool:
        return _CATALOG[self.name][3]

    @property
    def is_both_positional(self) -> bool:
        return _CATALOG[self.name][4]

    @property
    def min_responses_exact(self) -> bool:
        return _CATALOG[self.name][5]

    def format(self) -> str:
        if self.name in ("genmean", "optgenmean"):
            return f"{self.name}:{self.dim}"
        if self.name == "meancobuchi":
            return f"meancobuchi:{self.penalty}"
        if self.name == "suffixtarget":
            return f"suffixtarget:{self.prefix}"
        return self.name


def parse_payoff_spec(text: str) -> PayoffSpec:
    """Parse the CLI form: mean, discounted, parity, limsup, liminf, posavg,
    counter+inf, counter-inf, genmean:k, optgenmean:k, meancobuchi:B,
    suffixtarget:p, geomfirstone."""
    name, sep, arg = text.partition(":")
    name = name.strip()
    if name in ("genmean", "optgenmean"):
        if not sep:
            raise PayoffError(f"{name} needs a dimension, e.g. {name}:2")
        try:
            dim = int(arg)
        except ValueError:
            raise PayoffError(
                f"{name} dimension is not an integer: {arg!r}") from None
        return PayoffSpec(name, dim=dim)
    if name == "meancobuchi":
        if not sep:
            raise PayoffError("meancobuchi needs a penalty, e.g. meancobuchi:100")
        try:
            return PayoffSpec(name, penalty=Fraction(arg))
        except (ValueError, ZeroDivisionError):
            raise PayoffError(
                f"meancobuchi penalty is not a rational: {arg!r}") from None
    if name == "suffixtarget":
        return PayoffSpec(name, prefix=arg)
    if sep:
        raise PayoffError(f"payoff {name!r} takes no parameter")
    return PayoffSpec(name)


# ---------------------------------------------------------------------------
# Lasso words


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic word prefix . cycle^omega over arbitrary
    letters (colour tokens here, integers in the shuffle property tests)."""

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise PayoffError("lasso cycle must be non-empty")

    def letter(self, n: int):
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]

    def unroll(self, n: int) -> list:
        return [self.letter(i) for i in range(n)]


def _check_kind(spec: PayoffSpec, tokens) -> None:
    """Raise ColourKindError unless every token is a colour of the payoff's
    kind and, for the vector payoffs, of its dimension."""
    want = spec.colour_kind
    dim = spec.dim if want == VECTOR else None
    for tok in tokens:
        if not isinstance(tok, ColourToken) or tok.kind != want:
            raise ColourKindError(
                f"payoff {spec.format()} needs {want} colours")
        if dim is not None and len(tok.value) != dim:
            raise ColourKindError(
                f"payoff {spec.format()} needs vectors of dimension {dim}")


# ---------------------------------------------------------------------------
# Exact evaluation: letter tables, index words and recurrent classes


_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")
# The lose and win values as (numerator, denominator) pairs in lowest terms.
_ZERO = (0, 1)
_ONE = (1, 1)


class LetterTable(NamedTuple):
    """An alphabet read once for one payoff: its `letters`, each checked to
    be a colour of the payoff's kind, and their values as integer
    numerators `nums` over one denominator `den`, so that `letters[i]`'s
    value is `nums[i] / den`.  A vector letter's numerators are a tuple,
    one per dimension, and a reward-Buchi letter's are its reward's.  A
    discounted letter's are its reward's and its discount's numerators and
    denominators, (r num, r den, λ num, λ den), over `den` 1.  The letter
    payoff reads the letters themselves, and its `nums` are None."""

    letters: tuple
    nums: Optional[tuple]
    den: int


def letter_table(spec: PayoffSpec, letters) -> LetterTable:
    """The table of `letters` under `spec`: their values scaled to integer
    numerators over one denominator.  Raises ColourKindError unless every
    letter is a colour of the payoff's kind, of its dimension for the
    vector payoffs, and 0 or 1 for the geometric payoff."""
    letters = tuple(letters)
    _check_kind(spec, letters)
    kind = spec.colour_kind
    if kind == LETTER:
        return LetterTable(letters, None, 1)
    if kind == DISCOUNTED:
        return LetterTable(letters, tuple(
            (r.numerator, r.denominator, lam.numerator, lam.denominator)
            for r, lam in (t.value for t in letters)), 1)
    if kind == VECTOR:
        dim = spec.dim
        flat, den = scaled([x for t in letters for x in t.value])
        nums = tuple(tuple(flat[i:i + dim]) for i in range(0, len(flat), dim))
    else:
        nums, den = scaled([t.value[0] for t in letters]
                           if kind == REWARD_BUCHI else
                           [t.value for t in letters])
        nums = tuple(nums)
    if spec.name == "geomfirstone" and (
            den != 1 or not set(nums) <= {0, 1}):
        raise ColourKindError("geomfirstone needs colours in {0, 1}")
    return LetterTable(letters, nums, den)


def evaluate_lasso(spec: PayoffSpec, word: Lasso) -> Fraction:
    """Exact payoff of the ultimately periodic colour word: `word_value`
    over the table of the word's own letters."""
    p = len(word.prefix)
    letters = letter_table(spec, word.prefix + word.cycle)
    return Fraction(*word_value(spec, letters, range(p),
                                range(p, len(letters.letters))))


def word_value(spec: PayoffSpec, letters: LetterTable, prefix,
               cycle) -> tuple[int, int]:
    """Exact payoff of the word prefix . cycle^omega, its letters given as
    indices into `letters`, as a (numerator, denominator) pair in lowest
    terms.  The cycle is not empty.

    The discounted and geometric payoffs read the whole word, and the
    suffix-target payoff is 1 on every ultimately periodic word.  Every
    other payoff is class-determined: its value is its `limit_value` on the
    cycle, the letters the word sees infinitely often, each weighing 1.
    """
    name = spec.name
    if name == "discounted":
        return _discounted_value(letters, prefix, cycle)
    if name == "suffixtarget":
        # The target word has strictly growing runs, so it is not ultimately
        # periodic and no ultimately periodic word shares a suffix with it.
        return _ONE
    if name == "geomfirstone":
        return _geom_first_one(letters, prefix, cycle)
    return _lowest(*limit_value(spec, _Seen(letters, cycle), letters.den))


def class_value(spec: PayoffSpec, letters: LetterTable,
                cls: "RecurrentClassSummary") -> tuple[int, int]:
    """Almost-sure payoff of trajectories absorbed in the bottom SCC `cls`,
    as a (numerator, denominator) pair in lowest terms: the payoff's
    `limit_value` on the statistics of the entries `cls.letters` of the
    table `letters`, one per move of positive weight, so a letter may
    repeat, weighed by its `int_weights`, which are aligned with them.
    The table is the class's arena's for the payoff
    (`Arena.letter_table`), whose colours' kind was checked when it was
    built.

    A payoff whose form reads neither L nor S never reads the weights, so
    never solves the stationary distribution.  Only class-determined
    payoffs are accepted; the discounted and geometric payoffs depend on
    the transient part and the suffix-target payoff is not determined by
    the class at all."""
    if not spec.is_class_determined:
        raise PayoffError(
            f"payoff {spec.format()} is not determined by the recurrent class")
    return _lowest(*limit_value(spec, _Seen(letters, cls.letters, cls),
                                letters.den))


# ---------------------------------------------------------------------------
# Value forms: one rule per class-determined payoff


def _where(cond, yes, no):
    """yes() where `cond` holds, else no(): on a bool only the branch taken
    is read, and on arrays a Python int past int64 stays exact, which numpy
    would make uint64 below 2^64."""
    if isinstance(cond, bool):
        return yes() if cond else no()
    yes, no = yes(), no()
    return np.where(cond, *(np.asarray(x, dtype=object) if isinstance(x, int)
                            and not -2 ** 63 <= x < 2 ** 63 else x
                            for x in (yes, no)))


def _wins(win, join=None):
    """The form of a payoff won, 1 against 0, iff the sum S wins against 0
    under the comparison `win`: a vector's in every dimension (`join` is
    `and_`) or in some (`or_`)."""
    def form(spec, st, den):
        S = st["S"]
        if join is None:
            return win(S, 0), 1
        dims = S if isinstance(S, tuple) else np.moveaxis(S, -1, 0)
        return functools.reduce(join, (win(s, 0) for s in dims)), 1
    return form


def _counter(win):
    """counter+inf's form (`win` is `gt`) or counter-inf's (`lt`): a nonzero
    drift sends the partial sums to its side's infinity; a zero drift keeps
    them bounded iff the increments have a potential, and otherwise they
    oscillate to both infinities almost surely."""
    def form(spec, st, den):
        S = st["S"]
        return _where(S == 0, lambda: st["P"] == 0, lambda: win(S, 0)), 1
    return form


def _mean_unless_buchi(spec, st, den):
    """meancobuchi's form: the finite penalty -B, which stands for the
    unbounded one, once a Buchi colour is seen, else the mean."""
    buchi, penalty = st["B"], spec.penalty
    return (_where(buchi, lambda: -penalty.numerator, lambda: st["S"]),
            _where(buchi, lambda: penalty.denominator, lambda: st["L"] * den))


_VALUE_FORMS = {
    "mean": lambda spec, st, den: (st["S"], st["L"] * den),
    "limsup": lambda spec, st, den: (st["MX"], den),
    "liminf": lambda spec, st, den: (st["MN"], den),
    # the top priority's parity
    "parity": lambda spec, st, den: (st["MX"] % 2, 1),
    "posavg": _wins(gt),
    "counter+inf": _counter(gt),
    "counter-inf": _counter(lt),
    "genmean": _wins(gt, and_),
    "optgenmean": _wins(ge, or_),
    "meancobuchi": _mean_unless_buchi,
}


def limit_value(spec: PayoffSpec, stats, den: int):
    """The payoff's value form on `stats`, the statistics of the letters a
    play sees infinitely often, over a letter table of denominator `den`:
    the play's value as a (numerator, positive denominator) pair, not in
    lowest terms.

    Each letter weighs its limit weight.  The statistics are L, the
    weights' denominator (a cycle's length); S, the weighted sum of the
    numerators, a vector's per dimension (a tuple, or an array's last
    axis); MX and MN, the largest and the least numerator; B, is a Buchi
    colour seen; and P, do the increments have a potential, as round a
    cycle they always do.  A form reads only the statistics it needs, with
    plain operators, so it gives the same pair on Python ints, which a
    class's weights can take past int64, as on the searches' int64 arrays
    (`verify`), and its 0/1 verdicts on ints are bools."""
    return _VALUE_FORMS[spec.name](spec, stats, den)


class _Seen:
    """The statistics of the letters at the indices `seen` of a table, each
    computed when a form reads it: a word's cycle (`cls` None), its letters
    weighing 1 each, or the bottom class `cls`, whose letters they are,
    weighed by its `int_weights`.  Those are solved only when L or S is
    read, and S checks that they sum to their denominator; P asks the
    class about the table's increments."""

    __slots__ = ("letters", "seen", "cls")

    def __init__(self, letters: LetterTable, seen, cls=None):
        self.letters, self.seen, self.cls = letters, seen, cls

    def __getitem__(self, key: str):
        nums, seen, cls = self.letters.nums, self.seen, self.cls
        if key == "L":
            return len(seen) if cls is None else cls.int_weights[0]
        if key == "S":
            if cls is None:
                weights = itertools.repeat(1)
            else:
                den, weights = cls.int_weights
                if sum(weights) != den:
                    raise PayoffError(f"class colour weights sum to "
                                      f"{Fraction(sum(weights), den)}, not 1")
            vals = [nums[i] for i in seen]
            if isinstance(vals[0], tuple):
                return tuple(sum(map(mul, c, weights)) for c in zip(*vals))
            return sum(map(mul, vals, weights))
        if key in ("MX", "MN"):
            return (max if key == "MX" else min)(nums[i] for i in seen)
        if key == "B":
            return any(self.letters.letters[i].value[1] for i in seen)
        if key == "P":
            return cls is None or cls.has_potential(nums)
        raise KeyError(key)


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, for a positive den."""
    g = gcd(num, den)
    return num // g, den // g


def scaled(values) -> tuple[list[int], int]:
    """Integer numerators of `values` over the lcm of their denominators,
    and that lcm: `values[i] == nums[i] / den` for every i."""
    dens = list(map(_DENOMINATOR, values))
    den = lcm(*dens)
    if den == 1:
        return list(map(_NUMERATOR, values)), 1
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _discounted_value(letters: LetterTable, prefix, cycle) -> tuple[int, int]:
    """The discounted value of prefix . cycle^omega, walked in integers.
    Each letter's (r, λ) is read as its table's numerators and
    denominators, and each walk folds r + λ·v from the back of its letters,
    one integer pair for v.  The cycle's fold gives its sum C and its
    discounts' product Λ, and cycle^omega's value solves v = C + Λ·v, so
    it is C / (1 - Λ); the prefix folds onto that.  Every λ is in [0, 1)
    (`ColourToken`), so the denominators stay positive, and the pair is
    reduced once, at the end."""
    steps = letters.nums
    num, den, lam_num, lam_den = 0, 1, 1, 1
    for i in reversed(cycle):
        rn, rd, ln, ld = steps[i]
        num, den = rn * ld * den + rd * ln * num, rd * ld * den
        lam_num *= ln
        lam_den *= ld
    num, den = num * lam_den, den * (lam_den - lam_num)
    for i in reversed(prefix):
        rn, rd, ln, ld = steps[i]
        num, den = rn * ld * den + rd * ln * num, rd * ld * den
    return _lowest(num, den)


def _geom_first_one(letters: LetterTable, prefix, cycle) -> tuple[int, int]:
    # 1 - 2^-n for the first letter 1 at position n; the table's numerators
    # are the 0/1 values themselves
    nums = letters.nums
    for n, i in enumerate(itertools.chain(prefix, cycle)):
        if nums[i]:
            return 2 ** n - 1, 2 ** n
    return _ZERO


# ---------------------------------------------------------------------------
# Shuffles


@dataclass(frozen=True)
class ShufflePattern:
    """Block lengths of an interleaving u0 v0 u1 v1 ...

    `prefix` and `tail` alternate (u-block, v-block, u-block, ...) starting
    with a u-block; the tail repeats forever.  Zero-length blocks are
    allowed anywhere; the tail must consume at least one letter of each word
    per period for the shuffle to place every letter.
    """

    prefix: tuple[int, ...]
    tail: tuple[int, ...]

    def __post_init__(self):
        if len(self.prefix) % 2 or len(self.tail) % 2:
            raise PayoffError("pattern blocks must come in (u, v) pairs")
        if any(b < 0 for b in self.prefix + self.tail):
            raise PayoffError("block lengths must be non-negative")
        if sum(self.tail) == 0:
            raise PayoffError("pattern tail must consume letters")

    @staticmethod
    def alternating(u_len: int = 1, v_len: int = 1) -> "ShufflePattern":
        return ShufflePattern((), (u_len, v_len))

    @property
    def tail_u(self) -> int:
        return sum(self.tail[0::2])

    @property
    def tail_v(self) -> int:
        return sum(self.tail[1::2])


class ShuffleError(PayoffError):
    pass


def shuffle(u: Lasso, v: Lasso, pattern: ShufflePattern) -> Lasso:
    """Interleave two lasso words per the block pattern.

    Every letter of u and of v appears exactly once, in order; the result is
    again a lasso.  Raises ShuffleError when the pattern starves one word.
    Each word is read as one stream, prefix then its cycle forever, and each
    block is sliced off its stream whole; `pu`/`pv` count the letters taken.
    """
    if pattern.tail_u == 0:
        raise ShuffleError("pattern never places letters of u")
    if pattern.tail_v == 0:
        raise ShuffleError("pattern never places letters of v")

    out: list = []
    su = itertools.chain(u.prefix, itertools.cycle(u.cycle))
    sv = itertools.chain(v.prefix, itertools.cycle(v.cycle))
    pu = pv = 0

    def blocks(lengths: tuple) -> None:
        nonlocal pu, pv
        for bu, bv in zip(lengths[0::2], lengths[1::2]):
            out.extend(itertools.islice(su, bu))
            out.extend(itertools.islice(sv, bv))
            pu += bu
            pv += bv

    blocks(pattern.prefix)
    # Advance whole tail periods until both streams sit inside their cycles,
    # then until the pair of cycle offsets repeats; that block is the w-cycle.
    while pu < len(u.prefix) or pv < len(v.prefix):
        blocks(pattern.tail)
    seen: dict = {}
    marks: list = []
    while True:
        key = ((pu - len(u.prefix)) % len(u.cycle),
               (pv - len(v.prefix)) % len(v.cycle))
        if key in seen:
            start = seen[key]
            return Lasso(tuple(out[:marks[start]]), tuple(out[marks[start]:]))
        seen[key] = len(marks)
        marks.append(len(out))
        blocks(pattern.tail)


# ---------------------------------------------------------------------------
# Property refuters


@dataclass(frozen=True)
class ShiftWitness:
    """A word, the first shift whose suffix's value differs from the word's,
    and the two values."""

    word: Lasso
    shift: int
    value: Fraction
    shifted_value: Fraction


def check_shift_invariance(spec: PayoffSpec, word: Lasso,
                           shifts: int) -> Optional[ShiftWitness]:
    """Compare f on the word and on each of its first `shifts` suffixes, by
    `evaluate_lasso`; return the first disagreement, if any.  Each suffix
    drops the prefix's first letter or, past the prefix, rotates the
    cycle."""
    if shifts < 1:
        raise PayoffError("shifts must be >= 1")
    prefix, cycle = word.prefix, word.cycle
    base = evaluate_lasso(spec, word)
    for k in range(1, shifts + 1):
        if prefix:
            prefix = prefix[1:]
        else:
            cycle = cycle[1:] + cycle[:1]
        val = evaluate_lasso(spec, Lasso(prefix, cycle))
        if val != base:
            return ShiftWitness(word, k, base, val)
    return None


@dataclass(frozen=True)
class SubmixWitness:
    u: Lasso
    v: Lasso
    pattern: ShufflePattern
    w: Lasso
    value_u: Fraction
    value_v: Fraction
    value_w: Fraction


def check_submixing(spec: PayoffSpec, u: Lasso, v: Lasso,
                    pattern: ShufflePattern) -> Optional[SubmixWitness]:
    """Witness iff f(shuffle) exceeds both component payoffs."""
    w = shuffle(u, v, pattern)
    fu = evaluate_lasso(spec, u)
    fv = evaluate_lasso(spec, v)
    fw = evaluate_lasso(spec, w)
    if fw > max(fu, fv):
        return SubmixWitness(u, v, pattern, w, fu, fv, fw)
    return None


# ---------------------------------------------------------------------------
# Serialization of colour tokens (game file format)


def colour_to_json(tok: ColourToken):
    if tok.kind == REWARD:
        return _frac_to_json(tok.value)
    if tok.kind == PRIORITY:
        return {"priority": tok.value}
    if tok.kind == DISCOUNTED:
        r, lam = tok.value
        return {"reward": _frac_to_json(r), "discount": str(lam)}
    if tok.kind == VECTOR:
        return {"vector": [_frac_to_json(x) for x in tok.value]}
    if tok.kind == LETTER:
        return {"letter": tok.value}
    if tok.kind == INCREMENT:
        return {"increment": tok.value}
    if tok.kind == REWARD_BUCHI:
        r, flag = tok.value
        return {"reward": _frac_to_json(r), "buchi": flag}
    raise PayoffError(tok.kind)


def colour_from_json(obj) -> ColourToken:
    """The colour a game file's JSON value denotes, validated, not coerced:
    a priority and an increment are integers, a Buchi flag is a boolean, a
    letter is a string, and no number is a boolean.  Raises PayoffError for
    anything else."""
    if isinstance(obj, dict):
        keys = set(obj)
        if keys == {"priority"} and type(obj["priority"]) is int:
            return priority(obj["priority"])
        if keys == {"reward", "discount"}:
            return discounted(_number(obj["reward"]), _number(obj["discount"]))
        if keys == {"vector"} and isinstance(obj["vector"], list):
            return vector(*map(_number, obj["vector"]))
        if keys == {"letter"} and isinstance(obj["letter"], str):
            return letter(obj["letter"])
        if keys == {"increment"} and type(obj["increment"]) is int:
            return increment(obj["increment"])
        if keys == {"reward", "buchi"} and isinstance(obj["buchi"], bool):
            return reward_buchi(_number(obj["reward"]), obj["buchi"])
    elif isinstance(obj, str) or type(obj) in (int, Fraction):
        return reward(Fraction(obj))
    raise PayoffError(f"unrecognized colour {obj!r}")


def _number(x) -> Fraction:
    if type(x) is bool:
        raise PayoffError(f"{x!r} is not a number")
    return Fraction(x)


def _frac_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)
