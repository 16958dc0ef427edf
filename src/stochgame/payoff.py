"""Payoff catalog: colour tokens, exact evaluation on lasso words and on
recurrent classes, shuffles, and the shift-invariance / submixing refuters.

Values are exact rationals throughout.  The property checkers are refuters,
not provers: a returned witness is a proof of violation, absence of a witness
over a corpus is only evidence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

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
#:          both_positional)
_CATALOG = {
    "mean":          (REWARD,       True,  True,  True,  True),
    "discounted":    (DISCOUNTED,   False, False, False, True),
    "parity":        (PRIORITY,     True,  True,  True,  True),
    "limsup":        (REWARD,       True,  True,  True,  True),
    "liminf":        (REWARD,       True,  True,  True,  True),
    "posavg":        (REWARD,       True,  True,  True,  False),
    # The unbounded-above partial-sum condition is submixing: any prefix sum
    # of a shuffle is the sum of one prefix sum of each component word.
    "counter+inf":   (INCREMENT,    True,  True,  True,  False),
    # Flagged not submixing following the cited one-counter example; no
    # positionality claim is made for it anywhere in the harness.
    "counter-inf":   (INCREMENT,    True,  False, True,  False),
    "genmean":       (VECTOR,       True,  False, True,  False),
    "optgenmean":    (VECTOR,       True,  True,  True,  False),
    "meancobuchi":   (REWARD_BUCHI, True,  True,  True,  False),
    "suffixtarget":  (LETTER,       True,  False, False, False),
    "geomfirstone":  (REWARD,       False, False, False, False),
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
        return PayoffSpec(name, dim=int(arg))
    if name == "meancobuchi":
        if not sep:
            raise PayoffError("meancobuchi needs a penalty, e.g. meancobuchi:100")
        return PayoffSpec(name, penalty=Fraction(arg))
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
    letters (colour tokens here, play tokens in the projection tests)."""

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise PayoffError("lasso cycle must be non-empty")

    @staticmethod
    def of(prefix: Iterable, cycle: Iterable) -> "Lasso":
        return Lasso(tuple(prefix), tuple(cycle))

    def letter(self, n: int):
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]

    def suffix(self, k: int = 1) -> "Lasso":
        """The word with its first k letters removed: a shorter prefix, or
        the cycle rotated by the letters taken past the prefix."""
        if k < 0:
            raise PayoffError(f"cannot remove {k} letters from a word")
        p = len(self.prefix)
        if k <= p:
            return Lasso(self.prefix[k:], self.cycle)
        r = (k - p) % len(self.cycle)
        return Lasso((), self.cycle[r:] + self.cycle[:r])

    def unroll(self, n: int) -> list:
        return [self.letter(i) for i in range(n)]


def reward_lasso(prefix: Sequence, cycle: Sequence) -> Lasso:
    return Lasso(tuple(reward(r) for r in prefix), tuple(reward(r) for r in cycle))


def priority_lasso(prefix: Sequence[int], cycle: Sequence[int]) -> Lasso:
    return Lasso(tuple(priority(p) for p in prefix), tuple(priority(p) for p in cycle))


def vector_lasso(prefix: Sequence, cycle: Sequence) -> Lasso:
    return Lasso(tuple(vector(*v) for v in prefix), tuple(vector(*v) for v in cycle))


def _check_kind(spec: PayoffSpec, word: Lasso) -> None:
    want = spec.colour_kind
    dim = spec.dim if spec.name in ("genmean", "optgenmean") else None
    for tok in word.prefix + word.cycle:
        if not isinstance(tok, ColourToken) or tok.kind != want:
            raise ColourKindError(
                f"payoff {spec.format()} needs {want} colours, got {tok!r}")
        if dim is not None and len(tok.value) != dim:
            raise ColourKindError(
                f"{spec.format()} needs vectors of dimension {dim}")


# ---------------------------------------------------------------------------
# Exact evaluation on lasso words


_ZERO = Fraction(0)
_ONE = Fraction(1)
_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


def evaluate_lasso(spec: PayoffSpec, word: Lasso) -> Fraction:
    """Exact payoff of the ultimately periodic colour word.

    Win/lose conditions return indicator values 0/1; the mean-co-Buchi
    payoff substitutes the finite penalty -B for the unbounded penalty.

    The cycle decides every prefix-independent payoff.  Its rational values
    are read once as integer numerators over the lcm of their denominators,
    so sums, signs and comparisons are integer operations: a returned mean
    is the one `Fraction` built, `limsup`/`liminf` return the cycle's own
    extreme value, and the 0/1 verdicts are the constants `_ZERO`/`_ONE`.
    """
    _check_kind(spec, word)
    cyc = word.cycle
    name = spec.name

    if name == "mean":
        nums, den = _scaled([t.value for t in cyc])
        return Fraction(sum(nums), den * len(cyc))
    if name in ("limsup", "liminf"):
        values = [t.value for t in cyc]
        nums, _ = _scaled(values)
        return values[nums.index(max(nums) if name == "limsup" else min(nums))]
    if name == "parity":
        return _ONE if max(t.value for t in cyc) % 2 else _ZERO
    if name == "posavg":
        nums, _ = _scaled([t.value for t in cyc])
        return _ONE if sum(nums) > 0 else _ZERO
    if name == "counter+inf":
        # Partial sums are unbounded above iff the cycle gains per pass.
        return _ONE if sum(t.value for t in cyc) > 0 else _ZERO
    if name == "counter-inf":
        return _ONE if sum(t.value for t in cyc) < 0 else _ZERO
    if name in ("genmean", "optgenmean"):
        # One integer sum per dimension over one common denominator: its
        # sign is the sign of that dimension's mean.
        nums, _ = _scaled([x for t in cyc for x in t.value])
        dim = spec.dim
        sums = [sum(nums[i::dim]) for i in range(dim)]
        if name == "genmean":
            return _ONE if all(s > 0 for s in sums) else _ZERO
        return _ONE if any(s >= 0 for s in sums) else _ZERO
    if name == "meancobuchi":
        if any(t.value[1] for t in cyc):
            return -spec.penalty
        nums, den = _scaled([t.value[0] for t in cyc])
        return Fraction(sum(nums), den * len(cyc))
    if name == "discounted":
        return _discounted_value(word)
    if name == "suffixtarget":
        # The target word has strictly growing runs, so it is not ultimately
        # periodic and no ultimately periodic word shares a suffix with it.
        return _ONE
    if name == "geomfirstone":
        return _geom_first_one(word)
    raise PayoffError(name)


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of `values` over the lcm of their denominators,
    and that lcm: `values[i] == nums[i] / den` for every i."""
    dens = list(map(_DENOMINATOR, values))
    den = lcm(*dens)
    if den == 1:
        return list(map(_NUMERATOR, values)), 1
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _discounted_value(word: Lasso) -> Fraction:
    total = Fraction(0)
    factor = Fraction(1)
    for tok in word.prefix:
        r, lam = tok.value
        total += factor * r
        factor *= lam
    cyc_sum = Fraction(0)
    cyc_factor = Fraction(1)
    for tok in word.cycle:
        r, lam = tok.value
        cyc_sum += cyc_factor * r
        cyc_factor *= lam
    # value of cycle^omega solves v = cyc_sum + cyc_factor * v
    return total + factor * cyc_sum / (1 - cyc_factor)


def _geom_first_one(word: Lasso) -> Fraction:
    for tok in word.prefix + word.cycle:
        if tok.value not in (0, 1):
            raise ColourKindError("geomfirstone needs colours in {0, 1}")
    for n in range(len(word.prefix) + len(word.cycle)):
        if word.letter(n).value == 1:
            return 1 - Fraction(1, 2 ** n)
    return Fraction(0)


# ---------------------------------------------------------------------------
# Almost-sure payoff on a recurrent class


def class_value(spec: PayoffSpec, cls: "RecurrentClassSummary") -> Fraction:
    """Almost-sure payoff of trajectories absorbed in the given bottom SCC.

    Only shift-invariant, class-determined payoffs are accepted; the
    discounted and geometric payoffs depend on the transient part and the
    suffix-target payoff is not determined by the class at all.
    """
    if not spec.is_class_determined:
        raise PayoffError(
            f"payoff {spec.format()} is not determined by the recurrent class")
    total = sum(w for _, w in cls.colour_weights)
    if total != 1:
        raise PayoffError(f"class colour weights sum to {total}, not 1")
    toks = [t for t, _ in cls.colour_weights]
    for t in toks:
        if t.kind != spec.colour_kind:
            raise ColourKindError(
                f"payoff {spec.format()} needs {spec.colour_kind} colours")
    name = spec.name

    if name == "mean":
        return sum(w * t.value for t, w in cls.colour_weights)
    if name == "limsup":
        return max(t.value for t in toks)
    if name == "liminf":
        return min(t.value for t in toks)
    if name == "parity":
        return Fraction(max(t.value for t in toks) % 2)
    if name == "posavg":
        m = sum(w * t.value for t, w in cls.colour_weights)
        return Fraction(1) if m > 0 else Fraction(0)
    if name in ("genmean", "optgenmean"):
        means = [sum(w * t.value[i] for t, w in cls.colour_weights)
                 for i in range(spec.dim)]
        if name == "genmean":
            return Fraction(1) if all(m > 0 for m in means) else Fraction(0)
        return Fraction(1) if any(m >= 0 for m in means) else Fraction(0)
    if name == "meancobuchi":
        if any(t.value[1] for t in toks):
            return -spec.penalty
        return sum(w * t.value[0] for t, w in cls.colour_weights)
    if name in ("counter+inf", "counter-inf"):
        drift = sum(w * t.value for t, w in cls.colour_weights)
        if drift > 0:
            return Fraction(1) if name == "counter+inf" else Fraction(0)
        if drift < 0:
            return Fraction(1) if name == "counter-inf" else Fraction(0)
        # Zero drift: partial sums stay bounded iff the increments are a
        # coboundary of a potential over the class graph; otherwise they
        # oscillate to both infinities almost surely.
        return Fraction(0) if cls.has_potential else Fraction(1)
    raise PayoffError(name)


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
    word: Lasso
    shift: int
    value: Fraction
    shifted_value: Fraction


def check_shift_invariance(spec: PayoffSpec, word: Lasso,
                           shifts: int) -> Optional[ShiftWitness]:
    """Compare f on the word and on its first `shifts` suffixes; return the
    first disagreement, if any."""
    if shifts < 1:
        raise PayoffError("shifts must be >= 1")
    base = evaluate_lasso(spec, word)
    current = word
    for k in range(1, shifts + 1):
        current = current.suffix(1)
        val = evaluate_lasso(spec, current)
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
    if isinstance(obj, (int, str)):
        return reward(Fraction(obj))
    if isinstance(obj, dict):
        keys = set(obj)
        if keys == {"priority"}:
            return priority(obj["priority"])
        if keys == {"reward", "discount"}:
            return discounted(Fraction(obj["reward"]), Fraction(obj["discount"]))
        if keys == {"vector"}:
            return vector(*[Fraction(x) for x in obj["vector"]])
        if keys == {"letter"}:
            return letter(obj["letter"])
        if keys == {"increment"}:
            return increment(obj["increment"])
        if keys == {"reward", "buchi"}:
            return reward_buchi(Fraction(obj["reward"]), obj["buchi"])
    raise PayoffError(f"unrecognized colour {obj!r}")


def _frac_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)
