"""Euler number of Seifert data and the fiber-detecting class on H_1.

Input is orientable-base Seifert data (g; (alpha_1, beta_1), ..., (alpha_n,
beta_n)), all alpha_j nonzero. With A = prod alpha_j, the abelianized
fundamental group relations

    alpha_j q_j + beta_j h = 0        (convention "h-positive", q^a h^b = 1)
    alpha_j q_j - beta_j h = 0        (convention "h-negative", q^a = h^b)
    q_1 + ... + q_n = 0               (surface relation; commutators die)

admit the assignment phi(h) = A, phi(q_j) = -+ A beta_j / alpha_j exactly
when the Euler number e = -sum beta_j/alpha_j vanishes: the long relation
sums to +- A e. All arithmetic is exact (Fractions in, ints out: alpha_j
divides A so each phi(q_j) is an integer).

The two relation conventions appear in the literature with opposite signs;
the constructor takes the sign that verifies under the one you ask for
(h-positive by default), checks every relation exactly and records the
convention in the result.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import NonzeroEulerNumber, TransnumError, ValidationError

__all__ = [
    "SeifertData",
    "RelationConvention",
    "FiberClassHomomorphism",
    "euler_number",
    "construct_h1_class",
    "verify_homomorphism",
    "parse_pairs",
    "random_zero_euler_data",
    "EULER_CONVENTION",
]

# recorded in every report: e = -(beta_1/alpha_1 + ... + beta_n/alpha_n)
EULER_CONVENTION = "e = -sum(beta_j/alpha_j)"


class RelationConvention(enum.Enum):
    H_POSITIVE = "h-positive"  # q_j^{alpha_j} h^{beta_j} = 1
    H_NEGATIVE = "h-negative"  # q_j^{alpha_j} = h^{beta_j}


@dataclass(frozen=True)
class SeifertData:
    genus: int
    pairs: tuple

    def __post_init__(self):
        if not isinstance(self.genus, int) or isinstance(self.genus, bool):
            raise ValidationError("genus must be an integer")
        if self.genus < 0:
            raise ValidationError(
                "negative genus (non-orientable base) is not supported here"
            )
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        if not pairs:
            raise ValidationError("need at least one (alpha, beta) pair")
        for a, _ in pairs:
            if a == 0:
                raise ValidationError("every alpha_j must be nonzero")
        object.__setattr__(self, "pairs", pairs)


def euler_number(data: SeifertData) -> Fraction:
    return -sum((Fraction(b, a) for a, b in data.pairs), Fraction(0))


@dataclass(frozen=True)
class FiberClassHomomorphism:
    """phi on H_1 generators: surface generators go to 0, q_j to values_q[j],
    the fiber class h to value_h (= prod alpha_j, never zero)."""

    values_q: tuple
    value_h: int
    values_ab: tuple
    convention: RelationConvention
    data: SeifertData


def _relation_residuals(data: SeifertData, phi: FiberClassHomomorphism):
    sign = 1 if phi.convention is RelationConvention.H_POSITIVE else -1
    per_pair = tuple(
        Fraction(a) * q + sign * Fraction(b) * phi.value_h
        for (a, b), q in zip(data.pairs, phi.values_q)
    )
    long_rel = sum((Fraction(q) for q in phi.values_q), Fraction(0))
    return per_pair, long_rel


def construct_h1_class(
    data: SeifertData, convention: Optional[RelationConvention] = None
) -> FiberClassHomomorphism:
    """Build phi; refuses data whose Euler number is nonzero (with the sum)."""
    e = euler_number(data)
    if e != 0:
        raise NonzeroEulerNumber(e)
    total = 1
    for a, _ in data.pairs:
        total *= a
    conv = RelationConvention.H_POSITIVE if convention is None else convention
    # under q^a h^b = 1 the verifying sign is -, under q^a = h^b it is +
    sign = -1 if conv is RelationConvention.H_POSITIVE else 1
    values_q = tuple(Fraction(sign * total * b, a) for a, b in data.pairs)
    if any(q.denominator != 1 for q in values_q):
        raise TransnumError(f"phi(q_j) not integral for {data} (should not happen when e=0)")
    phi = FiberClassHomomorphism(
        values_q=tuple(int(q) for q in values_q),
        value_h=total,
        values_ab=(0,) * (2 * data.genus),
        convention=conv,
        data=data,
    )
    per_pair, long_rel = _relation_residuals(data, phi)
    if any(r != 0 for r in per_pair) or long_rel != 0:
        raise TransnumError(
            f"no verified sign assignment for {data} (should not happen when e=0): "
            f"residuals {per_pair}, {long_rel}"
        )
    return phi


def verify_homomorphism(data: SeifertData, phi: FiberClassHomomorphism) -> dict:
    """Exact residual of every relation; all values must be 0."""
    if len(phi.values_q) != len(data.pairs):
        raise ValidationError("phi and data have different numbers of pairs")
    per_pair, long_rel = _relation_residuals(data, phi)
    return {
        "exceptional": per_pair,
        "long_relation": long_rel,
        "surface_generators": tuple(Fraction(v) for v in phi.values_ab),
        "centrality": Fraction(0),  # abelian target, nothing to check
    }


# --- text format -----------------------------------------------------------

_PAIR_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse_pairs(text: str, what: str = "pairs") -> tuple:
    """(alpha, beta) pairs written like (2,1) (2,-1); commas between the
    pairs are allowed, anything else is a ValidationError."""
    pairs = tuple((int(a), int(b)) for a, b in _PAIR_RE.findall(text))
    leftover = _PAIR_RE.sub("", text).strip(" \t,")
    if leftover or not pairs:
        raise ValidationError(f"{what} must be a list like (2,1) (2,-1); got {text!r}")
    return pairs


def random_zero_euler_data(rng, max_extra: int = 3) -> SeifertData:
    """Random data with Euler number exactly zero.

    Mix of mirrored pairs (alpha, b), (alpha, -b) and alpha-multiple pairs
    closed off by a single (1, -sum) pair; genus 0..3."""
    genus = int(rng.integers(0, 4))
    pairs = []
    for _ in range(int(rng.integers(1, max_extra + 1))):
        a = int(rng.integers(2, 7))
        b = int(rng.integers(-3, 4))
        pairs.append((a, b))
        pairs.append((a, -b))
    if rng.integers(0, 2):
        total = 0
        for _ in range(int(rng.integers(1, max_extra + 1))):
            a = int(rng.integers(2, 5))
            m = int(rng.integers(-2, 3))
            pairs.append((a, m * a))  # contributes the integer m
            total += m
        pairs.append((1, -total))
    order = rng.permutation(len(pairs))
    return SeifertData(genus=genus, pairs=tuple(pairs[i] for i in order))
