"""Alternating chains on a vertex set, with exact rational coefficients.

A degree-n chain is a finite formal sum of (n+1)-tuples of vertex ids,
taken up to the sign of coordinate permutations; tuples with a repeated
entry are the zero chain.  Chains are stored on canonical keys (strictly
increasing tuples).  Coefficients are Python ints until a true fraction
appears, then Fractions; the two mix exactly, so equality checks are
exact.  `signed_faces` is the one place that writes out the signed faces
of a canonical tuple.  Chains have no text format of their own; no report
writes one out.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, cycle, starmap
from operator import gt
from typing import Callable, Iterable, Iterator

Rational = int | Fraction


def canonicalize_tuple(tup: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sorted form of a tuple and the sign of the sorting permutation.

    Returns sign 0 when an entry repeats.
    """
    if len(set(tup)) != len(tup):
        return tup, 0
    inversions = sum(starmap(gt, combinations(tup, 2)))
    return tuple(sorted(tup)), -1 if inversions % 2 else 1


def signed_faces(key: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(face, sign) pairs of a canonical tuple, the last entry dropped first;
    dropping entry j has sign (-1)^j."""
    n = len(key) - 1
    return zip(combinations(key, n), cycle((-1, 1) if n % 2 else (1, -1)))


class AltChain:
    """Immutable-by-convention alternating chain.

    `terms` maps canonical tuples to nonzero ints or Fractions.  Do not
    mutate a chain's dict; every operation returns a new chain.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[tuple[int, ...], Rational]):
        self.degree = degree
        self.terms = terms

    @classmethod
    def zero(cls, degree: int) -> "AltChain":
        return cls(degree, {})

    @classmethod
    def from_tuples(cls, pairs: Iterable[tuple[tuple[int, ...], Rational]]) -> "AltChain":
        """Sum of (tuple, coefficient) terms; tuples may be unordered."""
        terms: dict[tuple[int, ...], Rational] = {}
        degree = None
        for tup, coeff in pairs:
            if degree is None:
                degree = len(tup) - 1
            elif len(tup) - 1 != degree:
                raise ValueError("mixed degrees in one chain")
            key, sign = canonicalize_tuple(tuple(tup))
            if sign == 0:
                continue
            if not isinstance(coeff, (int, Fraction)):
                coeff = Fraction(coeff)
            value = terms.get(key, 0) + coeff * sign
            if value:
                terms[key] = value
            else:
                terms.pop(key, None)
        if degree is None:
            raise ValueError("cannot infer degree from no terms; use AltChain.zero")
        return cls(degree, terms)

    @classmethod
    def basis(cls, tup: tuple[int, ...], coeff: Rational = 1) -> "AltChain":
        return cls.from_tuples([(tup, coeff)])

    def items(self) -> list[tuple[tuple[int, ...], Rational]]:
        """Terms in sorted key order, for deterministic output."""
        return sorted(self.terms.items())

    def support(self) -> set[tuple[int, ...]]:
        return set(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def l1_norm(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def augmentation(self) -> Fraction:
        if self.degree != 0:
            raise ValueError("augmentation is defined on degree-0 chains")
        return sum(self.terms.values(), Fraction(0))

    def face(self, j: int) -> "AltChain":
        """Drop the j-th coordinate of every canonical term."""
        if not 0 <= j <= self.degree:
            raise ValueError(f"face index {j} out of range for degree {self.degree}")
        out: dict[tuple[int, ...], Rational] = {}
        for key, coeff in self.terms.items():
            face = key[:j] + key[j + 1 :]
            value = out.get(face, 0) + coeff
            if value:
                out[face] = value
            else:
                out.pop(face, None)
        return AltChain(self.degree - 1, out)

    def boundary(self) -> "AltChain":
        """Alternating sum of faces; degree must be at least 1."""
        if self.degree < 1:
            raise ValueError("boundary needs degree >= 1")
        out: dict[tuple[int, ...], Rational] = {}
        for key, coeff in self.terms.items():
            for face, sign in signed_faces(key):
                value = out.get(face, 0) + (coeff if sign > 0 else -coeff)
                if value:
                    out[face] = value
                else:
                    out.pop(face, None)
        return AltChain(self.degree - 1, out)

    def map_vertices(self, func: Callable[[int], int]) -> "AltChain":
        """Push the chain through a vertex map, killing repeated images."""
        if not self.terms:
            return AltChain.zero(self.degree)
        return AltChain.from_tuples(
            (tuple(func(v) for v in key), coeff) for key, coeff in self.terms.items()
        )

    def __add__(self, other: "AltChain") -> "AltChain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            value = out.get(key, 0) + coeff
            if value:
                out[key] = value
            else:
                out.pop(key, None)
        return AltChain(self.degree, out)

    def __neg__(self) -> "AltChain":
        return AltChain(self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "AltChain") -> "AltChain":
        return self + (-other)

    def __mul__(self, scalar: Rational) -> "AltChain":
        if not isinstance(scalar, (int, Fraction)):
            scalar = Fraction(scalar)
        if not scalar:
            return AltChain.zero(self.degree)
        return AltChain(self.degree, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AltChain):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"AltChain.zero({self.degree})"
        body = " + ".join(f"{c}*{k}" for k, c in self.items()[:4])
        extra = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return f"AltChain({body}{extra})"

