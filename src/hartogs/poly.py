"""Exact polynomial containers used throughout the package.

Two deliberately small types:

* ``BiPoly`` -- a sparse bivariate polynomial in (s, t) with nonnegative
  integer exponents and exact integer coefficients, stored as a map from
  exponent pairs to nonzero coefficients.
* ``UniPoly`` -- a dense univariate polynomial with exact scalar
  coefficients, stored as a coefficient tuple in ascending degree with no
  trailing zeros.  The pipeline builds it with int coefficients; a
  ``fractions.Fraction`` coefficient appears only in input given that way
  and in results that divide over the rationals: the monic gcd and
  squarefree factors of ``hartogs.roots`` (whose algorithms run on integer
  coefficient lists) and ``div_rem``.

Coefficients are arbitrary precision by construction; nothing in this module
touches floats.  Neither type has an output format of its own:
``hartogs.cli`` prints coefficients as decimal strings, so precision
survives in machine-readable output, and writes the text monomials
c*s^i*t^j itself from ``terms`` and ``coeffs``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import ValidationError

Scalar = Union[int, Fraction]

__all__ = ["BiPoly", "UniPoly", "Scalar"]


def _as_scalar(value) -> Scalar:
    """Normalize an exact scalar: Fractions with denominator 1 become ints."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise ValidationError(f"exact scalar expected, got {type(value).__name__}")


def _primitive(coeffs) -> list[int]:
    """Scale by a positive rational to integer coefficients with content 1.

    Positive scaling preserves signs everywhere, which is what Sturm-chain
    bookkeeping needs.  coeffs must be empty (the zero polynomial, which
    comes back as []) or end in a nonzero entry, as a ``UniPoly``'s do.
    """
    denominators = [c.denominator for c in coeffs if type(c) is not int]
    den = math.lcm(*denominators)
    ints = [int(c * den) for c in coeffs] if denominators else list(coeffs)
    content = math.gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


class BiPoly:
    """Sparse exact polynomial in two variables s and t."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        cleaned: dict[tuple[int, int], Scalar] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValidationError(f"negative exponent ({i}, {j})")
                c = _as_scalar(c)
                if c != 0:
                    cleaned[(int(i), int(j))] = c
        self._terms = cleaned

    @property
    def terms(self) -> dict[tuple[int, int], Scalar]:
        """Copy of the exponent-to-coefficient map."""
        return dict(self._terms)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._terms == other._terms

    def restrict_diagonal(self) -> "UniPoly":
        """Substitute t = s: a ring homomorphism onto univariate polynomials."""
        deg = max((i + j for i, j in self._terms), default=-1)
        coeffs = [0] * (deg + 1)
        for (i, j), c in self._terms.items():
            coeffs[i + j] += c
        return UniPoly(coeffs)

    def eval_exact(self, s: Scalar, t: Scalar) -> Scalar:
        total: Scalar = 0
        for (i, j), c in self._terms.items():
            total += c * s**i * t**j
        return _as_scalar(Fraction(total))

    def __repr__(self) -> str:
        return f"BiPoly({self._terms!r})"


class UniPoly:
    """Dense exact univariate polynomial, coefficients in ascending degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cleaned = [_as_scalar(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self._coeffs = tuple(cleaned)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self._coeffs == other._coeffs

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __call__(self, x: Scalar) -> Scalar:
        """Exact Horner evaluation; a float x raises ValidationError."""
        x = _as_scalar(x)
        acc: Scalar = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return _as_scalar(Fraction(acc))

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self._coeffs)][1:])

    def shift_down(self, e: int) -> "UniPoly":
        """Divide by x^e exactly; raises ValidationError if a low term survives."""
        if e < 0:
            raise ValidationError(f"shift_down needs e >= 0, got {e}")
        if self.is_zero or e == 0:
            return self
        if any(c != 0 for c in self._coeffs[:e]):
            raise ValidationError(f"polynomial has a nonzero term below degree {e}")
        return UniPoly(self._coeffs[e:])

    def is_palindromic(self) -> bool:
        """True when the coefficient sequence reads the same both ways."""
        return not self.is_zero and self._coeffs == tuple(reversed(self._coeffs))

    def div_rem(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Euclidean division over the rationals: self = q*other + r."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self._coeffs]
        den = [Fraction(c) for c in other._coeffs]
        dq = len(rem) - len(den)
        if dq < 0:
            return UniPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = den[-1]
        for i in range(dq, -1, -1):
            factor = rem[i + len(den) - 1] / lead
            quo[i] = factor
            if factor:
                for j, d in enumerate(den):
                    rem[i + j] -= factor * d
        return UniPoly(quo), UniPoly(rem)

    def __repr__(self) -> str:
        return f"UniPoly({list(self._coeffs)!r})"
