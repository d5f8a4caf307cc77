"""Rational functions of the spectral parameter as complex coefficient tuples.

Degrees stay tiny (bounded by the channel count), so convolution products
and Horner's rule on Python complexes suffice; no symbolic engine and no
numpy: a product of Moebius factors (x + mu)/(1 + x mu) carries the roots
-1/x of its denominator factors, so its poles are never solved for.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

_TRIM = 1e-14


def _trim(coeffs) -> tuple:
    """The coefficients as Python complexes, without trailing ones below
    _TRIM times the largest; all zero gives (0j,)."""
    c = tuple(complex(z) for z in coeffs)
    if not c:
        raise ValueError("coefficients must be a nonempty sequence")
    cut = _TRIM * max(abs(z) for z in c)
    keep = [i for i, z in enumerate(c) if abs(z) > cut]
    return c[: keep[-1] + 1] if keep else (0j,)


def _convolve(a, b) -> list:
    """Coefficients of the product of two polynomials; each sum runs in
    ascending order of a's index."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(desc: list, mu: complex) -> complex:
    """Descending coefficients `desc` at mu, in numpy polyval's operation order."""
    acc = desc[0] + mu * 0
    for c in desc[1:]:
        acc = c + acc * mu
    return acc


class RationalFunction:
    """num(mu)/den(mu), coefficients ascending in mu, and the roots of den."""

    def __init__(self, num, den, poles=()):
        self.num = _trim(num)
        self.den = _trim(den)
        self._poles = tuple(poles)
        self._den_scale = max(abs(z) for z in self.den)
        if self._den_scale == 0.0:
            raise ZeroDivisionError("zero denominator polynomial")
        self._num_desc = list(self.num[::-1])
        self._den_desc = list(self.den[::-1])

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction([1.0], [1.0])

    @staticmethod
    def linear_ratio(x: complex) -> "RationalFunction":
        """(x + mu)/(1 + x*mu); collapses to a degree-0 constant at x = +-1,
        where numerator and denominator share their root."""
        if abs(x - 1.0) < 1e-14:
            return RationalFunction([1.0], [1.0])
        if abs(x + 1.0) < 1e-14:
            return RationalFunction([-1.0], [1.0])
        return RationalFunction([x, 1.0], [1.0, x], (-1 / x,))

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(_convolve(self.num, other.num),
                                _convolve(self.den, other.den), self._poles + other._poles)

    def evaluate(self, mu: complex, pole_tol: float = 1e-12) -> complex:
        mu = complex(mu)
        if cmath.isinf(mu):             # the limit: leading coefficients at equal degrees
            if len(self.num) > len(self.den):
                raise PoleError(f"mu -> infinity is a pole of {self}", pole=mu)
            return self.num[-1] / self.den[-1] if len(self.num) == len(self.den) else 0j
        den = _horner(self._den_desc, mu)
        try:
            scale = self._den_scale * max(1.0, abs(mu)) ** (len(self.den) - 1)
            at_pole = abs(den) <= pole_tol * scale
        except OverflowError:               # |mu| ** degree leaves the float range
            at_pole, den = False, math.nan
        if at_pole:
            nearest = min(self.poles(), key=lambda p: abs(p - mu), default=mu)
            raise PoleError(f"evaluation at mu={mu} hits a pole near {nearest}", pole=nearest)
        val = _horner(self._num_desc, mu) / den
        if not cmath.isfinite(val):
            raise DomainError(f"evaluation at mu={mu} overflows a complex float "
                              f"(degree {self.degree})")
        return val

    def poles(self) -> tuple:
        """The roots -1/x of den's factors (1 + x mu), a double one twice."""
        return self._poles

    def __repr__(self):
        return f"RationalFunction(num={list(self.num)}, den={list(self.den)})"
