"""Rational functions of the spectral parameter as complex coefficient arrays.

Degrees stay tiny (bounded by the channel count), so convolution products
and Horner's rule on Python complexes suffice; no symbolic engine.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleError

_TRIM = 1e-14


def _trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty 1-d sequence")
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(np.abs(c) > _TRIM * scale)[0]
    return c[: keep[-1] + 1] if keep.size else np.zeros(1, dtype=complex)


def _horner(desc: list, mu: complex) -> complex:
    """Descending coefficients `desc` at mu, in numpy polyval's operation order."""
    acc = desc[0] + mu * 0
    for c in desc[1:]:
        acc = c + acc * mu
    return acc


class RationalFunction:
    """num(mu)/den(mu), coefficients ascending in mu."""

    def __init__(self, num, den):
        self.num = _trim(num)
        self.den = _trim(den)
        self._den_scale = float(np.max(np.abs(self.den)))
        if self._den_scale == 0.0:
            raise ZeroDivisionError("zero denominator polynomial")
        self._num_desc = [complex(z) for z in self.num[::-1]]
        self._den_desc = [complex(z) for z in self.den[::-1]]

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
        return RationalFunction([x, 1.0], [1.0, x])

    @property
    def degree(self) -> int:
        return max(self.num.size, self.den.size) - 1

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(np.convolve(self.num, other.num),
                                np.convolve(self.den, other.den))

    def evaluate(self, mu: complex, pole_tol: float = 1e-12) -> complex:
        mu = complex(mu)
        den = _horner(self._den_desc, mu)
        scale = self._den_scale * max(1.0, abs(mu)) ** (self.den.size - 1)
        if abs(den) <= pole_tol * scale:
            nearest = min(self.poles(), key=lambda p: abs(p - mu), default=mu)
            raise PoleError(f"evaluation at mu={mu} hits a pole near {nearest}", pole=nearest)
        return _horner(self._num_desc, mu) / den

    def poles(self) -> list:
        if self.den.size <= 1:
            return []
        return [complex(z) for z in np.polynomial.polynomial.polyroots(self.den)]

    def __repr__(self):
        return f"RationalFunction(num={list(self.num)}, den={list(self.den)})"
