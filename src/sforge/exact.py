"""Exact rationals for the certificates: argument coercion, certified ln 2
bounds and the cached log2 bracket, in a module of their own so that the
``boolean`` and ``bounds`` commands compile no ``spread.py``."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError


def _as_fraction(value, name: str) -> Fraction:
    """``value`` as an exact Fraction; floats and non-rationals are refused."""
    if isinstance(value, float):
        raise PreconditionError(
            f"{name} must be exact (int, Fraction, or string), not a float", value=value
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"{name} is not a rational number: {value!r}") from exc


# Certified: 0.693147 < ln 2 < 0.693148.
_LN2_LO = Fraction(693147, 1_000_000)
_LN2_HI = Fraction(693148, 1_000_000)

_GRID = 192  # bracket endpoints live on the grid 2^-_GRID


def frac_log2_bracket(x: Fraction, steps: int = 48) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo <= log2(x) <= hi, via digit extraction.

    Interval endpoints are rounded outward to a fixed 192-bit grid at each
    squaring, so the bracket stays sound and the integers stay small.  Each
    endpoint is an integer numerator over 2^(_GRID + h), where h is the last
    digit (a 1 halves both endpoints); only the result is built as Fractions.

    Results are cached per process under x's lowest-terms numerator and
    denominator and ``steps``, three ints, so equal arguments of any type
    share one entry and a warm call hashes no Fraction; the pair is
    immutable.  A refused x (x <= 0) raises and is not cached.
    """
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    return _log2_bracket(x.numerator, x.denominator, steps)


@lru_cache(maxsize=4096)
def _log2_bracket(num: int, den: int, steps: int) -> tuple[Fraction, Fraction]:
    if num <= 0:
        raise PreconditionError("log2 argument must be positive", x=str(Fraction(num, den)))
    e = num.bit_length() - den.bit_length()
    if (num << max(-e, 0)) < (den << max(e, 0)):
        e -= 1
    p, q = num << max(-e, 0), den << max(e, 0)  # x / 2^e = p / q in [1, 2)
    if p == q:  # x = 2^e: every digit is 0
        return Fraction(e), e + Fraction(1, 1 << steps)
    two = 2 << _GRID
    digits = h = 0
    for i in range(steps):
        if i == 0:
            lo, r = divmod((p * p) << _GRID, q * q)
            hi = lo + (r > 0)
        else:
            shift = _GRID + 2 * h
            lo = (lo * lo) >> shift
            hi = -((-hi * hi) >> shift)
        h = int(lo >= two)
        if h != (hi >= two):
            # endpoints disagree; the bracket cannot be tightened further
            return e + Fraction(digits, 1 << i), e + Fraction(digits + 1, 1 << i)
        digits = 2 * digits + h
    # the remaining fractional part is below one more digit
    return e + Fraction(digits, 1 << steps), e + Fraction(digits + 1, 1 << steps)


frac_log2_bracket.cache_info = _log2_bracket.cache_info
frac_log2_bracket.cache_clear = _log2_bracket.cache_clear
