"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial is a mapping from monomials to non-zero coefficients.  A
monomial is stored as one packed integer: every variable name gets a
process-wide index the first time it is seen (registration takes a
lock), and the exponent of variable ``i`` occupies bits
``[i * FIELD_BITS, (i + 1) * FIELD_BITS)``.  The constant monomial is
``0``, and the product of two monomials is one integer addition.

The top bit of every field is a guard: exponents are at most
:data:`MAX_EXPONENT`, so two of them add without carrying into the
next variable's field, and a product that reaches a guard bit raises
:class:`ExponentOverflowError` instead of producing a monomial that
aliases another.

The packing is private to the process.  The public API speaks variable
names: ``Poly(terms)`` takes monomials as sorted tuples of
``(variable, exponent)`` pairs (the empty tuple is the constant term),
:attr:`Poly.terms` returns them in that form, and a pickled ``Poly``
carries names, so it loads in any process.  Instances are immutable and
hashable, and arithmetic promotes Python ints, so plaintext reference
kernels written with ordinary ``+ - *`` lift to symbolic form simply by
being called on arrays of :class:`Poly` (this substitutes for Rosette's
symbolic execution).
"""

from __future__ import annotations

import operator
import threading
from functools import lru_cache
from typing import Mapping

Monomial = tuple[tuple[str, int], ...]

#: bits per variable in a packed monomial, guard bit included
FIELD_BITS = 8
#: the largest exponent a monomial may carry
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


class ExponentOverflowError(ArithmeticError):
    """An exponent exceeds :data:`MAX_EXPONENT`."""


# The process-wide variable index.  Readers take no lock: an index is
# published in ``_INDEX`` only after its name and guard bit are in place.
_NAMES: list[str] = []
_INDEX: dict[str, int] = {}
_GUARD = 0  # the guard bit of every registered variable's field
_REGISTER = threading.Lock()


def _variable_index(name: str) -> int:
    index = _INDEX.get(name)
    if index is None:
        global _GUARD
        with _REGISTER:
            index = _INDEX.get(name)
            if index is None:
                index = len(_NAMES)
                _NAMES.append(name)
                _GUARD |= 1 << (index * FIELD_BITS + FIELD_BITS - 1)
                _INDEX[name] = index
    return index


def _pack(monomial: Monomial) -> int:
    packed = 0
    for name, exp in monomial:
        exp = operator.index(exp)
        if exp < 0:
            raise ValueError(f"exponent of {name!r} must be a non-negative int")
        if exp > MAX_EXPONENT:
            raise ExponentOverflowError(
                f"exponent {exp} of {name!r} exceeds {MAX_EXPONENT}"
            )
        shift = _variable_index(name) * FIELD_BITS
        packed += exp << shift
        if (packed >> shift) & _FIELD_MASK > MAX_EXPONENT:
            raise ExponentOverflowError(
                f"repeated variable {name!r} exceeds exponent {MAX_EXPONENT}"
            )
    return packed


@lru_cache(maxsize=1 << 14)
def _unpack(packed: int) -> Monomial:
    """The ``(variable, exponent)`` pairs of a packed monomial, by name."""
    pairs = []
    while packed:
        index = ((packed & -packed).bit_length() - 1) // FIELD_BITS
        shift = index * FIELD_BITS
        exp = (packed >> shift) & _FIELD_MASK
        pairs.append((_NAMES[index], exp))
        packed -= exp << shift
    return tuple(sorted(pairs))


def _check_headroom(terms: dict[int, int]) -> None:
    guard = _GUARD
    for mono in terms:
        if mono & guard:
            raise ExponentOverflowError(
                f"a product exceeds exponent {MAX_EXPONENT}"
            )


class Poly:
    """An immutable multivariate polynomial over the integers."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned: dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    packed = _pack(mono)
                    new = cleaned.get(packed, 0) + coeff
                    if new:
                        cleaned[packed] = new
                    else:
                        del cleaned[packed]
        self._terms = cleaned
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(value: int) -> "Poly":
        if value == 0:
            return _ZERO
        return _wrap({0: value})

    @staticmethod
    def var(name: str) -> "Poly":
        return _wrap({1 << (_variable_index(name) * FIELD_BITS): 1})

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        return {_unpack(mono): coeff for mono, coeff in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == 0 for mono in self._terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get(0, 0)

    def degree(self) -> int:
        return max(
            (sum(exp for _, exp in _unpack(mono)) for mono in self._terms),
            default=0,
        )

    def variables(self) -> set[str]:
        union = 0
        for mono in self._terms:
            union |= mono
        # an OR of fields is non-zero exactly where some exponent is
        return {name for name, _ in _unpack(union)}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly | int") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self._terms, other._terms, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _wrap({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self._terms, other._terms, -1)

    def __rsub__(self, other: "Poly | int") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "Poly | int") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        terms: dict[int, int] = {}
        get = terms.get
        right = other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in right:
                mono = m1 + m2
                terms[mono] = get(mono, 0) + c1 * c2
        # two in-range exponents never carry, so a field past the limit
        # shows as its guard bit (checked before cancelled terms go)
        _check_headroom(terms)
        if 0 in terms.values():
            terms = {mono: coeff for mono, coeff in terms.items() if coeff}
        return _wrap(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = Poly.const(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with every variable bound to an integer."""
        total = 0
        for mono, coeff in self._terms.items():
            value = coeff
            for name, exp in _unpack(mono):
                value *= env[name] ** exp
            total += value
        return total

    def substitute(self, env: Mapping[str, "Poly | int"]) -> "Poly":
        """Replace some variables by polynomials or constants."""
        total = _ZERO
        for mono, coeff in self._terms.items():
            value = Poly.const(coeff)
            for name, exp in _unpack(mono):
                replacement = env.get(name)
                if replacement is None:
                    factor = Poly({((name, exp),): 1})
                else:
                    factor = _coerce(replacement) ** exp
                value = value * factor
            total = total + value
        return total

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __reduce__(self):
        return (Poly, (self.terms,))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factors = [
                name if exp == 1 else f"{name}^{exp}" for name, exp in mono
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly.const(value)
    try:
        # numpy integer scalars
        import numpy as np

        if isinstance(value, np.integer):
            return Poly.const(int(value))
    except ImportError:  # pragma: no cover
        pass
    return NotImplemented


def _combine(left: dict[int, int], right: dict[int, int], sign: int) -> Poly:
    """``left + sign * right``."""
    terms = dict(left)
    get = terms.get
    for mono, coeff in right.items():
        new = get(mono, 0) + sign * coeff
        if new:
            terms[mono] = new
        else:
            del terms[mono]
    return _wrap(terms)


def _wrap(terms: dict[int, int]) -> Poly:
    poly = Poly.__new__(Poly)
    poly._terms = terms
    poly._hash = None
    return poly


_ZERO = Poly()


def poly_vector(prefix: str, count: int) -> list[Poly]:
    """Fresh variables ``prefix[0] .. prefix[count-1]``."""
    return [Poly.var(f"{prefix}[{i}]") for i in range(count)]
