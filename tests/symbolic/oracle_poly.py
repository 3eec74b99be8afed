"""Oracle for :mod:`repro.symbolic.polynomial`: the dict-of-tuples Poly.

The straightforward representation the packed one replaced: a mapping
from monomials to coefficients, where a monomial is a sorted tuple of
``(variable, exponent)`` pairs (the empty tuple is the constant term)
and a product of monomials merges two dicts and sorts.  It has no
exponent limit and no process-wide state, which is what makes it a
trustworthy reference for the packed implementation's answers.
"""

from __future__ import annotations

from typing import Iterable, Mapping

Monomial = tuple[tuple[str, int], ...]


class Poly:
    """An immutable multivariate polynomial over the integers."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    cleaned[mono] = coeff
        self._terms = cleaned
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(value: int) -> "Poly":
        if value == 0:
            return _ZERO
        return Poly({(): value})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): 1})

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get((), 0)

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(
            (sum(exp for _, exp in mono) for mono in self._terms), default=0
        )

    def variables(self) -> set[str]:
        names: set[str] = set()
        for mono in self._terms:
            for name, _ in mono:
                names.add(name)
        return names

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly | int") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _wrap({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

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
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                new = terms.get(mono, 0) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    del terms[mono]
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
            base = base * base
            exponent >>= 1
        return result

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with every variable bound to an integer."""
        total = 0
        for mono, coeff in self._terms.items():
            value = coeff
            for name, exp in mono:
                value *= env[name] ** exp
            total += value
        return total

    def substitute(self, env: Mapping[str, "Poly | int"]) -> "Poly":
        """Replace some variables by polynomials or constants."""
        total = _ZERO
        for mono, coeff in self._terms.items():
            value = Poly.const(coeff)
            for name, exp in mono:
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
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items()):
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


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[str, int] = dict(m1)
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


def _wrap(terms: dict[Monomial, int]) -> Poly:
    poly = Poly.__new__(Poly)
    poly._terms = terms
    poly._hash = None
    return poly


_ZERO = Poly()


def poly_vector(prefix: str, count: int) -> list[Poly]:
    """Fresh variables ``prefix[0] .. prefix[count-1]``."""
    return [Poly.var(f"{prefix}[{i}]") for i in range(count)]
