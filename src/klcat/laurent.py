"""Exact integer Laurent polynomials in a single variable.

A polynomial is stored sparsely as a map ``{exponent: coefficient}`` with
zero coefficients pruned eagerly, so two values are equal exactly when
their coefficient maps are equal.  Coefficients are Python ints, hence
arbitrary precision; overflow cannot happen by construction.

The variable is written ``v`` everywhere, but nothing depends on the name:
the same type carries classical polynomials in ``q`` (see
:func:`klcat.kl.to_classical`), with ``render`` choosing the symbol.
"""

from __future__ import annotations

from typing import Mapping


class LaurentPoly:
    """A sparse integer Laurent polynomial.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    True
    >>> LaurentPoly({1: 1}) + LaurentPoly({1: -1})
    LaurentPoly({})
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._coeffs: dict[int, int] = (
            {int(e): c for e, c in coeffs.items() if c} if coeffs else {}
        )

    # -- construction helpers ------------------------------------------

    @classmethod
    def _from_pruned(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """Wrap ``coeffs`` as is: the caller guarantees int keys and no zero value.

        Only for dicts that are pruned by construction (a shift, bar or
        negation of a pruned dict, or a pruned term tuple); sums and
        products can cancel and go through the pruning constructor.
        """
        p = object.__new__(cls)
        p._coeffs = coeffs
        return p

    # -- queries --------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        """The integer coefficient of ``v^exponent`` (0 when absent).

        >>> LaurentPoly({3: 1, 1: 1}).coefficient(1)
        1
        >>> LaurentPoly({3: 1, 1: 1}).coefficient(0)
        0
        """
        return self._coeffs.get(exponent, 0)

    def items(self) -> list[tuple[int, int]]:
        """Terms as ``(exponent, coefficient)`` pairs, ascending exponent."""
        return sorted(self._coeffs.items())

    def exponents(self) -> list[int]:
        return sorted(self._coeffs)

    def in_positive_part(self) -> bool:
        """True iff every exponent is >= 1 (vacuously true for 0).

        >>> LaurentPoly({1: 1, 3: 1}).in_positive_part()
        True
        >>> LaurentPoly({0: 1, 1: 1}).in_positive_part()
        False
        """
        return all(e >= 1 for e in self._coeffs)

    def is_nonnegative(self) -> bool:
        """True iff every coefficient is >= 0."""
        return all(c >= 0 for c in self._coeffs.values())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_pruned({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    def __rmul__(self, other: int) -> "LaurentPoly":
        return self.__mul__(other)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``v^k``.

        >>> LaurentPoly({0: 1, 2: 1}).shift(-1) == LaurentPoly({-1: 1, 1: 1})
        True
        """
        return LaurentPoly._from_pruned({e + k: c for e, c in self._coeffs.items()})

    def add_to(self, acc: dict[int, int], shift: int = 0, factor: int = 1) -> None:
        """Add ``factor * v^shift * self`` into an ``{exponent: coefficient}`` dict, in place.

        A long sum accumulated this way builds its ``LaurentPoly`` once, at
        the end, instead of once per term.

        >>> acc = {1: 1}
        >>> LaurentPoly({0: 2, 2: 1}).add_to(acc, 1, -1)
        >>> LaurentPoly(acc)
        LaurentPoly({1: -1, 3: -1})
        """
        get = acc.get
        for e, c in self._coeffs.items():
            e += shift
            acc[e] = get(e, 0) + factor * c

    def bar(self) -> "LaurentPoly":
        """The involution ``v -> v^-1``: negate every exponent.

        >>> LaurentPoly({2: 1, -1: 1}).bar() == LaurentPoly({-2: 1, 1: 1})
        True
        >>> p = LaurentPoly({5: 3})
        >>> p.bar().bar() == p
        True
        """
        return LaurentPoly._from_pruned({-e: c for e, c in self._coeffs.items()})

    # -- value semantics --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {c}" for e, c in self.items())
        return "LaurentPoly({%s})" % inner

    def __str__(self) -> str:
        return self.render("v")

    def render(self, var: str = "v") -> str:
        """Render as ``c1*v^e1+c2*v^e2+...`` in increasing exponent order.

        >>> LaurentPoly({1: 1, 3: 1}).render()
        '1*v^1+1*v^3'
        >>> LaurentPoly({0: 1, 2: -1}).render("q")
        '1*q^0-1*q^2'
        >>> LaurentPoly().render()
        '0'
        """
        if not self._coeffs:
            return "0"
        out = "+".join(f"{c}*{var}^{e}" for e, c in self.items())
        return out.replace("+-", "-")

    # -- JSON wire format -------------------------------------------------

    def to_json_obj(self) -> dict[str, int]:
        """Map from exponent (decimal string) to coefficient; ``{}`` is zero."""
        return {str(e): c for e, c in self.items()}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, int]) -> "LaurentPoly":
        """Decode exactly what :meth:`to_json_obj` writes.

        Every key must be a canonical decimal exponent (``"2"``, not
        ``" +2 "`` or ``"0_2"``) and every coefficient a nonzero JSON
        integer (no floats, no booleans); anything else raises ValueError.

        >>> LaurentPoly.from_json_obj({"-1": 2, "3": -1}) == LaurentPoly({-1: 2, 3: -1})
        True
        """
        coeffs = {}
        for key, c in obj.items():
            e = int(key)
            if str(e) != key or type(c) is not int or not c:
                raise ValueError(f"bad polynomial term {key!r}: {c!r}")
            coeffs[e] = c
        return cls(coeffs)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
V_INV = LaurentPoly({-1: 1})


def v_power(exponent: int, coefficient: int = 1) -> LaurentPoly:
    """The monomial ``coefficient * v^exponent``."""
    return LaurentPoly({exponent: coefficient})
