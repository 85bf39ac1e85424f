"""Exception catalog shared by every module in the package.

Everything derives from FqidtestError so callers can catch broadly.
TheoremViolation is special: it marks a proven inequality failing at
runtime, which always means an implementation bug, and the command line
driver turns it into its own exit code.
"""

from __future__ import annotations


class FqidtestError(Exception):
    """Base class for all errors raised by this package."""


# field construction and arithmetic


class NotPrime(FqidtestError):
    def __init__(self, p: int):
        super().__init__(f"{p} is not prime")
        self.p = p


class ReducibleModulus(FqidtestError):
    def __init__(self, modulus):
        super().__init__(f"modulus with coefficients {tuple(modulus)} is not irreducible")
        self.modulus = tuple(modulus)


class NoDefaultModulus(FqidtestError):
    def __init__(self, q: int):
        super().__init__(f"no default modulus stored for field order {q}; pass one explicitly")
        self.q = q


class DivisionByZero(FqidtestError):
    def __init__(self):
        super().__init__("division by zero in a finite field")


# polynomial text and structure


class ParseError(FqidtestError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(FqidtestError):
    def __init__(self, name: str, position: int = -1):
        super().__init__(f"unknown variable {name!r}")
        self.name = name
        self.position = position


class ConstantTermForbidden(FqidtestError):
    def __init__(self):
        super().__init__("polynomials in the free language have no constant term")


class NestingTooDeep(FqidtestError):
    def __init__(self, limit: int, position: int | None = None):
        where = "" if position is None else f" (at position {position})"
        super().__init__(f"terms and text may nest at most {limit} levels deep{where}")
        self.limit = limit
        self.position = position


class ZeroPolynomial(FqidtestError):
    def __init__(self, what: str = "degree"):
        super().__init__(f"the zero polynomial has no {what}")


# algebra construction and subspace work


class ShapeMismatch(FqidtestError):
    pass


class DimensionMismatch(FqidtestError):
    pass


class FieldMismatch(FqidtestError):
    pass


class FlavorMismatch(FqidtestError):
    pass


class LieAxiomViolation(FqidtestError):
    def __init__(self, axiom: str, indices):
        super().__init__(f"{axiom} fails on basis indices {tuple(indices)}")
        self.axiom = axiom
        self.indices = tuple(indices)


class NotAnIdeal(FqidtestError):
    pass


class NotNested(FqidtestError):
    pass


class UnknownBuilder(FqidtestError):
    def __init__(self, name: str):
        super().__init__(f"unknown builtin algebra {name!r}")
        self.name = name


# identity testing


class NotMultilinear(FqidtestError):
    def __init__(self, poly: str):
        super().__init__(f"descent needs a multilinear polynomial, got {poly}")
        self.poly = poly


class WitnessInvalid(FqidtestError):
    pass


class NotALieAlgebra(FqidtestError):
    def __init__(self, name: str):
        super().__init__(f"the Engel word needs a bracket table, and {name} has none")
        self.name = name


class NotEnoughVariables(FqidtestError):
    pass


# resource limits


class SearchSpaceTooLarge(FqidtestError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"search space of size {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class BudgetExceeded(FqidtestError):
    def __init__(self, message: str):
        super().__init__(message)


class TheoremViolation(FqidtestError):
    """A proven bound failed on concrete data.  Always an implementation bug."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
