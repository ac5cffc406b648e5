"""Exception hierarchy shared by all psifoc modules.

Every domain error derives from :class:`PsifocError`, so callers (notably
the CLI) can map any library failure to a single diagnostic path.
"""

from __future__ import annotations


class PsifocError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(PsifocError, ZeroDivisionError):
    """Division by an exact zero scalar or rational function."""


class MixedFieldTags(PsifocError):
    """A custom family table mixes rationals with rational functions."""


class PoleAtPoint(PsifocError):
    """Evaluation of a rational function at a zero of its denominator."""


class InadmissibleFamily(PsifocError):
    """A weight family produced a zero integer for n >= 1, or a custom
    table was accessed past its end."""


class NegativeIndex(PsifocError):
    """A falling-factorial product would index the family below zero."""


class NonInvertibleDenominator(PsifocError):
    """An operator binomial denominator has a vanishing eigenvalue."""

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


class DegreeOutOfRange(PsifocError):
    """Monomial degree beyond the truncation of a diagonal operator."""


class DimensionMismatch(PsifocError):
    """Matrix or operator shapes do not line up."""


class DeformationMismatch(PsifocError):
    """Quantum-plane polynomials with different deformation scalars."""


class UnsupportedField(PsifocError):
    """Subspace counting requested over an unsupported field size."""


class SizeTooLarge(PsifocError):
    """Subspace counting requested beyond the enumerable bounds."""


class InvalidFamilyFile(PsifocError):
    """A custom family table file is missing or malformed."""


class ParseError(PsifocError):
    """Command line input that does not match the grammar.

    ``position`` is the index into argv of the offending token (None when
    the input ended early) and ``expected`` names what would have been
    accepted there.
    """

    def __init__(self, message: str, position: int | None = None,
                 expected: tuple[str, ...] = ()):
        detail = message
        if position is not None:
            detail += f" (at argument {position})"
        if expected:
            detail += "; expected " + " | ".join(expected)
        super().__init__(detail)
        self.position = position
        self.expected = expected
