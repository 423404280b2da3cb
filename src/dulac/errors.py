"""Exception hierarchy shared by every dulac module.

Every exception message should name the operation that failed and the
offending datum, so that CLI users can act on it without a traceback.

Each class carries the CLI exit code it maps to in exit_code: 2 (structural
hypothesis violated) unless a class below says otherwise, 3 for a resonance,
4 for an undecidable comparison and 5 for malformed input.
"""


class DulacError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class SchemaError(DulacError):
    """A JSON document does not match the expected layout."""

    exit_code = 5


class UndecidableComparison(DulacError):
    """An exponent enclosure, whose radius the decimal basis literals fix,
    contains zero.

    Either two basis entries are too close to separate with the digits
    supplied, or the declared rational independence of the basis is broken.
    """

    exit_code = 4


class BasisMismatch(DulacError):
    """Operands live over different exponent bases, or an embedding of the
    rational number 1 was required and the basis does not provide one."""


class CutoffIncrease(DulacError):
    """truncate() was asked to raise a cutoff, which would claim knowledge
    of terms that were never computed."""


class NonpositiveValuation(DulacError):
    """A series that must start at a positive exponent does not."""


class DomainError(DulacError):
    """Argument outside the supported domain (e.g. gamma_abs with Re z <= 0,
    or s = +inf where tau = (n - ell) s must be finite), or an artifact value
    outside the double range, which JSON cannot hold."""


class HypothesisViolation(DulacError):
    """The structural hypotheses on the linearized equation fail: the leading
    coefficient of some y_j-derivative is not constant, or a secondary
    exponent does not exceed the leading one in real part."""


class AllDerivativesVanish(DulacError):
    """Every partial derivative of F vanishes along the prefix; there is no
    linearization to extract."""


class DerivativeYnZeroWarning(UserWarning):
    """The derivative with respect to the top-order variable vanishes below
    the cutoff.  The truncated data cannot distinguish this from a genuinely
    degenerate equation, so it is reported as a warning."""

    exit_code = 2


class Resonance(DulacError):
    """The characteristic polynomial vanishes at a required exponent, so the
    coefficient recursion has no unique polynomial solution there."""

    exit_code = 3

    def __init__(self, message: str, exponent=None):
        super().__init__(message)
        self.exponent = exponent


class NonProgressingResidual(DulacError):
    """The next exponent produced by the residual does not strictly increase,
    so the extension loop would not make progress."""


class LinearDataDrift(DulacError):
    """The extracted linearization changed after extending the solution and
    did not stabilize after one adaptive restart."""


class IndeterminateRoot(DulacError):
    """A root of the characteristic polynomial sits within the indeterminacy
    band around the boundary; more precision is needed or the configuration
    is genuinely resonant."""

    exit_code = 4


class SlopeUndetermined(DulacError):
    """No secondary exponents beyond the characteristic degree are available,
    so the growth slope cannot be computed from the data."""


class DependentGenerators(DulacError):
    """The proposed semigroup generators admit an integer linear relation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonpositiveRealPart(DulacError):
    """A semigroup generator must have strictly positive real part."""


class ExponentOutsideSemigroup(DulacError):
    """An exponent gap does not decompose over the declared generators."""


class PreconditionViolated(DulacError):
    """A norm-estimate check was invoked outside its hypotheses."""


class ExactValueRequired(DulacError):
    """The operation needs the exact complex value of an exponent, but the
    basis entries involved are only known approximately."""

    exit_code = 4
