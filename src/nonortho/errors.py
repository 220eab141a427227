"""Exception types shared across the package."""


class NonorthoError(ValueError):
    """Base class for all validation and domain errors raised here."""


class LinearDependence(NonorthoError):
    """An overlap magnitude is >= 1, so a component pair is not a basis."""


class NotNormalized(NonorthoError):
    """State norm differs from 1 beyond tolerance, unrescaled or after rescaling."""


class ZeroState(NonorthoError):
    """Both amplitudes vanish; no state is defined."""


class PhaseUndefined(NonorthoError):
    """A phase combination was requested but one of its factors is zero."""


class NonHermitianDrift(NonorthoError):
    """An expectation value that must be real acquired a large imaginary part."""


class DomainError(NonorthoError):
    """A numeric argument lies outside its documented domain."""


class NoCompatibleNu(NonorthoError):
    """No second amplitude magnitude satisfies the normalization constraint."""


class SingularNorm(NonorthoError):
    """The overall intensity factor is singular for this CP parameter."""


class WitnessUnverified(NonorthoError):
    """A feasibility witness state could not be built or validated in double precision."""
