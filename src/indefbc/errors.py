"""Exception types raised across the package."""


class IndefbcError(Exception):
    """Base class for all package errors."""


class ResolutionTooSmall(IndefbcError):
    """Boundary resolution below the minimum for the domain kind."""


class ShapeMismatch(IndefbcError):
    """Trace length does not match the owning domain."""


class SpectralParameterOutOfRange(IndefbcError):
    """Helmholtz parameter at or above the first interior Dirichlet eigenvalue."""


class RootNotBracketed(IndefbcError):
    """Safeguarded root search exhausted its window without a sign change."""


class ResidualAboveTolerance(IndefbcError):
    """A solved eigenpair's residual is non-finite or above its tolerance."""


class PencilNotPositiveDefinite(IndefbcError):
    """The coercive part of an eigenvalue pencil failed its definiteness check."""


class NonpositiveEOrG(IndefbcError):
    """Fibering-map projection requires both quadratic and superlinear parts positive."""


class InitNotProjectable(NonpositiveEOrG):
    """Initial trace cannot be projected onto the Nehari manifold."""


class MaxIterations(IndefbcError):
    """Iteration budget exhausted before reaching tolerance."""


class SingularJacobian(IndefbcError):
    """Newton linearization is numerically singular."""


class LeftPositiveCone(IndefbcError):
    """Newton iterate left the positive cone and damping did not recover."""


class CorrectorDivergence(IndefbcError):
    """Arclength corrector failed to converge."""


class DeltaBelowThreshold(IndefbcError):
    """Family parameter delta not strictly above its critical value."""


class EmptyBranch(IndefbcError):
    """An operation requiring branch samples received none."""


class InsufficientSamples(IndefbcError):
    """Not enough samples for a fit."""


class UnsupportedExponent(IndefbcError):
    """Exponent outside the range the 1D enumeration supports."""


class NonpositiveLambdaPoint(IndefbcError):
    """Transform requires every branch point to have a positive parameter."""


class UNotAboveOne(IndefbcError):
    """Logistic transform produced a state not strictly above one."""


class ConfigError(IndefbcError):
    """Run configuration could not be parsed or validated."""
