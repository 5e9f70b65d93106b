"""Exception types raised across the toolkit.

Every failure mode that callers are expected to handle gets its own class;
all inherit from HyperlabError so the CLI can map them to exit codes.
"""


class HyperlabError(Exception):
    pass


class ConfigError(HyperlabError):
    """Invalid run configuration (bad model string, malformed data, ...)."""


class NonHyperbolic(HyperlabError):
    """Complex or coincident eigenvalues beyond tolerance."""


class OutOfDomain(HyperlabError):
    """State outside the model's admissible box."""


class MissingEntropyPair(HyperlabError):
    pass


class ContinuationFailure(HyperlabError):
    """A Lax curve was not followed: the shock-curve continuation stalled
    (left the domain or lost hyperbolicity), or the steps of a rarefaction
    do not resolve it."""


class NewtonDivergence(HyperlabError):
    """A strength or RH Newton did not converge; a fan is judged on its result."""


class NonClassifiedField(HyperlabError):
    """A characteristic field is neither genuinely nonlinear nor linearly degenerate."""


class NotGenuinelyNonlinear(HyperlabError):
    pass


class NotOnShockCurve(HyperlabError):
    pass


class RHViolated(HyperlabError):
    """A jump handed in as a shock does not satisfy the jump conditions."""


class SpeedRangeViolation(HyperlabError):
    """A speed of the data lies outside a scheme's window or outside [-M, M]."""


class NonfiniteState(HyperlabError):
    """A run produced NaN/inf cell states (blow-up detection)."""


class RiemannFailure(HyperlabError):
    """System front tracking was called without field classes."""


class FrontExplosion(HyperlabError):
    """Front count exceeded front_cap, or event count 20 * front_cap."""


class CFLViolation(HyperlabError):
    pass


class SubcharacteristicViolation(HyperlabError):
    """Relaxation speed a^2 below the squared characteristic speeds."""


class NewtonFailure(HyperlabError):
    """Backward Euler's whole-grid Newton step is singular or stalled."""


class BlowupBeforeRestart(HyperlabError):
    """Classical solution would lose smoothness before the next restart."""

    def __init__(self, message, t_blowup=None):
        super().__init__(message)
        self.t_blowup = t_blowup


class QuadratureUnderResolved(HyperlabError):
    """Test-function scale below the resolution of the stored solution."""


class OracleUnavailable(HyperlabError):
    pass


class DegenerateData(HyperlabError):
    """Not enough (or unusable) points for a rate fit."""
