"""Exception types raised across the toolkit.

One class per failure a caller handles differently: data or a model that
leaves the theory (not hyperbolic, out of the box, a field neither GNL nor
LD, a blow-up), or a solver that cannot follow it.  An argument or setting
that a call refuses is a ConfigError, whatever the call.  All inherit from
HyperlabError so the CLI can map them to exit codes.
"""


class HyperlabError(Exception):
    pass


class ConfigError(HyperlabError):
    """An argument or setting the call refuses (a bad model string, malformed
    data, a dt above the CFL limit, a jump off its shock curve, ...): fix the
    call."""


class NonHyperbolic(HyperlabError):
    """Complex or coincident eigenvalues beyond tolerance."""


class OutOfDomain(HyperlabError):
    """State outside the model's admissible box."""


class ContinuationFailure(HyperlabError):
    """A Lax curve was not followed: the shock-curve continuation stalled
    (left the domain or lost hyperbolicity), or the steps of a rarefaction
    do not resolve it."""


class NewtonDivergence(HyperlabError):
    """A Newton did not converge: a strength or RH Newton (a fan is judged on
    its result), or backward Euler's implicit step, singular or stalled."""


class NonClassifiedField(HyperlabError):
    """A characteristic field is neither genuinely nonlinear nor linearly degenerate."""


class NotGenuinelyNonlinear(HyperlabError):
    pass


class SpeedRangeViolation(HyperlabError):
    """A speed of the data lies outside a scheme's window or outside [-M, M]."""


class NonfiniteState(HyperlabError):
    """A run produced NaN/inf cell states (blow-up detection)."""


class FrontExplosion(HyperlabError):
    """Front count exceeded front_cap, or event count 20 * front_cap."""


class BlowupBeforeRestart(HyperlabError):
    """Classical solution would lose smoothness before the next restart."""

    def __init__(self, message, t_blowup=None):
        super().__init__(message)
        self.t_blowup = t_blowup


class OracleUnavailable(HyperlabError):
    pass
