"""Exception types shared across the package."""


class CapmatchError(Exception):
    """Base class for all library errors."""


class ParseError(CapmatchError):
    """Input text is malformed (reported with a line number where possible)."""


class ValidationError(CapmatchError):
    """Structured input violates a model invariant."""


class UnmatchableAgent(CapmatchError):
    """An agent with an empty preference list can never be matched."""


class InvalidMatching(CapmatchError):
    """Matching uses a non-edge or exceeds a quota it must respect."""


class NotEnvyFree(CapmatchError):
    """Input matching admits an envy pair."""


class PreconditionViolated(CapmatchError):
    """Solver precondition does not hold for this instance."""


class InvariantBroken(CapmatchError):
    """A solver's internal invariant or step budget failed: a bug, not bad input."""


class InstanceTooLarge(CapmatchError):
    """A brute-force search space or a reduced instance exceeds its limit."""


class InvalidParams(CapmatchError):
    """Generator parameters out of range."""


class UncoverableElement(CapmatchError):
    """Set-cover universe contains an element no set covers."""
