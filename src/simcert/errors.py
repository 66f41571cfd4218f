"""Exception and warning types shared across the toolkit."""


class SimcertError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SimcertError):
    """Matrix or signal dimensions are inconsistent."""


class Infeasible(SimcertError):
    """A synthesis or composition step has no solution."""


class DomainError(SimcertError):
    """A bound query lies outside the admissible parameter domain."""


class PreconditionViolated(SimcertError):
    """A result was requested whose hypotheses the certificate does not satisfy."""


class SchemaError(SimcertError):
    """A project file is malformed or contains unresolvable references."""


class RankDeficientWarning(UserWarning):
    """B lacks full column rank; a minimum-norm structural solution was returned."""


class SingularGramWarning(UserWarning):
    """B'MB is singular; the input-matching gain fell back to a pseudo-inverse."""
