"""Exception hierarchy shared across the package.

Every domain failure derives from ChainsurgError so the CLI can map it
to exit code 1 with a machine-readable payload.
"""
from __future__ import annotations


class ChainsurgError(Exception):
    """Base class for all domain errors raised by this package."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class DimensionMismatch(ChainsurgError):
    pass


class MalformedInput(DimensionMismatch):
    """An input file is unreadable or does not follow its documented format.

    ``section`` names the part of the file at fault when the parser knows
    it; the CLI fills in ``file``. Both are added to the JSON payload.
    """

    def __init__(self, message: str, section: str | None = None, file: str | None = None):
        super().__init__(message)
        self.section = section
        self.file = file

    def payload(self) -> dict:
        out = super().payload()
        for key in ("file", "section"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


class SingularMatrix(ChainsurgError):
    pass


class NotContained(ChainsurgError):
    """A subspace that was required to contain another does not."""


class NonZeroComposition(ChainsurgError):
    """Boundary maps do not compose to zero."""


class SquareDoesNotCommute(ChainsurgError):
    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or f"chain-map square at degree {degree} does not commute")


class NonCommutingChecks(ChainsurgError):
    """hx @ hz.T != 0: the X and Z checks do not commute."""


class ClosureViolated(ChainsurgError):
    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or f"boundary of degree-{degree} generators leaves the subcode")


class NotSurjective(ChainsurgError):
    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or f"map at degree {degree} is not surjective")


class AncillaDistanceTooSmall(ChainsurgError):
    pass


class DecompositionInfeasible(ChainsurgError):
    pass


class EmptyOverlap(ChainsurgError):
    """Dual logical representatives failed to overlap; signals basis corruption."""


class ZeroProbabilityOutcome(ChainsurgError):
    """A post-selected measurement branch has amplitude zero."""


class CorrectionUnavailable(ChainsurgError):
    """No correction exists for these outcomes: a slot gauge's class has no rule, or they are not valid."""


class UnknownExample(ChainsurgError):
    pass
