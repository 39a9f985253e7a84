"""Exception hierarchy.

Two broad families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` covers malformed input and violated preconditions,
while ``OutcomeError`` covers computations that ran correctly but could
not deliver the requested object (a failed construction, an exhausted
search).  Negative mathematical *verdicts* (not homogeneous, not
isomorphic, genericity fails) are ordinary return values, never
exceptions.
"""


class TwoPartiteError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TwoPartiteError):
    """Malformed input or violated argument precondition."""


class MalformedInput(ValidationError):
    """Input file or raw data does not parse into a structure."""


class DuplicateVertex(ValidationError):
    """A vertex id appears twice within one side."""


class SideOverlap(ValidationError):
    """A vertex id appears on both sides."""


class SameSideEdge(ValidationError):
    """An edge joins two vertices of the same side."""


class SymmetricEdgePair(ValidationError):
    """Both (u, v) and (v, u) were supplied as edges."""


class UnknownEndpoint(ValidationError):
    """An edge endpoint is not a declared vertex."""


class UnknownVertex(ValidationError):
    """A vertex id is not part of the structure."""


class InvalidPartialMap(ValidationError):
    """A partial map violates injectivity, side preservation, or
    structure preservation on its domain."""


class InvalidRequirement(ValidationError):
    """A requirement names unknown vertices, overlapping sets, or a set
    that its mode forbids."""


class PairSizeTooSmall(ValidationError):
    """The matching/complement construction needs side size at least 2."""


class InvalidSpec(ValidationError):
    """An approximant spec violates its own constraints."""


class TargetExceedsStructure(ValidationError):
    """A back-and-forth target size exceeds what the structures can hold."""


class EnumerationBudgetExceeded(ValidationError):
    """An enumeration was refused because the state space exceeds the
    budget of labelled pairs."""


class AutGroupTooLarge(TwoPartiteError):
    """The automorphism group's order, read from its stabiliser chain,
    exceeds the cap of ``automorphisms`` or ``is_homogeneous``."""

    def __init__(self, cap: int):
        super().__init__(f"automorphism group exceeds cap of {cap} maps")
        self.cap = cap


class OutcomeError(TwoPartiteError):
    """The computation ran but could not produce the requested object."""


class ApproximantNotFound(OutcomeError):
    """No randomized attempt reached the requested extension-property
    level; ``best_level`` records the highest level any attempt passed."""

    def __init__(self, message: str, best_level: int):
        super().__init__(message)
        self.best_level = best_level


class CapExceeded(OutcomeError):
    """Witness closure hit its growth cap; ``partial`` is the structure
    built so far and ``defects`` the requirements still unwitnessed."""

    def __init__(self, message: str, partial, defects):
        super().__init__(message)
        self.partial = partial
        self.defects = tuple(defects)


class InsufficientGenericity(OutcomeError):
    """A back-and-forth step found no admissible witness; ``requirement``
    is an extension demand the structure cannot satisfy."""

    def __init__(self, message: str, requirement=None):
        super().__init__(message)
        self.requirement = requirement
