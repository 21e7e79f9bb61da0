"""Exception types shared across the workbench."""


class IsgwError(Exception):
    """Base class for all workbench errors."""


class NotAssociative(IsgwError):
    """A multiplication table failed the associativity check."""


class NotInverse(IsgwError):
    """The structure is not an inverse semigroup (inverse uniqueness or
    commuting-idempotents failed)."""


class NotHomomorphism(IsgwError):
    """A claimed semigroup map does not respect products or zero."""


class NotCongruence(IsgwError):
    """A partition is not compatible with multiplication."""


class NotIdeal(IsgwError):
    """A subset is not a two-sided ideal."""


class NotInvariant(IsgwError):
    """A unit set or vertex set is not invariant under the relevant action."""


class NotHereditary(IsgwError):
    """A vertex set is not hereditary."""


class DomainViolation(IsgwError):
    """A partial action was applied outside its domain."""


class Overflow(IsgwError):
    """A truncated model was asked for a product beyond its depth bound."""


class CapExceeded(IsgwError):
    """A closure or enumeration exceeded its hard element cap."""


class ParseError(IsgwError):
    """Malformed input document."""


class DanglingEndpoint(IsgwError):
    """An edge references a vertex outside the graph."""


class InternalContract(IsgwError):
    """An internal invariant of one computation failed; this is a bug."""


class AxiomViolation(IsgwError):
    """A self-similar action table violates one of the defining axioms."""

    def __init__(self, axiom: str, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} violated at {witness!r}")
