"""Exception types shared across the package."""


class LyaError(Exception):
    """Base class for every error raised by this package."""


class InputError(LyaError):
    """Malformed input: bad file contents, dimension mismatches, unknown names."""


class MathError(LyaError):
    """Mathematical rejection: the supplied data fails a required property.

    Carries an optional ``witness`` (JSON-serializable) pointing at the
    offending basis tuple, vector, or matrix.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class AxiomError(MathError):
    """Candidate structure constants violate the algebra axioms.

    Carries ``failures``, the nonempty tuple of axiom failures that
    ``lyalg.check_axioms`` returns; the message names the first.
    """

    def __init__(self, failures):
        first = failures[0]
        super().__init__(
            f"axiom {first.axiom} fails at basis tuple {first.indices}",
            witness={"axiom": first.axiom, "indices": list(first.indices)},
        )
        self.failures = failures


class InternalCheckError(LyaError):
    """A mathematically guaranteed consequence failed to hold; this is a bug."""
