"""Exception types shared across the package."""


class WatermarkDomainError(ValueError):
    """The value is outside the watermark domain (integers >= 2)."""


class NotAWatermark(ValueError):
    """A permutation decoded cleanly but is not a genuine codeword."""


class SipInvariantError(ValueError):
    """A sequence violates the self-inverting-permutation invariants."""


class FalseIncorrectGraph(ValueError):
    """A graph from which no watermark can be extracted.

    ``check`` names the first failed decoding check.
    """

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class SizeMismatchError(ValueError):
    """Two graphs of different sizes cannot be compared edge-for-edge."""


class UnsupportedAttack(ValueError):
    """An edit falls outside the back-edge modification model."""


class OutOfTheoremRange(ValueError):
    """Closed-form resilience results require bit-length >= 4."""


class ResourceBoundError(ValueError):
    """A request exceeds the enumeration cap, or would need more memory
    than the machine has; raised before the work is done."""


class GraphFormatError(ValueError):
    """A graph file or text payload could not be parsed."""


class InternalInvariantError(RuntimeError):
    """A result contradicts what the implementation guarantees, e.g. the
    oracle exceeding the closed form or a witness mis-priced: a bug in
    wrpg, not bad input."""
