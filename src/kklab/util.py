"""Small shared helpers: bit iteration and the precondition error."""


class PreconditionError(ValueError):
    """A documented precondition was violated; carries an optional witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def iter_bits(mask: int):
    """Yield the set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
