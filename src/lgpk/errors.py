"""Exception hierarchy shared across the package."""


class LgpkError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LgpkError):
    """Invalid parameters or operands that cannot be combined (shape/modulus mismatch)."""


class NotInvertibleError(LgpkError):
    """A matrix required to be invertible mod p is singular."""


class NotNilpotentError(LgpkError):
    """A matrix required to be nilpotent is not, or its claimed index is wrong."""


class EncodingError(LgpkError):
    """A bit string or byte encoding violates its declared length or mask rules."""


class KeyMismatchError(LgpkError):
    """A private key is not bound to the public key it was used with."""


class CodecError(LgpkError):
    """Base class for serialization failures."""


class StructuralDecodeError(CodecError):
    """Bad frame: truncation, bad magic/version/kind, CRC failure, non-canonical bytes."""


class SemanticDecodeError(CodecError):
    """Valid frame carrying an invalid mathematical object (range, rank, invertibility)."""


class AuthenticationError(CodecError):
    """Well-formed sealed file whose file key fails the validity check, or whose tag is wrong."""


class BudgetRefusal(LgpkError):
    """A solver refused an instance because it exceeds the time or memory budget."""
