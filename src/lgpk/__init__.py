"""Public-key encryption over matrix Lie groups, plus a cryptanalysis harness.

The trapdoor object is a pair of truncated exponentials of non-commuting
nilpotent matrices over Z_p. See the README for the scheme, the wire formats,
and the attack tooling.
"""

from .bitstrings import BitStr
from .codec import decode, decode_prefix, encode, pk_fingerprint
from .errors import (
    BudgetRefusal,
    CodecError,
    EncodingError,
    KeyMismatchError,
    LgpkError,
    NotInvertibleError,
    NotNilpotentError,
    ParameterError,
    SemanticDecodeError,
    StructuralDecodeError,
)
from .matfield import (
    FieldMatrix,
    GroupElement,
    NilpotentMatrix,
    ParameterSet,
    exp_scaled,
    mat_exp,
)
from .sampler import RngHandle
from .scheme import Ciphertext, PrivateKey, PublicKey, decrypt, encrypt, keygen

__version__ = "0.1.0"

__all__ = [
    "BitStr",
    "BudgetRefusal",
    "Ciphertext",
    "CodecError",
    "EncodingError",
    "FieldMatrix",
    "GroupElement",
    "KeyMismatchError",
    "LgpkError",
    "NilpotentMatrix",
    "NotInvertibleError",
    "NotNilpotentError",
    "ParameterError",
    "ParameterSet",
    "PrivateKey",
    "PublicKey",
    "RngHandle",
    "SemanticDecodeError",
    "StructuralDecodeError",
    "decode",
    "decode_prefix",
    "decrypt",
    "encode",
    "encrypt",
    "exp_scaled",
    "keygen",
    "mat_exp",
    "pk_fingerprint",
    "__version__",
]
