"""Cryptographic substrate.

The paper instantiates HotStuff/Marlin either with ECDSA signatures or with
pairing-based ``(t, n)`` threshold signatures.  Offline and without native
crypto libraries, we provide:

* :mod:`repro.crypto.hashing` — SHA-256 digests over the canonical encoding;
* :mod:`repro.crypto.signatures` — deterministic HMAC-based signatures with
  per-replica keys (simulated ECDSA: same API, same sizes, unforgeable
  without the signer's secret);
* :mod:`repro.crypto.threshold` — a real ``(t, n)`` threshold scheme built
  on Shamir secret sharing over a prime field (shares combine by Lagrange
  interpolation exactly as BLS threshold signatures do in the exponent);
* :mod:`repro.crypto.multisig` — quorum multi-signatures (a signature
  bundle with a signer bitmap), the "group of n signatures" instantiation
  the paper says real deployments prefer.

These primitives are simulations adequate for a research artifact: they are
deterministic, sized realistically, and unforgeable by any party that does
not hold the relevant secret material, but they are NOT secure against a
real-world adversary.  Do not reuse outside this repository.
"""

from repro.crypto.hashing import Digest, digest_of, hash_bytes
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature, SigningKey, VerifyKey
from repro.crypto.threshold import (
    PartialSignature,
    ThresholdPublicKey,
    ThresholdSignature,
    ThresholdSigner,
    threshold_keygen,
)

__all__ = [
    "Digest",
    "KeyRegistry",
    "PartialSignature",
    "Signature",
    "SigningKey",
    "ThresholdPublicKey",
    "ThresholdSignature",
    "ThresholdSigner",
    "VerifyKey",
    "digest_of",
    "hash_bytes",
    "threshold_keygen",
]
