"""A ``(t, n)`` threshold signature scheme over Shamir secret sharing.

The paper (Section III) requires a threshold scheme
``(tgen, tsign, tcombine, tverify)`` with robustness and unforgeability,
set to ``t = n - f``.  Efficient real-world instantiations use
pairing-based BLS; offline we build the same algebra without pairings:

* ``tgen`` samples a degree-``t-1`` polynomial ``P`` over the prime field
  ``GF(2^255 - 19)``; the master secret is ``s = P(0)`` and replica ``i``
  holds the share ``s_i = P(i + 1)``.
* ``tsign`` produces the partial signature ``sigma_i = s_i * H(m) mod p``
  (the field analogue of the BLS share ``H(m)^{s_i}``).
* ``tcombine`` Lagrange-interpolates any ``t`` valid shares at 0,
  producing ``sigma = s * H(m) mod p`` — the exact combining structure of
  threshold BLS, in the field instead of the exponent.
* ``tverify`` recomputes ``s * H(m)`` from the public key.

Security caveat (simulation): a real scheme hides ``s`` behind a discrete
log; here :class:`ThresholdPublicKey` carries the polynomial coefficients
in the clear, standing in for Feldman-VSS commitments ``g^{a_j}``.  That
keeps share verification (robustness) exact while giving up secrecy, which
a research artifact whose adversaries are its own test code does not need.
The interpolation math, quorum arithmetic, and failure modes (bad share
detection, insufficient shares) are all real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from repro.common.errors import CryptoError, InvalidShare, NotEnoughShares
from repro.crypto.hashing import hash_bytes

PRIME = 2**255 - 19
"""Field modulus; prime, so every nonzero element is invertible."""

THRESHOLD_SIG_SIZE = 32
"""Wire size of a combined threshold signature (one field element)."""

PARTIAL_SIG_SIZE = 48
"""Wire size of a partial signature (field element + signer index + tag)."""


@lru_cache(maxsize=8192)
def _message_point(message: bytes) -> int:
    """Hash ``message`` to a nonzero field element (the BLS ``H(m)``).

    Cached: on the hot path every vote share and the combined signature
    over one payload need the same point; a quorum of verifications then
    hashes once instead of ``n - f`` times.
    """
    point = int.from_bytes(hash_bytes(b"repro-tsig-h2f:" + message), "big") % PRIME
    return point or 1


def _batch_scalar(message: bytes, index: int, signer: int) -> int:
    """Per-share blinding scalar for batch verification.

    A plain sum of shares could pass with two bad shares whose errors
    cancel; weighting each share by an unpredictable nonzero scalar
    (standard small-exponent batch verification) makes cancellation as
    hard as forging a share.
    """
    material = hash_bytes(
        b"repro-tsig-batch:"
        + message
        + index.to_bytes(4, "big")
        + signer.to_bytes(4, "big")
    )
    return (int.from_bytes(material, "big") % (PRIME - 1)) + 1


def _mod_inverse(value: int) -> int:
    if value % PRIME == 0:
        raise CryptoError("cannot invert zero in the field")
    return pow(value, PRIME - 2, PRIME)


@dataclass(frozen=True)
class PartialSignature:
    """One replica's threshold-signature share over a message."""

    signer: int
    value: int

    def __post_init__(self) -> None:
        if self.signer < 0:
            raise CryptoError(f"signer index must be non-negative, got {self.signer}")
        if not 0 <= self.value < PRIME:
            raise CryptoError("partial signature value out of field range")

    def __repr__(self) -> str:
        return f"PartialSignature(signer={self.signer}, value={hex(self.value)[:10]}...)"


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined ``(t, n)`` threshold signature (single field element)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < PRIME:
            raise CryptoError("threshold signature value out of field range")

    def __repr__(self) -> str:
        return f"ThresholdSignature({hex(self.value)[:10]}...)"


@dataclass(frozen=True)
class ThresholdPublicKey:
    """System public key: threshold ``t``, group size ``n``, commitments.

    ``coefficients`` simulate Feldman-VSS commitments; see module docstring.
    """

    t: int
    n: int
    coefficients: tuple[int, ...]
    _share_cache: dict[int, int] = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise CryptoError(f"need 1 <= t <= n, got t={self.t}, n={self.n}")
        if len(self.coefficients) != self.t:
            raise CryptoError("public key must carry exactly t polynomial coefficients")

    def _share_of(self, signer: int) -> int:
        """Evaluate the sharing polynomial at ``signer + 1`` (Horner).

        Cached per signer: share verification needs this value on every
        vote, and the polynomial never changes after keygen.
        """
        cached = self._share_cache.get(signer)
        if cached is not None:
            return cached
        x = signer + 1
        acc = 0
        for coeff in reversed(self.coefficients):
            acc = (acc * x + coeff) % PRIME
        self._share_cache[signer] = acc
        return acc

    @property
    def master_secret(self) -> int:
        return self.coefficients[0]

    def verify_share(self, message: bytes, share: PartialSignature) -> None:
        """Robustness check: raise :class:`InvalidShare` on a bad share."""
        if share.signer >= self.n:
            raise InvalidShare(f"signer {share.signer} outside group of {self.n}")
        expected = (self._share_of(share.signer) * _message_point(message)) % PRIME
        if expected != share.value:
            raise InvalidShare(f"share from signer {share.signer} fails verification")

    def verify_shares(self, message: bytes, shares: Sequence[PartialSignature]) -> list[int]:
        """Batch robustness check: indices (input order) of invalid shares.

        Aggregate-then-verify: one blinded linear-combination check over
        the whole batch succeeds iff every share is valid; on mismatch the
        batch is bisected, so ``k`` bad shares among ``n`` cost
        ``O(k log n)`` aggregate checks instead of ``n`` full
        verifications.  Equivalent to calling :meth:`verify_share` on each
        share individually.
        """
        point = _message_point(message)
        bad: list[int] = []
        candidates: list[int] = []
        for index, share in enumerate(shares):
            if share.signer >= self.n:
                bad.append(index)
            else:
                candidates.append(index)

        def aggregate_ok(indices: list[int]) -> bool:
            lhs = 0
            rhs = 0
            for index in indices:
                share = shares[index]
                scalar = _batch_scalar(message, index, share.signer)
                lhs = (lhs + scalar * share.value) % PRIME
                rhs = (rhs + scalar * self._share_of(share.signer)) % PRIME
            return lhs == (rhs * point) % PRIME

        def bisect(indices: list[int]) -> None:
            if not indices or aggregate_ok(indices):
                return
            if len(indices) == 1:
                bad.append(indices[0])
                return
            mid = len(indices) // 2
            bisect(indices[:mid])
            bisect(indices[mid:])

        bisect(candidates)
        return sorted(bad)

    def combine(
        self, message: bytes, shares: Iterable[PartialSignature], *, verify: bool = True
    ) -> ThresholdSignature:
        """``tcombine``: interpolate ``t`` distinct valid shares at zero.

        Duplicate signers are rejected; with ``verify=True`` (default) each
        share is checked first so one Byzantine share cannot corrupt the
        output (the robustness property the paper requires).
        """
        unique: dict[int, PartialSignature] = {}
        for share in shares:
            if share.signer in unique:
                raise CryptoError(f"duplicate share from signer {share.signer}")
            unique[share.signer] = share
        if len(unique) < self.t:
            raise NotEnoughShares(f"need {self.t} shares, got {len(unique)}")
        chosen = sorted(unique.values(), key=lambda s: s.signer)[: self.t]
        if verify:
            for share in chosen:
                self.verify_share(message, share)
        xs = [share.signer + 1 for share in chosen]
        acc = 0
        for share, x_i in zip(chosen, xs):
            numerator = 1
            denominator = 1
            for x_j in xs:
                if x_j == x_i:
                    continue
                numerator = (numerator * (-x_j)) % PRIME
                denominator = (denominator * (x_i - x_j)) % PRIME
            lagrange = (numerator * _mod_inverse(denominator)) % PRIME
            acc = (acc + share.value * lagrange) % PRIME
        return ThresholdSignature(acc)

    def verify(self, message: bytes, signature: ThresholdSignature) -> None:
        """``tverify``: raise :class:`CryptoError` unless valid."""
        expected = (self.master_secret * _message_point(message)) % PRIME
        if expected != signature.value:
            raise CryptoError("threshold signature verification failed")

    def is_valid(self, message: bytes, signature: ThresholdSignature) -> bool:
        """Boolean convenience wrapper around :meth:`verify`."""
        try:
            self.verify(message, signature)
        except CryptoError:
            return False
        return True


@dataclass(frozen=True)
class ThresholdSigner:
    """Replica-held secret share plus the signing operation (``tsign``)."""

    signer: int
    share: int
    public_key: ThresholdPublicKey

    def sign(self, message: bytes) -> PartialSignature:
        """``tsign``: produce this replica's share over ``message``."""
        return PartialSignature(self.signer, (self.share * _message_point(message)) % PRIME)


def threshold_keygen(t: int, n: int, seed: bytes | str = b"") -> tuple[ThresholdPublicKey, list[ThresholdSigner]]:
    """``tgen``: deterministically generate a ``(t, n)`` key set from ``seed``.

    Returns the system public key and one :class:`ThresholdSigner` per
    replica.  Determinism (coefficients derived by hashing the seed) keeps
    simulations reproducible; pass a fresh random seed for distinct runs.
    """
    if not 1 <= t <= n:
        raise CryptoError(f"need 1 <= t <= n, got t={t}, n={n}")
    if isinstance(seed, str):
        seed = seed.encode("utf-8")
    coefficients: list[int] = []
    for index in range(t):
        material = hash_bytes(b"repro-tsig-coeff:" + seed + index.to_bytes(4, "big"))
        coefficients.append(int.from_bytes(material, "big") % PRIME)
    if coefficients[0] == 0:
        coefficients[0] = 1
    public_key = ThresholdPublicKey(t=t, n=n, coefficients=tuple(coefficients))
    signers = [
        ThresholdSigner(signer=i, share=public_key._share_of(i), public_key=public_key)
        for i in range(n)
    ]
    return public_key, signers

