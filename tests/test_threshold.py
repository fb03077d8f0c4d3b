"""The (t, n) threshold signature scheme: tgen/tsign/tcombine/tverify."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CryptoError, InvalidShare, NotEnoughShares
from repro.crypto.threshold import (
    PRIME,
    PartialSignature,
    threshold_keygen,
)


@pytest.fixture
def keys():
    return threshold_keygen(3, 4, seed=b"test")


class TestKeygen:
    def test_shapes(self, keys):
        pk, signers = keys
        assert pk.t == 3 and pk.n == 4
        assert len(signers) == 4
        assert len(pk.coefficients) == 3

    def test_deterministic(self):
        pk1, _ = threshold_keygen(3, 4, seed=b"s")
        pk2, _ = threshold_keygen(3, 4, seed=b"s")
        assert pk1 == pk2

    def test_seed_matters(self):
        pk1, _ = threshold_keygen(3, 4, seed=b"s1")
        pk2, _ = threshold_keygen(3, 4, seed=b"s2")
        assert pk1 != pk2

    def test_invalid_parameters(self):
        with pytest.raises(CryptoError):
            threshold_keygen(5, 4)
        with pytest.raises(CryptoError):
            threshold_keygen(0, 4)

    def test_shares_match_polynomial(self, keys):
        pk, signers = keys
        for signer in signers:
            assert signer.share == pk._share_of(signer.signer)


class TestSignCombineVerify:
    def test_combine_and_verify(self, keys):
        pk, signers = keys
        shares = [s.sign(b"msg") for s in signers[:3]]
        sig = pk.combine(b"msg", shares)
        pk.verify(b"msg", sig)
        assert pk.is_valid(b"msg", sig)

    def test_any_t_subset_combines_identically(self, keys):
        pk, signers = keys
        import itertools

        shares = [s.sign(b"msg") for s in signers]
        sigs = {
            pk.combine(b"msg", list(subset)).value
            for subset in itertools.combinations(shares, 3)
        }
        assert len(sigs) == 1

    def test_verify_rejects_other_message(self, keys):
        pk, signers = keys
        sig = pk.combine(b"msg", [s.sign(b"msg") for s in signers[:3]])
        assert not pk.is_valid(b"other", sig)

    def test_not_enough_shares(self, keys):
        pk, signers = keys
        with pytest.raises(NotEnoughShares):
            pk.combine(b"msg", [s.sign(b"msg") for s in signers[:2]])

    def test_duplicate_signer_rejected(self, keys):
        pk, signers = keys
        share = signers[0].sign(b"msg")
        with pytest.raises(CryptoError):
            pk.combine(b"msg", [share, share, signers[1].sign(b"msg")])

    def test_bad_share_detected(self, keys):
        pk, signers = keys
        bad = PartialSignature(signer=0, value=12345)
        with pytest.raises(InvalidShare):
            pk.verify_share(b"msg", bad)
        good = [s.sign(b"msg") for s in signers[1:3]]
        with pytest.raises(InvalidShare):
            pk.combine(b"msg", [bad] + good)

    def test_out_of_group_signer(self, keys):
        pk, _ = keys
        with pytest.raises(InvalidShare):
            pk.verify_share(b"m", PartialSignature(signer=10, value=1))


class TestValidation:
    def test_share_value_range(self):
        with pytest.raises(CryptoError):
            PartialSignature(signer=0, value=PRIME)
        with pytest.raises(CryptoError):
            PartialSignature(signer=-1, value=1)


@settings(max_examples=25, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=4),
    message=st.binary(min_size=0, max_size=64),
)
def test_property_any_quorum_verifies(t, extra, message):
    """For any (t, n) and any message, t shares combine to a valid sig."""
    n = t + extra
    pk, signers = threshold_keygen(t, n, seed=b"prop")
    shares = [s.sign(message) for s in signers[:t]]
    sig = pk.combine(message, shares)
    pk.verify(message, sig)


@settings(max_examples=25, deadline=None)
@given(message=st.binary(max_size=32), tamper=st.integers(min_value=1, max_value=1000))
def test_property_tampered_share_always_detected(message, tamper):
    pk, signers = threshold_keygen(3, 4, seed=b"prop2")
    share = signers[1].sign(message)
    bad = PartialSignature(signer=1, value=(share.value + tamper) % PRIME)
    with pytest.raises(InvalidShare):
        pk.verify_share(message, bad)
