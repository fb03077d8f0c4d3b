"""The Table I complexity model.

Table I of the paper compares the *view change* of HotStuff and its
two-phase descendants along four axes: communication, cryptographic
operations, authenticator complexity, and phase count.  This module
encodes those asymptotic rows so ``repro table1`` can print them next to
the measured numbers; the authenticator counting rule lives with its
counter in :mod:`repro.obs.complexity`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComplexityRow:
    """One protocol's asymptotic view-change costs (Table I)."""

    protocol: str
    vc_communication: str
    vc_crypto_ops: str
    vc_authenticators: str
    vc_phases: str
    linear: bool


TABLE_I: list[ComplexityRow] = [
    ComplexityRow(
        protocol="HotStuff",
        vc_communication="O(n*lambda + n*log u)",
        vc_crypto_ops="O(n^2) non-pairing or O(n) pairing",
        vc_authenticators="O(n)",
        vc_phases="3",
        linear=True,
    ),
    ComplexityRow(
        protocol="Fast-HotStuff",
        vc_communication="O(n^2*lambda + n^2*log u)",
        vc_crypto_ops="O(n^3) non-pairing or O(n^2) pairing",
        vc_authenticators="O(n^2)",
        vc_phases="2",
        linear=False,
    ),
    ComplexityRow(
        protocol="Jolteon",
        vc_communication="O(n^2*lambda + n^2*log u)",
        vc_crypto_ops="O(n^3) non-pairing or O(n^2) pairing",
        vc_authenticators="O(n^2)",
        vc_phases="2",
        linear=False,
    ),
    ComplexityRow(
        protocol="Wendy",
        vc_communication="O(n*lambda + n^2*log u)",
        vc_crypto_ops="O(n^2 log c) non-pairing and O(n) pairing",
        vc_authenticators="O(n^2)",
        vc_phases="2 or 3",
        linear=False,
    ),
    ComplexityRow(
        protocol="Marlin",
        vc_communication="O(n*lambda + n*log u)",
        vc_crypto_ops="O(n^2) non-pairing or O(n) pairing",
        vc_authenticators="O(n)",
        vc_phases="2 or 3",
        linear=True,
    ),
]
