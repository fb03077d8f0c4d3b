"""Reply certificates: ``f + 1`` matching replies make a result final.

With at most ``f`` Byzantine replicas, any ``f + 1`` replicas reporting
the same ``(client, seq, result_digest)`` include at least one correct
replica, so the result really is the committed one — this is the client
acceptance rule of PBFT and HotStuff.  The collector tallies replies per
request, one vote per replica (a replica changing its story is recorded
as a mismatch and keeps its first vote), and emits a
:class:`ReplyCertificate` the moment some digest reaches ``f + 1``
distinct reporters.  A liar coalition of at most ``f`` can therefore
never certify a forged result.

State is O(outstanding requests): tallies live only until their request
certifies, and the closed keys are a :class:`KeySet`, one
``[start, end)`` run per client while its sequence numbers close in
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.block import KeySet


@dataclass(frozen=True)
class ReplyCertificate:
    """Proof that ``f + 1`` replicas reported the same result."""

    client_id: int
    sequence: int
    result_digest: bytes
    #: Highest view among the certifying replies (leader-tracking input).
    view: int
    #: The replicas whose matching replies formed the certificate.
    replicas: frozenset[int]
    #: Result bytes as reported by the certifying replies (the digest
    #: commits to them, so any certifying reply's copy is authoritative).
    result: bytes = b""


class ReplyCollector:
    """Tallies per-request replies into certificates."""

    def __init__(self, f: int) -> None:
        self.need = f + 1
        #: (client, seq) -> replica -> (digest, view, result); one vote
        #: per replica.
        self._votes: dict[tuple[int, int], dict[int, tuple[bytes, int, bytes]]] = {}
        #: Keys that certified or were discarded; later replies are ignored.
        self._certified = KeySet()
        #: Replies that contradicted an earlier reply from the same
        #: replica, or were tallied before certification with a digest
        #: other than the one that certified — each one is evidence of a
        #: faulty replica.
        self.mismatches = 0

    def add(
        self,
        client_id: int,
        sequence: int,
        replica: int,
        result_digest: bytes,
        view: int,
        result: bytes = b"",
    ) -> ReplyCertificate | None:
        """Record one reply; returns a certificate when ``f + 1`` match.

        Returns None while the request is short of a quorum *and* after
        it has already been certified (each request certifies once).
        """
        key = (client_id, sequence)
        if key in self._certified:
            return None
        votes = self._votes.setdefault(key, {})
        previous = votes.get(replica)
        if previous is not None:
            if previous[0] != result_digest:
                self.mismatches += 1  # equivocating replica; first vote stands
            return None
        votes[replica] = (result_digest, view, result)
        matching = [
            (rid, v) for rid, (digest, v, _) in votes.items() if digest == result_digest
        ]
        if len(matching) < self.need:
            return None
        if len(votes) > len(matching):
            # Some replica reported a different digest for this request.
            self.mismatches += len(votes) - len(matching)
        self._certified.add(key)
        del self._votes[key]
        return ReplyCertificate(
            client_id=client_id,
            sequence=sequence,
            result_digest=result_digest,
            view=max(v for _, v in matching),
            replicas=frozenset(rid for rid, _ in matching),
            result=result,
        )

    def pending(self) -> int:
        """Requests with at least one reply but no certificate yet."""
        return len(self._votes)

    def discard(self, client_id: int, sequence: int) -> None:
        """Close one request without a certificate; later replies are ignored.

        For a request the session gave up on, or a sequence number spent
        on a request that never certifies (a leader-lease read): closing
        it keeps the client's closed keys one contiguous run.
        """
        key = (client_id, sequence)
        self._votes.pop(key, None)
        self._certified.add(key)
