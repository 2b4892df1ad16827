"""Shared-token authentication for the serve fabric.

The handshake is one JSON line (see
:func:`repro.serve.protocol.encode_handshake`) sent before any query.
:class:`Authenticator` decides it: ``auth_required`` when the line is not
a handshake frame at all, ``bad_token`` when it is one but fails
validation or carries an unknown token.  Token comparison uses
``hmac.compare_digest`` so timing does not leak prefix matches.

After a successful handshake every request on the connection passes a
per-token :class:`~repro.serve.admission.TokenBucket`, so one credential
cannot starve the others even behind the global rate gate.  The
connection state machine around it — refusing every other first line
before it is parsed, confirming handshakes at a tokenless listener — is
:class:`repro.serve.frontend.FrontEnd`, which the shard service and the
router share, so refusal semantics are identical at every hop.
"""

from __future__ import annotations

import hmac
import time
from typing import Callable, Iterable

from ..serve.admission import TokenBucket
from ..serve.protocol import ProtocolError, decode_handshake

__all__ = ["Authenticator"]


class Authenticator:
    """Verifies handshake tokens and rate-limits per credential."""

    def __init__(self, tokens: str | Iterable[str], *,
                 rate: float | None = None, burst: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if isinstance(tokens, str):
            tokens = [tokens]
        self.tokens = tuple(tokens)
        if not self.tokens or any(not t for t in self.tokens):
            raise ValueError("authentication tokens must be non-empty")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}

    def verify(self, token: str) -> bool:
        """Constant-time membership test against every known token."""
        ok = False
        for known in self.tokens:
            # no early exit: check every token so timing stays flat
            ok = hmac.compare_digest(token, known) or ok
        return ok

    def handshake(self, line: str) -> str:
        """Validate one first line; returns the token or raises.

        ``auth_required`` when the line is not a handshake frame at all,
        ``bad_token`` when it is one but fails validation or carries an
        unknown token.
        """
        token = decode_handshake(line)
        if not self.verify(token):
            raise ProtocolError("bad_token", "unknown handshake token")
        return token

    def try_rate(self, token: str) -> bool:
        """Take one request from the token's bucket (True = admitted)."""
        if self.rate is None:
            return True
        bucket = self._buckets.get(token)
        if bucket is None:
            bucket = TokenBucket(rate=self.rate, burst=self.burst,
                                 clock=self._clock)
            self._buckets[token] = bucket
        return bucket.try_acquire()
