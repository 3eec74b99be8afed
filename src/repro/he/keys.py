"""Key material for BFV: secret, public, relinearization, and Galois keys.

Key-switching keys (relinearization and Galois) are stored with their
polynomials pre-transformed into the per-prime NTT evaluation domain, as
SEAL does, so the hot key-switch inner product needs only forward
transforms of the digit polynomials plus pointwise multiply-accumulate.
The evaluation rows are kept as one stacked ``(digits, k, N)`` array per
key polynomial, consumed whole by the vectorized key switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.he.poly import RingElement


@dataclass
class SecretKey:
    s: RingElement


@dataclass
class PublicKey:
    p0: RingElement  # -(a*s + e)
    p1: RingElement  # a


class KSwitchKey:
    """A key-switching key: for each digit j, a pair encrypting T^j * s'.

    Switching a polynomial ``c`` valid under ``s'`` to the canonical secret
    ``s`` computes ``sum_j digit_j(c) * key_j`` where ``digit_j`` is the
    base-``T`` decomposition.  Key polynomials are cached in the NTT domain.
    """

    def __init__(self, pairs: list[tuple[RingElement, RingElement]]):
        self.pairs = pairs
        # (digits, k, N) evaluation stacks; eval_rows() reuses any NTT form
        # the keygen products already carry, so nothing transforms twice.
        self._stack_0 = np.stack([k0.eval_rows() for k0, _ in pairs])
        self._stack_1 = np.stack([k1.eval_rows() for _, k1 in pairs])

    def __len__(self) -> int:
        return len(self.pairs)


class GaloisKeys:
    """Lazy map from Galois element to its key-switching key."""

    def __init__(self):
        self._keys: dict[int, KSwitchKey] = {}

    def add(self, galois_elt: int, key: KSwitchKey) -> None:
        self._keys[galois_elt] = key

    def get(self, galois_elt: int) -> KSwitchKey | None:
        return self._keys.get(galois_elt)

    def __contains__(self, galois_elt: int) -> bool:
        return galois_elt in self._keys

    def elements(self) -> list[int]:
        return sorted(self._keys)
