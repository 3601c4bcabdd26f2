"""Two-universal Toeplitz hashing over GF(2).

A hash is an r x N binary Toeplitz matrix described by N + r - 1 i.i.d.
uniform diagonal bits: entry (i, j) = diagonal_bits[i - j + N - 1].  Distinct
inputs collide with probability at most 2^-r under a uniformly drawn member.
The family carries no affine offset: resolvability recycling needs no output
masking, and the description stays O(N + r).

Hash descriptors are public code parameters; their randomness is common
randomness and is never charged against any rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probcore import EXACT_STATE_BUDGET, Alphabet, BudgetError, JointDist, \
    all_bit_rows, bits_to_index

__all__ = ["ToeplitzHash", "bits_to_hex", "sample_hash",
           "hashed_joint_dist_exact"]

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _diagonal_len(in_len: int, out_len: int) -> int:
    """Diagonal bits of an out_len x in_len Toeplitz matrix (none if it is empty)."""
    return in_len + out_len - 1 if out_len > 0 else 0


def bits_to_hex(bits: np.ndarray) -> str:
    """Bits as hex, first bit in the high nibble, zero-padded to a nibble."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-bits.size) % 4
    nibbles = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)]).reshape(-1, 4)
    return "".join(f"{v:x}" for v in (nibbles * [8, 4, 2, 1]).sum(axis=1))


@dataclass(frozen=True)
class ToeplitzHash:
    """GF(2) Toeplitz hash from ``in_len`` bits to ``out_len`` bits."""

    in_len: int
    out_len: int
    diagonal_bits: np.ndarray

    def __post_init__(self):
        if not 0 <= self.out_len <= self.in_len:
            raise ValueError(
                f"need 0 <= out_len <= in_len, got ({self.in_len}, {self.out_len})"
            )
        d = np.ascontiguousarray(self.diagonal_bits, dtype=np.uint8) & 1
        want = _diagonal_len(self.in_len, self.out_len)
        if d.shape != (want,):
            raise ValueError(f"diagonal has {d.shape} bits, expected ({want},)")
        d.setflags(write=False)
        object.__setattr__(self, "diagonal_bits", d)

    def matrix(self) -> np.ndarray:
        """Dense r x N matrix with entry (i, j) = diagonal[i - j + N - 1]."""
        if self.out_len == 0:
            return np.zeros((0, self.in_len), dtype=np.uint8)
        i = np.arange(self.out_len)[:, None]
        j = np.arange(self.in_len)[None, :]
        return self.diagonal_bits[i - j + self.in_len - 1]

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        """Hash a batch (..., in_len) -> (..., out_len); linear over GF(2).

        Bit-sliced over the batch: row j of the packed input holds coordinate
        j of eight trials per byte, and y_i is the XOR of x_{i + N - 1 - t}
        over the set diagonal bits t, one shifted slice of rows per bit.
        """
        x = np.asarray(x, dtype=np.uint8)
        n, r = self.in_len, self.out_len
        if x.shape[-1] != n:
            raise ValueError(f"input shape {x.shape}, expected (..., {n})")
        if r == 0:   # also in_len = 0, which reshape(-1, 0) cannot take
            return np.zeros(x.shape[:-1] + (0,), dtype=np.uint8)
        flat = x.reshape(-1, n)
        packed = np.zeros((-(-len(flat) // 8), n), dtype=np.uint8)
        for b in range(8):   # trial 8q + b goes to bit 7 - b of byte q
            part = flat[b::8]
            packed[:len(part)] |= (part & 1) << (7 - b)
        packed = np.ascontiguousarray(packed.T)
        out = np.zeros((r, packed.shape[1]), dtype=np.uint8)
        for t in np.flatnonzero(self.diagonal_bits):
            lo, hi = max(0, t - n + 1), min(r, t + 1)
            out[lo:hi] ^= packed[lo + n - 1 - t:hi + n - 1 - t]
        y = np.unpackbits(out, axis=1, count=len(flat)).T
        return np.ascontiguousarray(y).reshape(x.shape[:-1] + (r,))

    def to_hex(self) -> str:
        """Diagonal bits as a hex string (first bit in the high nibble)."""
        return bits_to_hex(self.diagonal_bits)

    @staticmethod
    def from_hex(hex_str: str, in_len: int, out_len: int) -> "ToeplitzHash":
        """Inverse of :meth:`to_hex`; rejects bad characters, length or padding."""
        want = _diagonal_len(in_len, out_len)
        bad = sorted(set(hex_str) - _HEX_DIGITS)
        if bad:
            raise ValueError(f"non-hex characters {bad} in hash hex string")
        if len(hex_str) != -(-want // 4):
            raise ValueError(f"hash hex string has {len(hex_str)} nibbles, "
                             f"{want} diagonal bits need {-(-want // 4)}")
        vals = np.array([int(c, 16) for c in hex_str], dtype=np.uint8)
        bits = ((vals[:, None] >> np.array([3, 2, 1, 0])) & 1).reshape(-1)
        if bits[want:].any():
            raise ValueError(f"nonzero pad bits after the {want} diagonal bits "
                             "of a hash hex string")
        return ToeplitzHash(in_len, out_len, bits[:want].astype(np.uint8))


def sample_hash(
    rng: np.random.Generator, in_len: int, out_len: int
) -> ToeplitzHash:
    """Draw a uniform member of the Toeplitz two-universal family."""
    if out_len > in_len:
        raise ValueError(f"out_len {out_len} exceeds in_len {in_len}")
    return ToeplitzHash(in_len, out_len, rng.integers(
        0, 2, size=_diagonal_len(in_len, out_len), dtype=np.uint8))


def hashed_joint_dist_exact(
    h_list: list[ToeplitzHash], j: JointDist
) -> JointDist:
    """Exact pushforward of (X_1, .., X_L, Z) through per-user hashes.

    Axis l of ``j`` must have size 2^{h_list[l].in_len}; symbols are read as
    bit blocks, first bit most significant.  The last axis (Z) passes through
    untouched.  Refuses joints above ``EXACT_STATE_BUDGET`` states.
    """
    n_users = len(h_list)
    if j.n_axes != n_users + 1:
        raise ValueError(f"joint has {j.n_axes} axes, expected {n_users + 1}")
    if j.pmf.size > EXACT_STATE_BUDGET:
        raise BudgetError(
            f"joint has {j.pmf.size} states, budget is {EXACT_STATE_BUDGET}"
        )
    tables = []
    for l, h in enumerate(h_list):
        if j.axes[l].size != 1 << h.in_len:
            raise ValueError(
                f"axis {l} size {j.axes[l].size} != 2^in_len = {1 << h.in_len}"
            )
        tables.append(bits_to_index(h.apply_batch(all_bit_rows(h.in_len))))
    z_size = j.axes[-1].size
    out_shape = tuple(1 << h.out_len for h in h_list) + (z_size,)
    out = np.zeros(out_shape)
    flat = j.pmf.reshape(-1, z_size)
    # map each source index tuple to its hashed index tuple, accumulate
    src_idx = np.indices(tuple(a.size for a in j.axes[:-1])).reshape(n_users, -1)
    hashed = [tables[l][src_idx[l]] for l in range(n_users)]
    lin = np.zeros(src_idx.shape[1], dtype=np.int64)
    for l in range(n_users):
        lin = lin * (1 << h_list[l].out_len) + hashed[l]
    np.add.at(out.reshape(-1, z_size), lin, flat)
    return JointDist(
        tuple(Alphabet(1 << h.out_len) for h in h_list) + (j.axes[-1],),
        out,
        renormalize=True,
    )
