"""Source-resolvability codec built on source polarization.

The length-N transform is the Kronecker power of [[1, 0], [1, 1]] over GF(2),
applied so that the first transformed coordinate is the XOR of the whole
input block (for N = 2 and Bern(p): H(A^1) = h2(2p(1-p)),
H(A^2 | A^1) = 2 h2(p) - h2(2p(1-p))).  The transform is an involution.

Encoding is three-tier over the transformed coordinates, in index order:

* near-uniform coordinates (conditional entropy above 1 - delta_N) carry the
  uniform seed;
* the unpolarized middle is sampled from its exact conditional law, metered
  as local randomness;
* near-deterministic coordinates are set by conditional argmax.

Every conditional law P(A^j = 1 | A^{1:j-1}) comes from one
successive-cancellation pass, O(N log N) per block and vectorized over a batch
of blocks.  Encoding and sampled profiling run it over their own blocks; exact
profiles and exact output laws run it over all 2^N blocks (N <= 20) and weight
each block by its probability.

The source is i.i.d., so at every node of the pass all positions share one
prior function of a small integer context.  While that function's table has at
most ``TABLE_MAX`` entries the pass carries the table and a uint16 context per
position instead of a dense float prior per position; past that size, and at
the leaves, it gathers the dense priors and goes on with the dense laws.  Both
modes evaluate the same float expressions on the same operands, so every
conditional is bit-identical whichever mode computed it.  Encoding skips the
subtrees whose coordinates are all seed coordinates: their block is the
transform of their seed bits, whatever the priors are.

Index convention: coordinates are 0-based internally; documentation quoting
1-based positions always says so.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .probcore import Dist, all_bit_rows, entropy, exact_log2, row_slices

__all__ = [
    "EXACT_CAP_N",
    "ResolvabilityCode",
    "polar_transform",
    "compute_profile",
    "encode_batch",
    "iid_block_pmf",
    "output_pmf_exact",
    "profile_to_csv",
]

EXACT_CAP_N = 20  # 2^N enumeration above this is refused
# conditional-argmax ties (exact 0.5 arises from parity symmetries) resolve
# to 0; the tolerance keeps the choice stable against last-ulp noise
TIE_TOL = 1e-12
# largest shared-prior table the SC pass carries before it goes dense; its
# uint16 contexts index it, so it stays <= 2^16 entries
TABLE_MAX = 4096


def polar_transform(bits: np.ndarray) -> np.ndarray:
    """Apply the involutive polarization transform along the last axis.

    Length must be a power of two.  Accepts batched input (..., N).  The
    work runs coordinate-major, so a batched result is a transposed view.
    """
    x = np.moveaxis(np.asarray(bits), -1, 0)
    exact_log2(x.shape[0], "length")
    x = np.array(x, dtype=np.uint8, order="C")
    x &= 1
    return np.moveaxis(_transform_cm(x), 0, -1)


def _transform_cm(x: np.ndarray) -> np.ndarray:
    """The transform along axis 0 of a C-contiguous uint8 array, in place.

    Coordinate-major, every XOR of a level runs over whole rows at once.
    """
    m, rest = len(x), x.size // max(len(x), 1)
    half = 1
    while half < m:
        v = x.reshape(m // (2 * half), 2, half, rest)
        v[:, 0] ^= v[:, 1]
        half <<= 1
    return x


def _check_binary_source(source: Dist) -> float:
    if source.alphabet.size != 2:
        raise ValueError("polarization codec handles binary sources only")
    return float(source.pmf[1])


def iid_block_pmf(source: Dist, n_sym: int) -> np.ndarray:
    """pmf of N i.i.d. draws of a binary source, over packed blocks."""
    w = all_bit_rows(n_sym).sum(axis=1)
    p1 = float(source.pmf[1])
    return (p1 ** w) * ((1 - p1) ** (n_sym - w))


@dataclass(frozen=True)
class ResolvabilityCode:
    """Black-box source-resolvability encoder for one binary source at block
    length 2^n, built from its conditional-entropy profile.

    ``cond_entropies[i]`` is H(A^{i+1} | A^{1:i}) in bits; ``exact`` records
    whether they came from full enumeration or from sampled surprisals
    (unbiased, used beyond the enumeration cap).  Everything else is derived
    from them here, with delta_N = 2^(-N^beta): ``v_set`` holds the 0-based
    coordinates above ``1 - delta_n`` (the seed), ``h_set`` those above
    ``delta_n``; their difference is the sampled middle and the rest are set
    by argmax.  ``seed_len`` equals |v_set|; the seed rate seed_len / N
    approaches H(X) as N grows.  ``local_randomness_bits`` meters the
    middle-set sampling consumed per encoded block, reported separately from
    the seed and vanishing in rate.
    """

    source: Dist
    n: int
    beta: float
    cond_entropies: np.ndarray
    exact: bool = True
    delta_n: float = field(init=False)
    v_set: frozenset[int] = field(init=False)
    h_set: frozenset[int] = field(init=False)
    seed_len: int = field(init=False)
    # per-coordinate tier: 0 seed, 1 sampled middle, 2 argmax
    _tiers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_sym = 1 << self.n
        ce = np.ascontiguousarray(self.cond_entropies, dtype=np.float64)
        ce.setflags(write=False)
        object.__setattr__(self, "cond_entropies", ce)
        if ce.shape != (n_sym,):
            raise ValueError(f"profile length {ce.shape} != N={n_sym}")
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must be in (0, 1/2), got {self.beta}")
        # written so that NaN fails both checks
        if not np.all((ce >= -1e-9) & (ce <= 1 + 1e-9)):
            raise ValueError("conditional entropies outside [0, 1]")
        if self.exact:
            total = float(ce.sum())
            target = n_sym * entropy(self.source)
            if not abs(total - target) <= 1e-9:
                raise ValueError(
                    f"chain rule violated: sum {total} vs N*H(X) {target}"
                )
        delta_n = 2.0 ** (-(n_sym ** self.beta))
        # delta_N <= 1/2, so every seed coordinate is above delta_N too
        tiers = np.where(ce > 1.0 - delta_n, 0,
                         np.where(ce > delta_n, 1, 2)).astype(np.int8)
        tiers.setflags(write=False)
        v_set = frozenset(np.flatnonzero(tiers == 0).tolist())
        h_set = frozenset(np.flatnonzero(tiers < 2).tolist())
        for name, value in (("delta_n", delta_n), ("v_set", v_set),
                            ("h_set", h_set), ("seed_len", len(v_set)),
                            ("_tiers", tiers)):
            object.__setattr__(self, name, value)

    @property
    def block_len(self) -> int:
        return 1 << self.n

    @property
    def mid_set(self) -> frozenset[int]:
        return self.h_set - self.v_set

    @property
    def local_randomness_bits(self) -> int:
        return len(self.mid_set)


def compute_profile(
    source: Dist,
    n: int,
    beta: float = 0.25,
    *,
    mc_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> ResolvabilityCode:
    """The codec of a binary source at block length N = 2^n, from its profile.

    Each conditional entropy is the mean surprisal -log2 q(A^j | A^{1:j-1}),
    with the conditionals from one SC pass over a set of blocks.  Exact mode
    (N <= 20) passes all 2^N blocks, weighted by their probability.  Above the
    cap, pass ``mc_samples`` to average over that many sampled blocks; the
    per-block conditionals are still exact, so the estimator is unbiased.
    """
    p1 = _check_binary_source(source)
    n_sym = 1 << n
    if n_sym <= EXACT_CAP_N and mc_samples is None:
        x, reduce = all_bit_rows(n_sym).T, iid_block_pmf(source, n_sym).dot
    elif mc_samples is None:
        raise ValueError(
            f"N={n_sym} exceeds the exact cap {EXACT_CAP_N}; "
            "pass mc_samples to enable approximate profiling"
        )
    elif rng is None:
        raise ValueError("approximate profiling needs an explicit rng")
    else:
        # coordinate-major blocks, drawn a row slice of (samples, N) at a time
        # in the order of one (samples, N) draw
        x = np.empty((n_sym, int(mc_samples)), dtype=np.uint8)
        for sl in row_slices(x.shape[1], n_sym):
            x[:, sl] = (rng.random((sl.stop - sl.start, n_sym)) < p1).T
        reduce = np.mean
    a = _transform_cm(np.ascontiguousarray(x, dtype=np.uint8))
    ce = np.empty(n_sym)

    def surprisal(j, pj):
        prob = _exchange(a[j], 1.0 - pj, pj)[0]
        ce[j] = float(reduce(-np.log2(np.clip(prob, 1e-300, None))))
        return a[j]

    _sc_iid(p1, a.shape, surprisal)
    return ResolvabilityCode(source, n, beta, np.clip(ce, 0.0, 1.0),
                             exact=mc_samples is None)


def _left_law(p_l, p_r):
    """P(x_L ^ x_R = 1) of independent bits with P(x = 1) = p_l, p_r."""
    return p_l * (1.0 - p_r) + (1.0 - p_l) * p_r


def _exchange(s, a, b):
    """float64 a and b exchanged where the 0/1 ints s are 1: bit for bit
    ``np.where(s == 1, b, a)`` and ``np.where(s == 1, a, b)``, as new arrays.

    On uint64 views, d = -s & (a ^ b), then a ^ d and b ^ d: no branch per
    entry, which ``np.where`` pays in mispredictions on random s.
    """
    a, b = a.view(np.uint64), b.view(np.uint64)
    d = np.negative(s, dtype=np.int64).view(np.uint64)
    d &= a ^ b
    a = a ^ d
    d ^= b
    return a.view(np.float64), d.view(np.float64)


def _right_law(p_l, p_r, s):
    """P(x_R = 1 | x_L ^ x_R = s) of the same bits; 1/2 where s is impossible."""
    g, tot = _exchange(s, p_l, 1.0 - p_l)       # P(x_L = s ^ 1), P(x_L = s)
    g *= p_r
    tot *= 1.0 - p_r
    tot += g
    np.divide(g, tot, out=g, where=tot > 0)
    g[tot <= 0] = 0.5
    return g


def _sc(prior: np.ndarray, leaf, start: int = 0, ctx: np.ndarray | None = None,
        known=None) -> np.ndarray:
    """Successive cancellation: one depth-first butterfly pass, batched.

    ``prior`` (m, batch) holds P(x_t = 1) for independent bits x_t,
    coordinate-major so that every operation runs along the batch.  With
    ``ctx`` (m, batch) of ints given, ``prior`` is instead a table and the
    prior of x_t is ``prior[ctx[t]]``: the left child's table holds the left
    law of every pair of entries, the right child's the right law of every
    (pair, s) triple, and once a child's table would pass ``TABLE_MAX``
    entries the pass gathers the dense priors and goes on densely.  The
    coordinates of a = polar_transform(x) are decided in index order, numbered
    from ``start``: ``leaf(j, p)`` gets p = P(a_j = 1 | a_<j), shape (batch,),
    and returns the uint8 bits a_j.  ``known(start, m)``, if given, returns the
    (m, batch) bits of a subtree's coordinates when its caller fixes all of
    them regardless of their conditionals, else None; such a subtree is not
    descended.  Returns x as (m, batch); O(m log m) work per block.
    """
    m = len(ctx if ctx is not None else prior)
    if known is not None and (bits := known(start, m)) is not None:
        return _transform_cm(bits)
    if ctx is not None and (m == 1 or 2 * len(prior) ** 2 > TABLE_MAX):
        prior, ctx = prior[ctx], None
    if m == 1:
        return leaf(start, prior[0])[None]
    half = m // 2
    # the first half of a transforms s = x_L ^ x_R, the second half x_R
    if ctx is None:
        p_l, p_r = prior[:half], prior[half:]
        s = _sc(_left_law(p_l, p_r), leaf, start, known=known)
        x_r = _sc(_right_law(p_l, p_r, s), leaf, start + half, known=known)
        return np.concatenate((s ^ x_r, x_r))
    k = len(prior)
    # with one entry every context is 0, and so is every pair's
    pair = ctx[:half] if k == 1 else ctx[:half] * k + ctx[half:]
    p_l, p_r = np.repeat(prior, k), np.tile(prior, k)
    s = _sc(_left_law(p_l, p_r), leaf, start, pair, known)
    x_r = _sc(_right_law(np.repeat(p_l, 2), np.repeat(p_r, 2),
                         np.tile(np.array([0, 1], dtype=np.uint8), k * k)),
              leaf, start + half, pair * 2 + s, known)
    return np.concatenate((s ^ x_r, x_r))


def _sc_iid(p1: float, shape: tuple[int, int], leaf, known=None) -> np.ndarray:
    """The pass over (N, batch) i.i.d. Bern(p1) bits: one table entry, one
    context, a broadcast zero that holds no (N, batch) array.  The children's
    contexts keep its uint16 dtype: they index tables of at most TABLE_MAX."""
    return _sc(np.array([p1]), leaf,
               ctx=np.broadcast_to(np.uint16(0), shape), known=known)


def encode_batch(
    code: ResolvabilityCode, seeds: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Encode a batch of seeds, shape (batch, seed_len) -> (batch, N)."""
    seeds = np.asarray(seeds, dtype=np.uint8)
    if seeds.ndim != 2 or seeds.shape[1] != code.seed_len:
        raise ValueError(
            f"seed batch shape {seeds.shape}, expected (batch, {code.seed_len})"
        )
    batch = seeds.shape[0]
    tiers = code._tiers
    seed_rows = np.ascontiguousarray(seeds.T)
    # seeds before each coordinate: the seed coordinates of a subtree are
    # consecutive seed columns
    before = np.concatenate(([0], np.cumsum(tiers == 0)))

    def seeded(start, m):
        lo = before[start]
        if before[start + m] - lo < m:
            return None
        return np.array(seed_rows[lo:lo + m], order="C")

    def decide(j, pj):
        if tiers[j] == 1:
            return (rng.random(batch) < pj).astype(np.uint8)
        return (pj > 0.5 + TIE_TOL).astype(np.uint8)

    p1 = float(code.source.pmf[1])
    return _sc_iid(p1, (code.block_len, batch), decide, seeded).T.copy()


def output_pmf_exact(
    code: ResolvabilityCode, clamped_seed_bits: np.ndarray | None = None
) -> np.ndarray:
    """Exact encoder-output pmf as a flat array over packed length-N blocks.

    One SC pass runs over every block x, and its leaves multiply the block's
    probability by the encoder's law of a_j, with a = polar_transform(x): 1/2
    on a seed coordinate, P(a_j | a_<j) on a middle one, and 0 or 1 on an
    argmax one.  With ``clamped_seed_bits`` given, that prefix of the seed is
    fixed and only the remaining seed bits are uniform -- the conditional law
    needed to trace recycled randomness through a hash chain.  Requires N
    within the enumeration cap.
    """
    n_sym = code.block_len
    if n_sym > EXACT_CAP_N:
        raise ValueError(f"N={n_sym} exceeds the exact-enumeration cap {EXACT_CAP_N}")
    clamp = np.asarray(clamped_seed_bits, dtype=np.uint8) if clamped_seed_bits is not None \
        else np.zeros(0, dtype=np.uint8)
    if clamp.ndim != 1 or clamp.size > code.seed_len:
        raise ValueError(f"clamp length {clamp.size} exceeds seed length {code.seed_len}")
    a = _transform_cm(np.array(all_bit_rows(n_sym).T, order="C"))
    tiers = code._tiers
    clamp_bits = iter(clamp)
    px = np.ones(a.shape[1])

    def weigh(j, pj):
        if tiers[j] == 0:
            bit = next(clamp_bits, None)
            px[:] *= 0.5 if bit is None else a[j] == bit
        elif tiers[j] == 1:
            px[:] *= _exchange(a[j], 1.0 - pj, pj)[0]
        else:
            px[:] *= a[j] == (pj > 0.5 + TIE_TOL)
        return a[j]

    _sc_iid(float(code.source.pmf[1]), a.shape, weigh)
    return px


def profile_to_csv(code: ResolvabilityCode, path) -> None:
    """Write the profile as CSV: index, cond_entropy, in_v_set, in_h_set."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "cond_entropy", "in_v_set", "in_h_set"])
        for i in range(code.block_len):
            w.writerow([
                i + 1,
                f"{code.cond_entropies[i]:.12g}",
                int(i in code.v_set),
                int(i in code.h_set),
            ])
