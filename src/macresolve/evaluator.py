"""Quantify what the construction promises.

Resolvability-region geometry (constraints, corner points, the case
dichotomy), exact variational-distance evaluation of whole codes at
enumerable sizes, Monte-Carlo estimates at scale, and the distributed
leftover-hash bound check.  Monte Carlo has one path: ``run_trials``, then
``transcript_features`` per chunk of trials, which reduces the chunk to
fixed-size count tables (window counts, their second moments over trials
and the dependence checks' pair counts), then ``assemble_mc_metrics`` on the
tables summed over chunks for windowed proxies and inter-block independence
diagnostics with Gaussian-multiplier bootstrap confidence intervals.

Full-block variational distance over Z^{kN} cannot be estimated by sampling
at realistic sizes, so the exact joint TV is computed in exhaustive mode
only; windowed-marginal TV and the independence diagnostics are the scalable
proxies and are labeled as such.  The finite-N reference curves delta_i,
delta_i^(1), delta_i^(2) of the code's ``Analysis`` are reported alongside,
and are typically vacuous (> 2) at desk scale; the report says so rather
than hiding it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoder import BatchTranscript, MacCode, classify_two_user, run_trials
from .hashing import hashed_joint_dist_exact, sample_hash
from .polar import EXACT_CAP_N, iid_block_pmf, output_pmf_exact
from .probcore import (
    EXACT_STATE_BUDGET,
    BudgetError,
    Dist,
    JointDist,
    MacChannel,
    all_bit_rows,
    bits_to_index,
    exact_log2,
    min_entropy_conditional,
    mutual_information,
    row_slices,
    target_output_dist,
)

__all__ = [
    "RegionSpec",
    "MetricRow",
    "region_2user",
    "region_multi",
    "tv_exhaustive",
    "exact_report",
    "exact_budget",
    "transcript_features",
    "mc_chunk_features",
    "assemble_mc_metrics",
    "lhl_bound_check",
]

# the exhaustive pass holds at most this many entries of a |Z|^(kN) output law
# (and of the recycled-row products) at once
EXACT_CHUNK_ENTRIES = 1 << 15
GEOM_TOL = 1e-9


# -- region geometry -----------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    """Resolvability region: subset lower bounds and dominant-face corners.

    ``constraints[S]`` is I(X_S; Z) in bits for each non-empty subset of
    0-based user indices; the region is {R : sum_{l in S} R_l >= I(X_S;Z)}.
    ``corner_points`` maps each user permutation to its rate tuple (indexed
    by user).  Construction verifies the contrapolymatroid structure: the
    set function I is supermodular (equivalently -I is submodular), every
    corner is feasible, and the sum constraint is tight at every corner.
    """

    n_users: int
    constraints: dict[frozenset, float]
    corner_points: dict[tuple, tuple]
    dominant_r1: tuple[float, float] | None = None

    def __post_init__(self):
        full = frozenset(range(self.n_users))
        subsets = [frozenset(s) for r in range(1, self.n_users + 1)
                   for s in itertools.combinations(range(self.n_users), r)]
        for s in subsets:
            if s not in self.constraints:
                raise ValueError(f"missing constraint for subset {sorted(s)}")
        get = lambda s: self.constraints[s] if s else 0.0
        for s in subsets:
            for t in subsets:
                lhs = get(s | t) + get(s & t)
                rhs = get(s) + get(t)
                if lhs < rhs - GEOM_TOL:
                    raise ValueError(
                        f"I(X_S;Z) not supermodular at S={sorted(s)}, "
                        f"T={sorted(t)}: {lhs} < {rhs}"
                    )
        for sigma, rates in self.corner_points.items():
            for s in subsets:
                if sum(rates[u] for u in s) < self.constraints[s] - GEOM_TOL:
                    raise ValueError(
                        f"corner {sigma} violates subset {sorted(s)}"
                    )
            if abs(sum(rates) - self.constraints[full]) > GEOM_TOL:
                raise ValueError(f"corner {sigma} is not sum-rate tight")

    def to_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "constraints": {
                "+".join(str(u + 1) for u in sorted(s)): v
                for s, v in sorted(self.constraints.items(),
                                   key=lambda kv: (len(kv[0]), sorted(kv[0])))
            },
            "corner_points": {
                ",".join(str(u + 1) for u in sigma): list(r)
                for sigma, r in sorted(self.corner_points.items())
            },
            "dominant_r1": list(self.dominant_r1) if self.dominant_r1 else None,
        }


def _region(ch: MacChannel, inputs: list[Dist]) -> RegionSpec:
    n_users = ch.n_users
    j = ch.joint_with_output(inputs)
    z = n_users
    constraints = {}
    for r in range(1, n_users + 1):
        for s in itertools.combinations(range(n_users), r):
            constraints[frozenset(s)] = mutual_information(j, list(s), [z])
    corners = {}
    for sigma in itertools.permutations(range(n_users)):
        rates = [0.0] * n_users
        earlier: list[int] = []
        for u in sigma:
            rates[u] = mutual_information(j, [u], [z], earlier)
            earlier.append(u)
        corners[sigma] = tuple(rates)
    # two users: R1 of corners (1,2) and (2,1), [I(X;Z), I(X;Z|Y)]
    dom = (corners[0, 1][0], corners[1, 0][0]) if n_users == 2 else None
    return RegionSpec(n_users, constraints, corners, dominant_r1=dom)


def region_2user(ch: MacChannel, p_x: Dist, p_y: Dist) -> tuple[RegionSpec, str]:
    """Exact two-user region slice plus the case tag of the dichotomy."""
    return _region(ch, [p_x, p_y]), classify_two_user(ch, p_x, p_y)


def region_multi(ch: MacChannel, inputs: list[Dist]) -> RegionSpec:
    """Exact L-user region: all 2^L - 1 constraints and L! corner points."""
    if ch.n_users > 4:
        raise ValueError(f"exact region computation supports L <= 4, got {ch.n_users}")
    return _region(ch, list(inputs))


# -- exact (exhaustive) evaluation ----------------------------------------------


def _engine_sizes(code: MacCode) -> tuple[int, int, int, list[int]]:
    """Joint stream states 2^{S N}, |Z|^N, joint keys 2^R and each c_s."""
    n_sym = code.plan.block_len
    key_lens = [min(code.hashes[s.name].out_len, code.codecs[s.name].seed_len)
                for s in code.plan.streams]
    zn = code.channel.output_alphabet.size ** n_sym
    return 1 << (len(key_lens) * n_sym), zn, 1 << sum(key_lens), key_lens


def exact_budget(code: MacCode) -> str | None:
    """Why the exhaustive engine refuses ``code``, or None if it admits it."""
    n_sym, k = code.plan.block_len, code.plan.k
    if n_sym > EXACT_CAP_N:
        return f"N={n_sym} beyond the exact codec cap {EXACT_CAP_N}"
    n_states, zn, n_keys, _ = _engine_sizes(code)
    # every table the engine allocates, by the block counts that need it
    tables = {"emission table": n_states * zn, "output law": zn ** k}
    if k >= 2:
        tables["codec law C"] = n_keys * n_states
        tables["carry"] = n_keys * zn ** (k - 1)
    if k >= 3:
        tables["key transition A"] = n_keys ** 2 * zn
    table, size = max(tables.items(), key=lambda kv: kv[1])
    if size <= EXACT_STATE_BUDGET:
        return None
    return (f"exhaustive evaluation needs {size} entries for the {table}, "
            f"budget is {EXACT_STATE_BUDGET}")


class _ExactEngine:
    """Exhaustive evaluation of one code, with the block-Markov law in key space.

    A stream's block-i law depends on block i-1 only through its key, the
    first c_s = min(hash_len, seed_len) bits of the hashed block, so its
    transition factors as T_s = H_s C_s: H_s maps a word to its key and C_s
    holds the 2^{c_s} clamped codec laws.  The block step and the law of the
    output blocks both go through the joint key r (2^R entries, R = sum c_s),
    never through a transition between joint stream states (2^{S N} each).
    With C(r, w) = prod_s C_s[r_s, w_s], one step of the joint stream-state
    law m is m' = (H m) C, H m summing m onto the joint key of each state
    (``advance``).  With E the emission table over joint stream states w,
    the output blocks' law is

        K_1[z_1, r] = sum_w p_1(w) 1[key(w) = r] E[w, z_1]
        K_{i+1}[z_{<=i}, z_{i+1}, r'] = sum_r K_i[z_{<=i}, r] A[r, z_{i+1}, r']

    with A[r, z, r'] = sum_w C(r, w) 1[key(w) = r'] E[w, z], and the last
    block contracts with B = C E.  The carry K_k over z_{<k} is held; the
    |Z|^(kN)-entry law K_k B is only ever formed a chunk of rows at a time
    (``output_tvs``), so the budget's "output law" entry bounds the cells
    enumerated, not a table in memory.

    E, C, A and B are built on first read and kept until ``release``.  The
    budget bounds each of them, so they are released at their last use, in
    an order that leaves at most two budget-size tables live: C (the block
    steps and B) goes before A is formed from E and the per-stream laws, E
    goes before the carry grows past its first step, and A once the carry is
    formed.  ``exact_report`` and ``output_tvs`` keep that order; a table
    read again after it was released is built again, with the same bytes.
    """

    def __init__(self, code: MacCode):
        reason = exact_budget(code)
        if reason is not None:
            raise BudgetError(reason)
        self.code = code
        self.names = [s.name for s in code.plan.streams]
        self.n_sym = code.plan.block_len
        self.stream_dim = 1 << self.n_sym
        self.n_states, self.zn, self.n_keys, key_lens = _engine_sizes(code)
        self.qz = target_output_dist(code.channel, list(code.input_dists)).pmf
        self.p1 = {name: output_pmf_exact(code.codecs[name])
                   for name in self.names}
        if code.plan.k >= 2:
            self._init_keys(key_lens)

    def release(self, *tables: str) -> None:
        """Drop the named tables; a later read builds them again."""
        for name in tables:
            self.__dict__.pop(name, None)

    def _stream_grids(self) -> np.ndarray:
        """(streams, joint states): each joint state's word index per stream."""
        n = len(self.names)
        return np.indices((self.stream_dim,) * n).reshape(n, -1)

    @cached_property
    def emission(self) -> np.ndarray:
        """(joint stream states, |Z|^N) law of one output block."""
        per_stream = dict(zip(self.names, self._stream_grids()))
        rows = all_bit_rows(self.n_sym)
        # a word that is the max of several streams is their bitwise OR
        words = [np.bitwise_or.reduce([rows[per_stream[p]] for p in parts])
                 for _, parts in self.code.channel_inputs]
        em = np.ones((self.n_states, 1))
        for pos in range(self.n_sym):
            row = self.code.channel.transition[tuple(w[:, pos] for w in words)]
            em = (em[:, :, None] * row[:, None, :]).reshape(self.n_states, -1)
        return em

    def _init_keys(self, key_lens: list[int]) -> None:
        """Per-stream laws C_s and word keys, and the joint keys."""
        words = all_bit_rows(self.n_sym)
        grids = self._stream_grids()
        self.e_key = np.zeros(self.n_states, dtype=np.int64)   # full hash
        self.keys = np.zeros(self.n_states, dtype=np.int64)    # first c_s bits
        self.stream_laws = []
        for grid, name, c in zip(grids, self.names, key_lens):
            codec, h = self.code.codecs[name], self.code.hashes[name]
            full = bits_to_index(h.apply_batch(words))
            word_key = full >> (h.out_len - c)
            self.e_key = (self.e_key << h.out_len) | full[grid]
            self.keys = (self.keys << c) | word_key[grid]
            if c:
                laws = np.stack([output_pmf_exact(codec, clamp)
                                 for clamp in all_bit_rows(c)])
            else:  # the one clamp is empty: the block-1 law
                laws = self.p1[name][None]
            self.stream_laws.append((laws, word_key))
        bounds = np.cumsum(np.bincount(self.keys, minlength=self.n_keys))
        self.key_groups = np.split(np.argsort(self.keys, kind="stable"),
                                   bounds[:-1])

    @cached_property
    def c_table(self) -> np.ndarray:
        """C = kron_s C_s, (keys, joint stream states)."""
        c_table = np.ones((1, 1))
        for laws, _ in self.stream_laws:
            c_table = np.kron(c_table, laws)
        return c_table

    @cached_property
    def b_table(self) -> np.ndarray:
        """B = C E, (keys, |Z|^N).  E is read first: the last step of its
        build holds E and its 1/|Z| part, so nothing else should be live."""
        emission = self.emission
        return self.c_table @ emission

    @cached_property
    def a_table(self) -> np.ndarray:
        """A as (keys, |Z|^N keys), one key group r' at a time.

        C's columns of a group are formed from the per-stream laws as the
        products ``np.kron`` forms, in its order, so A has the floats of
        ``_keyed(C)`` and C itself is not read.
        """
        grids = self._stream_grids()
        out = np.empty((self.n_keys, self.zn, self.n_keys))
        for r, idx in enumerate(self.key_groups):
            cols = np.ones((1, len(idx)))
            for (laws, _), grid in zip(self.stream_laws, grids):
                cols = (cols[:, None] * laws[:, grid[idx]]).reshape(
                    len(cols) * len(laws), len(idx))
            out[:, :, r] = cols @ self.emission[idx]
        return out.reshape(self.n_keys, -1)

    def _keyed(self, weights: np.ndarray) -> np.ndarray:
        """(m, states) -> (m, zn, keys): sum of weights[., w] E[w, .] per key of w."""
        out = np.empty((len(weights), self.zn, self.n_keys))
        for r, idx in enumerate(self.key_groups):
            out[:, :, r] = weights[:, idx] @ self.emission[idx]
        return out

    def block1_state_pmf(self) -> np.ndarray:
        return _product([self.p1[name] for name in self.names])

    def advance(self, state_pmf: np.ndarray) -> np.ndarray:
        """One block-Markov step of the joint stream-state law, via the joint key."""
        return np.bincount(self.keys, weights=state_pmf,
                           minlength=self.n_keys) @ self.c_table

    def block_states(self) -> list[np.ndarray]:
        """Joint stream-state laws of blocks 1..k."""
        states = [self.block1_state_pmf()]
        for _ in range(self.code.plan.k - 1):
            states.append(self.advance(states[-1]))
        return states

    def _carry(self, state_pmf: np.ndarray, blocks: int) -> np.ndarray:
        """(|Z|^(N(blocks-1)), keys) law of the first blocks-1 outputs and a key.

        Past two blocks this is the last use of E and of A: A is formed from
        E once the first step has read E, E is released before the steps
        through A, and A when they are done.
        """
        carry = self._keyed(state_pmf[None])[0]             # (zn, keys)
        if blocks > 2:
            a_table = self.a_table
            self.release("emission", "a_table")
            for _ in range(blocks - 2):
                carry = (carry @ a_table).reshape(-1, self.n_keys)
        return carry

    def joint_z_pmf(self) -> np.ndarray:
        """Exact law of all k output blocks, flat over |Z|^(kN) (test oracle)."""
        state, k = self.block1_state_pmf(), self.code.plan.k
        if k == 1:
            return state @ self.emission
        return (self._carry(state, k) @ self.b_table).reshape(-1)

    def target_z_pow(self, blocks: int) -> np.ndarray:
        return _times_iid(np.array([1.0]), self.qz, blocks * self.n_sym)

    def output_tvs(self, block_laws: list[np.ndarray] | None = None) -> list[float]:
        """sum |p - q| of the k-block output law p against q_Z^(kN) and, given
        the k per-block laws, against their product.

        One row per z_{<k}: a chunk of rows of p is carry[rows] @ B, of the
        target q_Z^(N(k-1))[rows] times N more factors q_Z, and of the product
        prod_{i<k} p_{Z_i}[rows] times p_{Z_k}, so every entry has the
        arithmetic of the whole table, and ``_pairwise_sums`` adds the chunks
        up as numpy sums the whole table.  No |Z|^(kN)-entry array is made.
        It is the engine's last pass and releases every table: C as soon as
        B is formed, so that C is gone before A is.
        """
        k = self.code.plan.k
        state = self.block1_state_pmf()
        if k == 1:
            law = (state @ self.emission)[None]
            law_rows = lambda r0, r1: law[r0:r1]
        else:
            b_table = self.b_table
            self.release("c_table")
            carry = self._carry(state, k)
            law_rows = lambda r0, r1: carry[r0:r1] @ b_table
        self.release("emission", "b_table")
        target = self.target_z_pow(k - 1)
        if block_laws is not None:
            prod = _product(block_laws[:-1])

        def diffs(r0: int, r1: int) -> list[np.ndarray]:
            p = law_rows(r0, r1).reshape(-1)
            refs = [_times_iid(target[r0:r1], self.qz, self.n_sym)]
            if block_laws is not None:
                refs.append(np.multiply.outer(prod[r0:r1], block_laws[-1]).reshape(-1))
            for ref in refs:  # |p - ref| in ref's buffer
                np.subtract(p, ref, out=ref)
                np.abs(ref, out=ref)
            return refs

        return _pairwise_sums(len(target), self.zn, diffs)


def _product(laws: list[np.ndarray]) -> np.ndarray:
    """``np.multiply.outer`` folded over ``laws`` from [1.0], flat."""
    p = np.array([1.0])
    for law in laws:
        p = np.multiply.outer(p, law).reshape(-1)
    return p


def _times_iid(law: np.ndarray, qz: np.ndarray, symbols: int) -> np.ndarray:
    """law x qz^(x symbols), flat, one symbol at a time.

    Each entry is multiplied left to right as by repeated ``np.multiply.outer``;
    one strided pass per symbol value avoids its inner loops of |Z| entries.
    """
    for _ in range(symbols):
        out = np.empty((len(law), len(qz)))
        for z, q in enumerate(qz):
            np.multiply(law, q, out=out[:, z])
        law = out.reshape(-1)
    return law


def _pairwise_sums(n_rows: int, row_len: int, diffs) -> list[float]:
    """Sums over flat arrays of n_rows * row_len entries, built in row chunks.

    ``diffs(r0, r1)`` returns the arrays' entries of rows r0..r1-1.  numpy
    sums a contiguous array pairwise, halving n rounded down to a multiple
    of 8 down to parts of at most 128 entries; walking that tree over flat
    index ranges and calling ``.sum()`` on each part of at most
    EXACT_CHUNK_ENTRIES (>= 128) gives the whole array's ``.sum()`` bit for
    bit.
    """
    return [float(s) for s in _walk(0, n_rows * row_len, row_len, diffs)]


def _walk(lo: int, n: int, row_len: int, diffs) -> list:
    """Sums of entries lo..lo+n-1 by ``_pairwise_sums``' tree.  A function of
    the module, not a closure that calls itself through its own cell: that
    would be a reference cycle holding ``diffs``, and through it every table
    the caller's chunks read, until a cyclic garbage collection."""
    if n <= EXACT_CHUNK_ENTRIES:
        r0 = lo // row_len
        off = lo - r0 * row_len
        return [d[off:off + n].sum() for d in diffs(r0, -(-(lo + n) // row_len))]
    half = n // 2
    half -= half % 8
    return [a + b for a, b in zip(_walk(lo, half, row_len, diffs),
                                  _walk(lo + half, n - half, row_len, diffs))]


def tv_exhaustive(code: MacCode) -> float:
    """Exact V(p~_{Z over all k blocks}, q_Z^(kN)) by full enumeration."""
    return _ExactEngine(code).output_tvs()[0]


def _dependence_tv(joint: np.ndarray) -> np.ndarray:
    """sum |j - j_A x j_B| of 2-D joint laws (the last two axes) against the
    product of their marginals, batched over any leading axes."""
    prod = joint.sum(-1)[..., :, None] * joint.sum(-2)[..., None, :]
    return np.abs(joint - prod).sum(axis=(-2, -1))


def exact_report(code: MacCode) -> list["MetricRow"]:
    """Exhaustive-mode metrics: joint TV, per-block TVs, independence, bounds.

    Every row is read from the k block states of one ``block_states`` pass.
    The joint and inter-block TVs come from one pass over row chunks of the
    k-block output law (``_ExactEngine.output_tvs``), equal bit for bit to
    the sums over the whole tables, which are never held.  B is formed
    first and C is released after the block states, before A is formed; the
    output pass, which releases E, comes after E's other reads.
    """
    eng = _ExactEngine(code)
    plan = code.plan
    q_block = eng.target_z_pow(1)
    if plan.k >= 2:
        b_table = eng.b_table
    states = eng.block_states()
    eng.release("c_table")
    block_z = [state @ eng.emission for state in states]
    dependence = []
    if plan.k >= 2:
        # recycled bits of block i vs output of block i-1 (exact law)
        # hashes keep at most N bits: 2^R x |Z|^N is within the emission table
        total_r = sum(s.hash_len for s in plan.streams)
        step = max(1, EXACT_CHUNK_ENTRIES // eng.zn)
        for i, m_prev in enumerate(states[:-1], start=2):
            joint_ez = np.zeros((1 << total_r, eng.zn))
            # consecutive state ranges, in order: each cell adds its terms
            # in the order of one unchunked np.add.at
            for lo in range(0, eng.n_states, step):
                hi = lo + step
                np.add.at(joint_ez, eng.e_key[lo:hi],
                          m_prev[lo:hi, None] * eng.emission[lo:hi])
            dependence.append(MetricRow(f"recycled_vs_prev_output_tv_block{i}",
                                        float(_dependence_tv(joint_ez))))
        # consecutive output blocks vs product of their marginals
        for i, m_prev in enumerate(states[:-1], start=2):
            pair = eng._carry(m_prev, 2) @ b_table
            dependence.append(MetricRow(f"consecutive_output_tv_block{i}",
                                        float(_dependence_tv(pair))))
    tvs = eng.output_tvs(block_z if plan.k >= 2 else None)
    rows = [MetricRow("joint_output_tv", tvs[0])]
    rows += [MetricRow(f"block{i}_output_tv", float(np.abs(pz - q_block).sum()))
             for i, pz in enumerate(block_z, start=1)]
    if plan.k >= 2:
        rows.append(MetricRow("interblock_product_tv", tvs[1]))
        rows += dependence

    # reference curves from the analysis, evaluated with the exact codec TVs
    codec_tv = max(
        float(np.abs(eng.p1[name] -
                     iid_block_pmf(code.codecs[name].source,
                                   plan.block_len)).sum())
        for name in eng.names
    )
    d0 = code.analysis.delta0(plan.block_len, plan.xi)
    rows.append(MetricRow("codec_tv_worst_stream", codec_tv))
    rows.append(MetricRow("bound_delta0", d0))
    rows.append(MetricRow("bound_delta_block_k",
                          code.analysis.delta_block(plan.k, codec_tv, d0)))
    rows.append(MetricRow("bound_joint_tv",
                          code.analysis.joint_tv_bound(plan.k, codec_tv, d0)))
    return rows


# -- Monte-Carlo evaluation ------------------------------------------------------


@dataclass
class MetricRow:
    """One report metric; CI fields only in Monte-Carlo mode."""

    name: str
    value: float
    ci_lo: float | None = None
    ci_hi: float | None = None
    samples: int | None = None
    mode: str = "exact"

    def to_list(self):
        return [self.name, self.value, self.ci_lo, self.ci_hi,
                self.samples, self.mode]


def _window_cells(z: np.ndarray, z_size: int, w: int) -> np.ndarray:
    """Pack sliding windows of each block into cell indices.

    ``z`` has shape (trials, k, N); returns (trials, k, N - w + 1) in the
    narrowest unsigned dtype that holds z_size^w (every cell, and z_size).
    """
    trials, k, n_sym = z.shape
    cells = np.zeros((trials, k, n_sym - w + 1),
                     dtype=np.min_scalar_type(z_size ** w))
    for off in range(w):
        cells *= z_size
        # symbols are < z_size, so casting a wider z into the cells is exact
        np.add(cells, z[:, :, off:n_sym - w + 1 + off], out=cells,
               casting="unsafe")
    return cells


def _count_rows(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Per-row histogram of cell indices: (rows, n) -> (rows, n_cells), int32."""
    flat = cells + np.arange(len(cells))[:, None] * n_cells
    return np.bincount(flat.reshape(-1), minlength=len(cells) * n_cells).reshape(
        len(cells), n_cells).astype(np.int32)


def _window_tv(counts: np.ndarray, boot: np.ndarray,
               target: np.ndarray) -> tuple[float, float, float]:
    """Plug-in TV of pooled window counts vs target, with bootstrap CI.

    ``boot`` holds the replicates' window counts, one row each.
    """
    tv = float(np.abs(counts / counts.sum() - target).sum())
    tvs = np.abs(boot / boot.sum(axis=1, keepdims=True) - target).sum(axis=1)
    return (tv, *_percentile_ci(tvs))


def _percentile_ci(x: np.ndarray) -> tuple[float, float]:
    """``np.percentile(x, [2.5, 97.5])`` bit for bit, from one sort: numpy's
    ``linear`` index (n - 1) q and both branches of its lerp, without the
    ``numpy.ma`` import that numpy's own call makes through ``np.unique``.
    """
    s = np.sort(x, axis=None)
    ends = []
    for q in (2.5 / 100, 97.5 / 100):
        v = (s.size - 1) * q
        i = math.floor(v)
        a, b, t = float(s[i]), float(s[min(i + 1, s.size - 1)]), v - i
        ends.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return (float(s[-1]),) * 2 if np.isnan(s[-1]) else tuple(ends)


def _recycled_cells(bt: BatchTranscript, code: MacCode,
                    rec_bits: int) -> tuple[np.ndarray, int]:
    """First recycled bits of blocks 2..k as cells (k-1, trials), and their count."""
    # the first rec_bits of the streams' bits side by side lie in the first
    # rec_bits of each, and only those are unpacked
    recycled = bt.unpacked("recycled", first=rec_bits)
    recs = [np.concatenate([recycled[s.name][i] for s in code.plan.streams],
                           axis=1)
            for i in range(bt.k - 1)]
    b = min(rec_bits, recs[0].shape[1])
    return np.stack([bits_to_index(rec[:, :b]) for rec in recs]), 1 << b


def transcript_features(
    code: MacCode,
    bt: BatchTranscript,
    *,
    window: int = 2,
    rec_bits: int = 3,
) -> dict:
    """Fixed-size count tables of a batch of transcripts.

    ``trials`` is the trial count.  For w = 1 and ``window``, ``win{w}``
    counts the sliding w-symbol output windows of all trials; ``mom`` is
    sum_t h_t h_t^T over the trials' rows h_t of those counts, both widths
    side by side.  With k >= 2 and recycled bits, ``rec_pairs`` and
    ``out_pairs`` (k-1, cells) count the cells of each block pair's
    dependence checks.  The tables are exact integers, sized by the code and
    flags alone, so those of disjoint batches add up to those of their union.
    """
    z_size = code.channel.output_alphabet.size
    trials, k, n_sym = bt.channel_out.shape
    if window > n_sym:
        raise ValueError(f"window {window} is longer than the block "
                         f"length {n_sym}")
    feats: dict = {"trials": trials}
    widths = sorted({1, window})
    bounds = np.cumsum([0] + [z_size ** w for w in widths])
    counts = np.zeros(bounds[-1], dtype=np.int64)
    mom = np.zeros((bounds[-1], bounds[-1]), dtype=np.int64)
    # a row slice of trials at a time: each trial's counts of both widths
    # side by side, added into the pooled counts and their second moments
    for sl in row_slices(trials, k * n_sym):
        h = np.empty((sl.stop - sl.start, bounds[-1]), dtype=np.int64)
        for w, lo, hi in zip(widths, bounds, bounds[1:]):
            cells = _window_cells(bt.channel_out[sl], z_size, w)
            h[:, lo:hi] = _count_rows(cells.reshape(len(cells), -1), hi - lo)
        counts += h.sum(axis=0)
        mom += h.T @ h   # integer matmul: exact, no BLAS
    for w, lo, hi in zip(widths, bounds, bounds[1:]):
        feats[f"win{w}"] = counts[lo:hi]
    if k >= 2 and bt.recycled:
        # first and last windows of each block, intp: pair cells reach zc^2
        z_first, z_last = (
            _window_cells(bt.channel_out[:, :, j:j + window], z_size,
                          window)[:, :, 0].T.astype(np.intp)
            for j in (0, n_sym - window))
        rec_e, ec = _recycled_cells(bt, code, rec_bits)
        zc = z_size ** window
        feats["rec_pairs"] = _count_rows(rec_e * zc + z_last[:-1], ec * zc)
        feats["out_pairs"] = _count_rows(z_last[:-1] * zc + z_first[1:], zc * zc)
    feats["mom"] = mom
    return feats


def mc_chunk_features(
    code: MacCode,
    n_trials: int,
    rng: np.random.Generator,
    *,
    window: int = 2,
    rec_bits: int = 3,
    recycle: bool = True,
) -> dict:
    """Simulate one chunk of trials from ``rng`` and return its count tables.

    The chunk draws only its trials; every bootstrap replicate is drawn by
    ``assemble_mc_metrics`` from the tables summed over all chunks.
    ``recycle=False`` is the fresh-seed ablation.
    """
    return transcript_features(
        code, run_trials(code, n_trials, rng, recycle=recycle),
        window=window, rec_bits=rec_bits)


def _replicates(counts: np.ndarray, n_boot: int, rng: np.random.Generator,
                mom: np.ndarray | None = None) -> np.ndarray:
    """``n_boot`` Gaussian-multiplier bootstrap replicates of pooled counts.

    With i.i.d. N(1, 1) trial weights a replicate is N(counts, mom), the mean
    and covariance of Poisson(1) weights: counts + (Z sqrt(L)) V^T with
    mom = V L V^T over the cells with a count; the others stay exactly 0.
    ``mom=None`` is a table to which each trial adds one count: diag(counts).
    """
    if mom is None:
        return counts + np.sqrt(counts) * rng.standard_normal((n_boot, counts.size))
    on = np.flatnonzero(counts)
    lam, vec = np.linalg.eigh(mom[np.ix_(on, on)].astype(np.float64))
    reps = np.zeros((n_boot, counts.size))
    reps[:, on] = counts[on] + (rng.standard_normal((n_boot, on.size))
                                * np.sqrt(np.maximum(lam, 0))) @ vec.T
    return reps


def assemble_mc_metrics(
    code: MacCode,
    feats: dict,
    rng: np.random.Generator,
    *,
    window: int = 2,
    n_boot: int = 1000,
) -> list[MetricRow]:
    """Metrics with bootstrap CIs from the count tables of all trials.

    ``feats`` is ``transcript_features`` of all trials or the sum of those of
    its chunks.  Window TVs against the i.i.d. target (lower-bound proxies
    for the full-block distance) read ``win{w}``; when ``rec_pairs`` is
    present, for each block i >= 2 the dependence checks are the TV between
    the joint of (first recycled bits, last output window of block i-1) and
    the product of its marginals, and likewise for adjacent output windows.
    ``n_boot`` Gaussian-multiplier replicates (``_replicates``) come from
    ``rng``: first those of both widths' window counts, jointly from
    ``mom``, then those of each block's recycled and then output pair table.
    """
    trials = int(feats["trials"])
    if trials < 1000:
        raise ValueError(f"need >= 1000 trials for stable estimates, got {trials}")
    qz = target_output_dist(code.channel, list(code.input_dists)).pmf
    widths = sorted({1, window})
    wins = [feats[f"win{w}"] for w in widths]
    reps = _replicates(np.concatenate(wins), n_boot, rng, feats["mom"])
    bounds = np.cumsum([len(c) for c in wins])[:-1]
    out: list[MetricRow] = []
    for w, counts, boot in zip(widths, wins, np.split(reps, bounds, axis=1)):
        tv, lo, hi = _window_tv(counts, boot, _times_iid(np.array([1.0]), qz, w))
        name = "symbol_marginal_tv" if w == 1 else f"windowed_tv_w{w}"
        out.append(MetricRow(name, tv, lo, hi, trials, "mc"))
    if "rec_pairs" in feats:
        zc = code.channel.output_alphabet.size ** window
        rec_rows, zz_rows = [], []
        for rec, zz in zip(feats["rec_pairs"], feats["out_pairs"]):
            rec_rows.append(_pair_tv(rec, len(rec) // zc, zc, n_boot, rng))
            zz_rows.append(_pair_tv(zz, zc, zc, n_boot, rng))
        families = (("recycled_independence_tv", rec_rows),
                    ("interblock_output_tv", zz_rows))
        for name, rows in families:
            for i, (tv, lo, hi) in enumerate(rows, start=2):
                out.append(MetricRow(f"{name}_block{i}", tv, lo, hi, trials,
                                     "mc"))
        for name, rows in families:
            mean = [float(np.mean([r[j] for r in rows])) for j in range(3)]
            out.append(MetricRow(f"{name}_mean", *mean, trials, "mc"))
    return out


def _pair_tv(counts: np.ndarray, na: int, nb: int, n_boot: int,
             rng: np.random.Generator) -> tuple[float, float, float]:
    """TV between a joint of two indices, as cell counts, and the product of
    its marginals, with bootstrap CI.

    Each trial adds one count to one cell, so a replicate's cells are
    independent N(n_c, n_c), drawn per cell, not per trial.  The replicates
    are drawn and reduced one ``row_slices`` slice at a time: the draws fill
    C order one value after another and every reduction is per replicate, so
    the TVs, and the generator state, are those of one (n_boot, cells) draw.
    """
    stat = lambda c: _dependence_tv((c / c.sum(axis=-1, keepdims=True))
                                    .reshape(*c.shape[:-1], na, nb))
    tv = float(stat(counts.astype(np.float64)))
    boot = [stat(_replicates(counts, sl.stop - sl.start, rng))
            for sl in row_slices(n_boot, counts.size)]
    return (tv, *_percentile_ci(np.concatenate(boot)))


# -- leftover-hash bound check ----------------------------------------------------


def lhl_bound_check(
    joint: JointDist,
    hash_lens: list[int],
    rng: np.random.Generator,
    n_hashes: int = 100,
) -> tuple[float, float, bool]:
    """Average exact hashed-joint TV against the distributed leftover-hash bound.

    ``joint`` is over (X_1, .., X_L, Z) with axis l of size 2^{n_l}; sampled
    hash tuples map it exactly to (E_1, .., E_L, Z), whose distance to
    uniform x q_Z is averaged over the tuples and compared with
    sqrt(sum_S 2^{r_S - Hmin(p_{X_S, Z} | q_Z)}) over non-empty subsets.
    """
    n_users = joint.n_axes - 1
    if len(hash_lens) != n_users:
        raise ValueError(f"{len(hash_lens)} hash lengths for {n_users} sources")
    in_lens = [exact_log2(joint.axes[l].size, f"axis {l} size")
               for l in range(n_users)]
    # drawn first, as the loop drew them: sample_hash refuses r > n_l early
    tuples = [[sample_hash(rng, n_l, r) for n_l, r in zip(in_lens, hash_lens)]
              for _ in range(n_hashes)]
    q_z = joint.marginal_dist(n_users)

    bound_sq = 0.0
    for r in range(1, n_users + 1):
        for s in itertools.combinations(range(n_users), r):
            marg = joint.marginal(list(s) + [n_users])
            h_min = min_entropy_conditional(marg, q_z)
            r_s = sum(hash_lens[l] for l in s)
            bound_sq += 2.0 ** (r_s - h_min)
    bound = math.sqrt(bound_sq)

    total_r = sum(hash_lens)
    ideal = np.full((1 << total_r,), 2.0 ** (-total_r))[:, None] * q_z.pmf[None, :]
    tv_sum = 0.0
    for hs in tuples:
        hashed = hashed_joint_dist_exact(hs, joint)
        flat = hashed.pmf.reshape(1 << total_r, q_z.alphabet.size)
        tv_sum += float(np.abs(flat - ideal).sum())
    tv_avg = tv_sum / n_hashes
    return tv_avg, bound, tv_avg <= bound
