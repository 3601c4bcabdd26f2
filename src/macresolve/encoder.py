"""Block-Markov MAC-resolvability encoders.

Each stream runs a hash chain over k blocks of length N: block 1 is seeded
with fresh uniform bits at rate H(S) + eps, every later block re-seeds the
black-box source-resolvability codec with the two-universal hash of the
previous block's output sequence (rate H(S | side-info) - eps/2)
concatenated with fresh bits (rate I(S; side-info) + eps).  Every mode is the
same construction: one chain per user of a (possibly virtual) MAC, each
conditioned on Z and the users before it in a chain order, then one
channel word per real user.  ``_stream_specs`` is the only place that says
which channel, chain order, channel words and analysis (kept on the code as
``MacCode.channel_inputs`` and ``MacCode.analysis``) a mode has:

* case 1 (I(XY;Z) > I(X;Z) + I(Y;Z)): transmitter 2 is rate-split into
  virtual users U, V, the chains run on the virtual MAC (X, U, V) in the
  order (U, X, V), and transmitter 2 sends Y = max(U, V);
* case 2 (equality): transmitter 2 runs a single chain for Y directly,
  in the order (X, Y);
* L users: one chain per transmitter, chained in the user order that selects
  the targeted corner of the dominant face.

All bit lengths are tolerant ceilings of the real-valued formulas; the codec
input width is pinned to hash_len + rest-block fresh length so the chain
concatenation ties out exactly in integers.  At desk-scale N the analysis
epsilon makes some hash lengths negative; they clamp to zero and the plan is
flagged ``asymptotic_only``.  An idealized delta' (with xi', possibly 0) in
place of the analysis term lets the recycling mechanism run at small N anyway.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .hashing import ToeplitzHash, sample_hash
from .polar import EXACT_CAP_N, ResolvabilityCode, compute_profile, \
    encode_batch
from .probcore import Dist, JointDist, MacChannel, entropy, exact_log2, \
    make_rng, conditional_entropy, channel_from_json, channel_to_json, \
    json_reader, mutual_information, pack_bits, read_numbers, row_slices, \
    transmit, unpack_bits
from .ratesplit import SplitPoint, split_channel, split_rates, solve_eps

__all__ = [
    "StreamPlan",
    "LengthPlan",
    "Analysis",
    "MacCode",
    "BatchTranscript",
    "make_plan",
    "build_mac_code",
    "run_trials",
    "achieved_rates",
    "classify_two_user",
    "code_to_descriptor",
    "code_from_descriptor",
    "descriptor_hash",
]

CASE_TOL = 1e-9
PROFILE_SAMPLES = 1 << 14  # blocks per sampled profile, drawn once in build

# per channel user, in user order: (word name, streams it is the bitwise max of)
ChannelWords = tuple[tuple[str, tuple[str, ...]], ...]


def _ceil_bits(x: float) -> int:
    """Tolerant ceiling: absorbs 1e-9 of float fuzz before rounding up."""
    return max(0, math.ceil(x - 1e-9))


@dataclass(frozen=True)
class Analysis:
    """A code's finite-N analysis, the one definition of delta_N, delta0 and
    the bound family: the input sizes of the L-user MAC it is analysed as
    (two-user codes: the virtual MAC (X, U, V), sizes (|X|, |Y|, |Y|)), and
    c of its hash-uniformity term."""

    sizes: tuple[int, ...]
    hash_const: float

    def delta(self, block_len: int) -> float:
        """Concentration term log2(prod_l |X_l| + 3) sqrt((2/N)(L + log2 N))."""
        return math.log2(math.prod(self.sizes) + 3) * math.sqrt(
            (2.0 / block_len) * (len(self.sizes) + math.log2(block_len)))

    def delta0(self, block_len: int, xi: float) -> float:
        """Hash-uniformity term 2/N + c 2^(-N xi / 2)."""
        return 2.0 / block_len + \
            self.hash_const * 2.0 ** (-block_len * xi / 2.0)

    def delta_block(self, i: int, codec_tv: float, d0: float) -> float:
        """Per-block bound L(d + d0)(L^i - 1)/(L - 1) + L^(i+1) d."""
        ell = len(self.sizes)
        geom = float(i) if ell == 1 else (ell ** i - 1.0) / (ell - 1.0)
        return ell * (codec_tv + d0) * geom + ell ** (i + 1) * codec_tv

    def delta_recycle(self, i: int, codec_tv: float, d0: float) -> float:
        """Recycled-vs-previous-output bound 4 delta_{i-1} + 2 delta0."""
        return 4.0 * self.delta_block(i - 1, codec_tv, d0) + 2.0 * d0

    def delta_joint_recycle(self, i: int, codec_tv: float, d0: float) -> float:
        """Recycled-vs-all-previous-outputs bound (2^(i-1) - 1) delta_i^(1)."""
        return (2.0 ** (i - 1) - 1.0) * self.delta_recycle(i, codec_tv, d0)

    def joint_tv_bound(self, k: int, codec_tv: float, d0: float) -> float:
        """Whole-run bound (k-1) delta_k^(2) + k delta_k."""
        return (k - 1) * self.delta_joint_recycle(k, codec_tv, d0) + \
            k * self.delta_block(k, codec_tv, d0)


@dataclass(frozen=True)
class StreamPlan:
    """Length bookkeeping for one hash-chain stream."""

    name: str
    source_entropy: float        # H(S)
    recycle_entropy: float       # H(S | side info), sets the hash length
    fresh_info: float            # I(S; side info), sets rest-block fresh bits
    hash_len: int                # r_s, clamped at 0
    hash_len_unclamped: float    # N * (recycle_entropy - eps/2)
    seed_len_first: int          # fresh bits charged in block 1
    seed_len_rest: int           # fresh bits in blocks 2..k
    codec_width: int             # hash_len + seed_len_rest
    clamped: bool
    widened: bool = False


@dataclass(frozen=True)
class LengthPlan:
    """Complete length/rate plan for one block-Markov code."""

    block_len: int
    k: int
    xi: float
    eps: float
    delta: float
    mode: str                    # "case1" | "case2" | "multi"
    streams: tuple[StreamPlan, ...]
    idealized: bool = False

    @property
    def asymptotic_only(self) -> bool:
        return any(s.clamped for s in self.streams)

    def stream(self, name: str) -> StreamPlan:
        for s in self.streams:
            if s.name == name:
                return s
        raise KeyError(name)


def _plan_stream(
    name: str,
    h_source: float,
    h_recycle: float,
    i_fresh: float,
    block_len: int,
    eps: float,
    min_codec_width: int | None,
) -> StreamPlan:
    raw_hash = block_len * (h_recycle - eps / 2.0)
    hash_len = _ceil_bits(raw_hash)
    clamped = raw_hash < -1e-12
    seed_rest = _ceil_bits(block_len * (i_fresh + eps))
    width = hash_len + seed_rest
    widened = False
    if min_codec_width is not None and width < min_codec_width:
        seed_rest += min_codec_width - width
        width = min_codec_width
        widened = True
    seed_first = max(_ceil_bits(block_len * (h_source + eps)), width)
    return StreamPlan(
        name=name,
        source_entropy=h_source,
        recycle_entropy=h_recycle,
        fresh_info=i_fresh,
        hash_len=hash_len,
        hash_len_unclamped=raw_hash,
        seed_len_first=seed_first,
        seed_len_rest=seed_rest,
        codec_width=width,
        clamped=clamped,
        widened=widened,
    )


def classify_two_user(ch: MacChannel, p_x: Dist, p_y: Dist) -> str:
    """Dichotomy on I(XY;Z) vs I(X;Z) + I(Y;Z) at 1e-9 (strict gap: case 1)."""
    j = ch.joint_with_output([p_x, p_y])
    gap = mutual_information(j, [0, 1], [2]) - (
        mutual_information(j, [0], [2]) + mutual_information(j, [1], [2])
    )
    if gap < -CASE_TOL:
        raise AssertionError(
            f"I(XY;Z) below I(X;Z)+I(Y;Z) by {-gap}; inputs are not independent?"
        )
    return "case1" if gap > CASE_TOL else "case2"


Layout = tuple[JointDist, list[tuple[str, Dist, int, list[int]]],
               Analysis, ChannelWords, SplitPoint | None]


def _stream_specs(
    ch: MacChannel,
    inputs: Sequence[Dist],
    mode: str,
    eps_split: float | None,
    order: Sequence[int] | None,
) -> Layout:
    """The mode's joint law, chains, analysis, channel words and split.

    A mode names its (possibly virtual) channel, the law and stream name of
    each of its users, their plan order and chain order, and each real
    user's channel word in user order.  Case 1 splits Y at ``eps_split``
    (the one place a split is made) into the virtual MAC (X, U, V) of
    ``split_channel``, chained (U, X, V), and sends Y = max(U, V); case 2
    chains (X, Y); multi mode chains ``order`` (0-based), and user l sends
    stream ``x{l+1}``.  One rule then makes the chains, (name, source, axis,
    conditioning axes) in plan order: each stream is conditioned on Z and
    on the streams before it in the chain order.  Both two-user modes are
    analysed as the 3-user virtual MAC, sizes (|X|, |Y|, |Y|) and c = sqrt(7),
    multi mode as its L users with c = 2^(L/2).  Build, ``make_plan`` and
    load pass through here, so this is where a split outside case 1, an order
    outside multi mode and a two-user mode on another channel are refused.
    """
    if eps_split is not None and mode != "case1":
        raise ValueError(f"a rate split applies to case 1 only, not {mode}")
    if order is not None and mode != "multi":
        raise ValueError(f"a user order applies to multi mode only, not {mode}")
    if mode in ("case1", "case2") and ch.n_users != 2:
        raise ValueError(f"{mode} needs a two-user channel")
    split = None
    if mode == "case1":
        if eps_split is None:
            raise ValueError("case 1 needs a rate-split point")
        # Y is the last input; split_channel refuses all but two binary users
        split = split_rates(ch, inputs[0], float(inputs[-1].pmf[1]), eps_split)
        vch, names, chain = split_channel(ch), ("x", "u", "v"), (1, 0, 2)
        laws, plan = [inputs[0], split.p_u, split.p_v], (0, 1, 2)
    elif mode == "case2":
        vch, laws, names = ch, list(inputs), ("x", "y")
        plan = chain = (0, 1)
    elif mode == "multi":
        if order is None or sorted(order) != list(range(ch.n_users)):
            raise ValueError(
                f"order {order} is not a permutation of 0..{ch.n_users - 1}")
        vch, laws = ch, list(inputs)
        names = tuple(f"x{user + 1}" for user in range(ch.n_users))
        plan = chain = tuple(order)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    words = ((("x", ("x",)), ("y", ("u", "v"))) if mode == "case1"
             else tuple((name, (name,)) for name in names))
    specs = [(names[a], laws[a], a, [vch.n_users, *chain[:chain.index(a)]])
             for a in plan]
    sizes = tuple(a.size for a in ch.input_alphabets)
    analysis = (Analysis(sizes, 2.0 ** (len(sizes) / 2.0)) if mode == "multi"
                else Analysis(sizes + sizes[1:], math.sqrt(7.0)))
    return vch.joint_with_output(laws), specs, analysis, words, split


def make_plan(
    ch: MacChannel,
    inputs: Sequence[Dist],
    mode: str,
    block_len: int,
    k: int,
    xi: float,
    *,
    eps_split: float | None = None,
    order: Sequence[int] | None = None,
    delta: float | None = None,
) -> LengthPlan:
    """Length plan of one chain per stream of ``_stream_specs``.

    Case 1 needs ``eps_split``, multi mode ``order``.  Stream S on its axis
    recycles at H(S | conditioning) and draws I(S; conditioning) + eps fresh
    bits per rest block, computed exactly from the joint law, with
    eps = 2 (delta + xi).  ``delta`` None is the analysis term
    ``Analysis.delta``; a number replaces it (xi may then be 0) and
    marks the plan ``idealized``.
    """
    return _plan(_stream_specs(ch, inputs, mode, eps_split, order), mode,
                 block_len, k, xi, delta, {})


def _plan(layout: Layout, mode: str, block_len: int, k: int, xi: float,
          delta: float | None, min_widths: dict[str, int]) -> LengthPlan:
    """``make_plan`` on a ``_stream_specs`` layout.

    ``min_widths`` (per stream) raises rest-block fresh lengths to a codec's
    wider input, which only an idealized delta can need.
    """
    joint, specs, analysis, _, _ = layout
    block_len = 1 << exact_log2(block_len)   # a numpy integer plans as its int
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if xi <= 0 and delta is None:
        raise ValueError("xi must be > 0 (or pass an idealized delta)")
    plan_delta = analysis.delta(block_len) if delta is None else delta
    eps = 2.0 * (plan_delta + xi)
    streams = tuple(
        _plan_stream(name, entropy(src),
                     conditional_entropy(joint, [axis], given),
                     mutual_information(joint, [axis], given),
                     block_len, eps, min_widths.get(name))
        for name, src, axis, given in specs
    )
    return LengthPlan(block_len, k, xi, eps, plan_delta, mode, streams,
                      idealized=delta is not None)


@dataclass(frozen=True)
class MacCode:
    """A complete block-Markov MAC-resolvability code.

    ``codecs`` and ``hashes`` are keyed by stream name in plan order.
    ``channel_inputs`` gives, per channel user in user order, the word's
    name and the streams it is the bitwise max of, and ``analysis`` the
    finite-N analysis its bounds are read in.  ``user_order`` (multi
    mode) maps chain position to 0-based user index.  ``_assemble`` is its
    one constructor, and derives every field.
    """

    channel: MacChannel
    input_dists: tuple[Dist, ...]
    plan: LengthPlan
    split: SplitPoint | None
    codecs: dict[str, ResolvabilityCode]
    hashes: dict[str, ToeplitzHash]
    channel_inputs: ChannelWords
    analysis: Analysis
    user_order: tuple[int, ...] | None = None


def build_mac_code(
    ch: MacChannel,
    inputs: Sequence[Dist],
    *,
    mode: str = "auto",
    block_len: int,
    k: int,
    xi: float,
    beta: float = 0.25,
    target_r1: float | None = None,
    eps_split: float | None = None,
    order: Sequence[int] | None = None,
    delta: float | None = None,
    rng: np.random.Generator,
) -> MacCode:
    """Compose plan, rate split, polar profiles, and hashes into a MacCode.

    Mode ``auto`` resolves two-user channels to case1/case2 by the exact
    dichotomy, others to multi; the wrong case raises, and so does
    ``target_r1`` outside case 1 or with ``eps_split`` (``_stream_specs``
    refuses the rest).  Case 1 splits at ``eps_split``, at the eps
    ``solve_eps`` finds for ``target_r1``, or else at 0.5.  ``xi`` and
    ``delta`` are ``make_plan``'s.  This is the only place a code is
    profiled: beyond ``EXACT_CAP_N`` each stream samples ``PROFILE_SAMPLES``
    blocks from one seed drawn from ``rng``, with its plan position as spawn
    key.  Hash functions are sampled once here and stay fixed for all blocks
    and trials.
    """
    inputs = list(inputs)
    if target_r1 is not None and eps_split is not None:
        raise ValueError("give a rate split's eps or its target r1, not both")
    if mode in ("auto", "case1", "case2") and ch.n_users == 2:
        actual = classify_two_user(ch, inputs[0], inputs[1])
        if mode not in ("auto", actual):
            raise ValueError(
                f"channel is {actual} (dichotomy at {CASE_TOL}); refusing {mode}"
            )
        mode = actual
        if mode == "case1" and eps_split is None:
            eps_split = 0.5 if target_r1 is None else solve_eps(
                ch, inputs[0], float(inputs[1].pmf[1]), target_r1).eps
    elif mode == "auto":
        mode = "multi"
    if target_r1 is not None and mode != "case1":
        raise ValueError(f"a rate split's target r1 applies to case 1 only, "
                         f"not {mode}")
    if order is None and mode == "multi":
        order = range(ch.n_users)
    user_order = tuple(order) if order is not None else None
    block_len = 1 << exact_log2(block_len)   # a numpy integer builds as its int

    seed = int(rng.integers(0, 2 ** 63 - 1)) if block_len > EXACT_CAP_N else None

    def codec_of(idx: int, name: str, src: Dist,
                 n_exp: int) -> ResolvabilityCode:
        if seed is None:
            return compute_profile(src, n_exp, beta)
        child = np.random.SeedSequence(seed, spawn_key=(idx,))
        return compute_profile(src, n_exp, beta, mc_samples=PROFILE_SAMPLES,
                               rng=make_rng(child))

    return _assemble(ch, inputs, mode, block_len, k, xi, delta, eps_split,
                     user_order, codec_of,
                     lambda s: sample_hash(rng, block_len, s.hash_len))


def _assemble(ch: MacChannel, inputs: Sequence[Dist], mode: str,
              block_len: int, k: int, xi: float, delta: float | None,
              eps_split: float | None, user_order: tuple[int, ...] | None,
              codec_of: Callable[[int, str, Dist, int], ResolvabilityCode],
              hash_of: Callable[[StreamPlan], ToeplitzHash]) -> MacCode:
    """The code of ``make_plan``'s plan with the given codecs and hashes.

    ``codec_of(idx, name, source, n)`` gives the codec of the stream at plan
    position idx, and ``hash_of(stream_plan)`` its hash; the codecs' seed
    lengths are the plan's minimum codec widths.
    """
    layout = _stream_specs(ch, inputs, mode, eps_split, user_order)
    _, specs, analysis, words, split = layout
    n_exp = exact_log2(block_len)
    codecs = {name: codec_of(idx, name, src, n_exp)
              for idx, (name, src, _, _) in enumerate(specs)}
    plan = _plan(layout, mode, block_len, k, xi, delta,
                 {name: codec.seed_len for name, codec in codecs.items()})
    hashes = {s.name: hash_of(s) for s in plan.streams}
    return MacCode(ch, tuple(inputs), plan, split, codecs, hashes, words,
                   analysis, user_order=user_order)


# -- encoding ------------------------------------------------------------------


def _chain_encode(
    codec: ResolvabilityCode,
    h: ToeplitzHash,
    stream: StreamPlan,
    fresh: Sequence[np.ndarray],
    fresh_lens: Sequence[int],
    rng: np.random.Generator,
    recycle: bool,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run one stream's hash chain over k blocks, one unpacked block at a time.

    ``fresh[i]`` is the block-(i+1) fresh seed batch, ``fresh_lens[i]`` bits
    packed as in ``BatchTranscript``.  Block 1 feeds the codec its fresh bits,
    later blocks hash(previous block) and then the fresh bits; the codec reads
    the first ``seed_len`` of them.  With ``recycle=False`` the hash output is
    replaced by fresh uniform bits (ablation baseline).  Returns the packed
    (trials, k, N) blocks and recycled bits.
    """
    plan_lens = [stream.seed_len_first] + [stream.seed_len_rest] * (len(fresh) - 1)
    if list(fresh_lens) != plan_lens:
        raise ValueError(f"stream {stream.name}: seed widths {list(fresh_lens)}"
                         f" per block, plan says {plan_lens}")
    trials, n = len(fresh[0]), codec.block_len
    seqs = np.empty((trials, len(fresh), -(-n // 8)), dtype=np.uint8)
    recycled: list[np.ndarray] = []
    for i, (packed, width) in enumerate(zip(fresh, fresh_lens)):
        codec_in = unpack_bits(packed, width)
        if i > 0:
            if recycle:
                rec = h.apply_batch(unpack_bits(seqs[:, i - 1], n))
            else:
                rec = rng.integers(0, 2, size=(trials, stream.hash_len),
                                   dtype=np.uint8)
            recycled.append(pack_bits(rec))
            codec_in = np.concatenate([rec, codec_in], axis=1)
        seqs[:, i] = pack_bits(
            encode_batch(codec, codec_in[:, :codec.seed_len], rng))
    return seqs, recycled


@dataclass
class BatchTranscript:
    """Arrays for a batch of independent trials of one code, a row per trial.

    Bits are packed eight to a byte along the last axis (``np.packbits``,
    first bit in the MSB, pad bits 0): ``streams[name]`` (trials, k, N)
    blocks, ``fresh_seeds[name]`` k arrays of ``fresh_lens[name][i]`` bits
    and ``recycled[name]`` k-1 arrays of ``rec_lens[name][i]`` bits, which
    ``unpacked`` gives back one bit per uint8.  ``channel_out`` (trials, k, N)
    holds output symbols, uint8 if |Z| <= 256.
    """

    streams: dict[str, np.ndarray]
    fresh_seeds: dict[str, list[np.ndarray]]
    recycled: dict[str, list[np.ndarray]]
    channel_out: np.ndarray
    fresh_lens: dict[str, list[int]]
    rec_lens: dict[str, list[int]]

    @property
    def k(self) -> int:
        return self.channel_out.shape[1]

    def unpacked(self, part: str, first: float = math.inf) -> dict:
        """``streams`` as (trials, k, N) arrays, or the blocks of
        ``fresh_seeds`` or ``recycled`` as (trials, len) arrays, one bit per
        uint8; at most the ``first`` bits of each."""
        if part == "streams":
            n = min(self.channel_out.shape[-1], first)
            return {name: unpack_bits(a, n) for name, a in self.streams.items()}
        lens = self.fresh_lens if part == "fresh_seeds" else self.rec_lens
        return {name: [unpack_bits(a, min(w, first))
                       for a, w in zip(blocks, lens[name])]
                for name, blocks in getattr(self, part).items()}


def run_trials(
    code: MacCode,
    n_trials: int,
    rng: np.random.Generator,
    *, recycle: bool = True,
) -> BatchTranscript:
    """Draw seeds, run every chain, and transmit each block through the channel.

    Each user's channel word is the bitwise max of the streams
    ``code.channel_inputs`` names for it, the OR of their packed bytes; a word
    that is not itself a stream (case 1's Y) joins ``streams`` after the
    chains.  Deterministic given the generator state: seeds are drawn
    stream-major in plan order, chains encode in plan order, channel noise is
    drawn block by block.  Each block goes through ``transmit`` one
    ``row_slices`` slice of trials at a time, so only a slice of the words is
    unpacked; the slices draw the noise in the order of one call per block.
    """
    plan = code.plan
    fresh: dict[str, list[np.ndarray]] = {}
    fresh_lens: dict[str, list[int]] = {}
    for s in plan.streams:
        fresh[s.name], fresh_lens[s.name] = [], []
        for w in [s.seed_len_first] + [s.seed_len_rest] * (plan.k - 1):
            fresh[s.name].append(pack_bits(
                rng.integers(0, 2, size=(n_trials, w), dtype=np.uint8)))
            fresh_lens[s.name].append(w)
    streams: dict[str, np.ndarray] = {}
    recycled: dict[str, list[np.ndarray]] = {}
    for s in plan.streams:
        streams[s.name], recycled[s.name] = _chain_encode(
            code.codecs[s.name], code.hashes[s.name], s, fresh[s.name],
            fresh_lens[s.name], rng, recycle)
    words = []
    for word, parts in code.channel_inputs:
        if word not in streams:   # exact on packed bytes: pad bits are 0
            streams[word] = np.bitwise_or.reduce([streams[p] for p in parts])
        words.append(streams[word])
    n = plan.block_len
    small = code.channel.output_alphabet.size <= 256
    channel_out = np.empty((n_trials, plan.k, n),
                           dtype=np.uint8 if small else np.int64)
    for i in range(plan.k):
        for sl in row_slices(n_trials, n * len(words)):
            transmit(code.channel, [unpack_bits(w[sl, i], n) for w in words],
                     rng, out=channel_out[sl, i])
    return BatchTranscript(streams, fresh, recycled, channel_out, fresh_lens,
                           {s.name: [s.hash_len] * (plan.k - 1)
                            for s in plan.streams})


def achieved_rates(plan: LengthPlan) -> dict:
    """Exact rational per-stream rates plus the large-k limit formulas.

    R_s = (|E_1| + (k-1) |E_i|) / (k N) as a Fraction; the reported limit is
    fresh_info + eps evaluated in floating point.  A channel user's rate is
    the sum over the streams of its word in ``MacCode.channel_inputs``.
    """
    k, n = plan.k, plan.block_len
    per_stream = {}
    for s in plan.streams:
        total_bits = s.seed_len_first + (k - 1) * s.seed_len_rest
        per_stream[s.name] = {
            "rate": Fraction(total_bits, k * n),
            "rate_float": total_bits / (k * n),
            "total_fresh_bits": total_bits,
            "limit": s.fresh_info + plan.eps,
        }
    return {"per_stream": per_stream}


def tally_fresh_bits(bt: BatchTranscript) -> dict[str, int]:
    """Fresh-seed bits actually drawn per stream in one trial (replay check)."""
    return {name: sum(lens) for name, lens in bt.fresh_lens.items()}


# -- descriptor (de)serialization ----------------------------------------------


def code_to_descriptor(code: MacCode, build_hash: str) -> dict:
    """Self-contained JSON-able descriptor enabling bit-exact rebuild.

    It holds the plan, the hashes and each stream's profile entropies
    (``tolist`` float64, which JSON round-trips exactly), so a rebuild never
    profiles.  Its ``config_hash`` stamps the body with ``build_hash``.
    """
    body = _descriptor_body(code)
    return {**body, "config_hash": _stamp(build_hash, _body_json(body))}


def _descriptor_body(code: MacCode) -> dict:
    """The descriptor without its ``config_hash`` stamp."""
    plan = code.plan
    return {
        "mode": plan.mode,
        "block_len": plan.block_len,
        "k": plan.k,
        "xi": plan.xi,
        "eps": plan.eps,
        "delta": plan.delta,
        "idealized": plan.idealized,
        "asymptotic_only": plan.asymptotic_only,
        "streams": [s.__dict__.copy() for s in plan.streams],
        "channel": channel_to_json(code.channel),
        "input_dists": [d.pmf.tolist() for d in code.input_dists],
        "split": code.split.to_dict() if code.split else None,
        "hashes": {name: {"in_len": h.in_len, "out_len": h.out_len,
                          "hex": h.to_hex()}
                   for name, h in code.hashes.items()},
        "profiles": {name: {"n": c.n, "beta": c.beta,
                            "source": c.source.pmf.tolist(),
                            "exact": c.exact,
                            "cond_entropies": c.cond_entropies.tolist()}
                     for name, c in code.codecs.items()},
        "user_order": list(code.user_order) if code.user_order else None,
    }


def _stamp(build_hash: str, body_json: str) -> str:
    """The ``config_hash`` of a body (as ``_body_json``) under ``build_hash``."""
    body_hash = hashlib.sha256(body_json.encode()).hexdigest()[:16]
    return hashlib.sha256(f"{build_hash} {body_hash}".encode()).hexdigest()[:16]


def code_from_descriptor(desc: dict, build_hash: str) -> MacCode:
    """Rebuild a MacCode from its descriptor through ``build_mac_code``'s path.

    Only what build drew or chose is read back, through one typed reader
    that names a missing or mistyped field: channel, input laws, mode, N, k,
    xi (and delta if idealized), the split's eps (``_stream_specs`` makes
    the split from it, or refuses it outside case 1), the user order,
    profile entropies and hash bits.  The rebuilt code must serialize back
    to ``desc``, and a field that differs is named; last, the
    ``config_hash`` stamp must be the one ``build_hash`` gives this body.
    """
    read = json_reader(desc, "descriptor", "; rerun build")
    read(list, "input_dists")   # optional in a channel spec, not here
    ch, inputs = channel_from_json(desc, read, ("channel",))
    mode, split = read(str, "mode"), read((dict, type(None)), "split")
    eps_split = None if split is None else read(float, "split", "eps")
    order = read((list, type(None)), "user_order")
    if order is not None:
        order = tuple(read(int, "user_order", i) for i in range(len(order)))
    xi, block_len = read(float, "xi"), read(int, "block_len")
    delta = read(float, "delta") if read(bool, "idealized") else None

    def codec_of(idx: int, name: str, src: Dist,
                 n_exp: int) -> ResolvabilityCode:
        return ResolvabilityCode(
            src, n_exp, read(float, "profiles", name, "beta"),
            read_numbers(read, "profiles", name, "cond_entropies"),
            read(bool, "profiles", name, "exact"))

    code = _assemble(ch, inputs, mode, block_len, read(int, "k"), xi, delta,
                     eps_split, order, codec_of,
                     lambda s: ToeplitzHash.from_hex(
                         read(str, "hashes", s.name, "hex"), block_len,
                         s.hash_len))
    body = _descriptor_body(code)
    where = _first_difference(
        {**body, "config_hash": _stamp(build_hash, _body_json(body))}, desc)
    if where == "['config_hash']":
        raise ValueError(
            f"descriptor config_hash {desc.get('config_hash')!r} does not "
            f"stamp its body under this run's build config hash {build_hash}:"
            f" it was built under another config, or edited since; rerun build")
    if where is not None:
        raise ValueError(f"descriptor field {where} differs from the code its "
                         f"inputs derive; it was edited or written by another "
                         f"version, rerun build")
    return code


def _first_difference(built, stored, path: str = "") -> str | None:
    """Path of the first leaf where two JSON values differ, None if none does.

    Values compare by their JSON text, which keeps 1, 1.0 and true apart, and
    0.0 and -0.0; the walk descends only into a subtree whose text differs.
    """
    if json.dumps(built, sort_keys=True) == json.dumps(stored, sort_keys=True):
        return None
    if isinstance(built, list) and isinstance(stored, list):
        built, stored = dict(enumerate(built)), dict(enumerate(stored))
    if not (isinstance(built, dict) and isinstance(stored, dict)):
        return path
    for key in [*built, *(key for key in stored if key not in built)]:
        at = f"{path}[{key!r}]"
        if key not in built or key not in stored:
            return at
        found = _first_difference(built[key], stored[key], at)
        if found is not None:
            return found
    return None


def descriptor_hash(desc: dict) -> str:
    """Hash of the descriptor's code, its ``config_hash`` stamp left out."""
    return hashlib.sha256(_body_json(desc).encode()).hexdigest()[:16]


def _body_json(desc: dict) -> str:
    """Canonical JSON of the descriptor, its ``config_hash`` stamp left out."""
    return json.dumps({key: v for key, v in desc.items() if key != "config_hash"},
                      sort_keys=True)
