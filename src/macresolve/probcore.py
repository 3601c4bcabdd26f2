"""Exact finite-alphabet probability kernel.

Dense pmf types (:class:`Dist`, :class:`JointDist`), discrete memoryless
multiple-access channels (:class:`MacChannel`), and the information measures
everything else is built on.  All logarithms are base 2; every quantity is in
bits.  Variational distance follows the unnormalized convention
``V(p, q) = sum |p - q|`` with range [0, 2]; callers wanting total variation
must halve.

All stochastic operations take an explicit ``numpy.random.Generator``;
nothing here touches global RNG state.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Alphabet",
    "Dist",
    "JointDist",
    "MacChannel",
    "BudgetError",
    "InfeasibleTargetError",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "variational_distance",
    "min_entropy_conditional",
    "target_output_dist",
    "transmit",
    "row_slices",
    "bits_to_index",
    "index_to_bits",
    "all_bit_rows",
    "make_rng",
    "channel_from_json",
    "channel_to_json",
    "load_channel_file",
    "json_reader",
    "read_numbers",
    "read_json_file",
]

PMF_ATOL = 1e-12  # normalization tolerance on construction
SLICE_ENTRIES = 1 << 16  # entries per slice of work over a batch of trials


EXACT_STATE_BUDGET = 1 << 24  # float64 entries an exact table holds at once


class BudgetError(RuntimeError):
    """Raised when an exact enumeration would exceed its state budget."""


class InfeasibleTargetError(ValueError):
    """Raised when a requested rate point lies outside the feasible interval."""


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet of ``size`` symbols 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")


BIT = Alphabet(2)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _check_pmf(pmf: np.ndarray, renormalize: bool) -> np.ndarray:
    if not np.all(np.isfinite(pmf)):
        raise ValueError("pmf has non-finite entries")
    if np.any(pmf < 0):
        worst = float(pmf.min())
        if worst < -PMF_ATOL:
            raise ValueError(f"pmf has negative entry {worst}")
        pmf = np.clip(pmf, 0.0, None)
    total = float(pmf.sum())
    if abs(total - 1.0) > PMF_ATOL:
        if not renormalize:
            raise ValueError(f"pmf mass {total} differs from 1 by more than {PMF_ATOL}")
        if total <= 0:
            raise ValueError("cannot renormalize a zero-mass pmf")
        pmf = pmf / total
    return pmf


@dataclass(frozen=True)
class Dist:
    """Exact pmf over one finite alphabet.

    Parameters
    ----------
    alphabet : Alphabet
    pmf : array-like of float
        Probabilities, length ``alphabet.size``; must sum to 1 within 1e-12
        unless ``renormalize=True``.
    """

    alphabet: Alphabet
    pmf: np.ndarray
    renormalize: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != (self.alphabet.size,):
            raise ValueError(
                f"pmf shape {pmf.shape} does not match alphabet size {self.alphabet.size}"
            )
        object.__setattr__(self, "pmf", _frozen(_check_pmf(pmf, self.renormalize)))

    @staticmethod
    def bernoulli(p: float) -> "Dist":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Bernoulli parameter must be in [0,1], got {p}")
        return Dist(BIT, np.array([1.0 - p, p]))

    @staticmethod
    def uniform(size: int) -> "Dist":
        return Dist(Alphabet(size), np.full(size, 1.0 / size))

    @staticmethod
    def point_mass(size: int, symbol: int) -> "Dist":
        pmf = np.zeros(size)
        pmf[symbol] = 1.0
        return Dist(Alphabet(size), pmf)


@dataclass(frozen=True)
class JointDist:
    """Exact pmf over an ordered product of finite alphabets.

    ``pmf`` is a dense tensor; axis ``i`` ranges over ``axes[i]``.  Intended
    scale is a handful of axes with small alphabets, so no sparsity.
    """

    axes: tuple[Alphabet, ...]
    pmf: np.ndarray
    renormalize: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        pmf = np.asarray(self.pmf, dtype=np.float64)
        shape = tuple(a.size for a in axes)
        if pmf.shape != shape:
            raise ValueError(f"pmf shape {pmf.shape} does not match axes {shape}")
        object.__setattr__(self, "pmf", _frozen(_check_pmf(pmf, self.renormalize)))

    @property
    def n_axes(self) -> int:
        return len(self.axes)

    def marginal(self, keep_axes: Sequence[int]) -> "JointDist":
        """Marginalize onto ``keep_axes`` (order preserved as given)."""
        keep = list(keep_axes)
        _check_axes(self, keep)
        drop = tuple(i for i in range(self.n_axes) if i not in keep)
        summed = self.pmf.sum(axis=drop) if drop else self.pmf
        # reorder surviving axes to the requested order
        survivors = [i for i in range(self.n_axes) if i not in drop]
        perm = [survivors.index(i) for i in keep]
        return JointDist(
            tuple(self.axes[i] for i in keep),
            np.transpose(summed, perm),
            renormalize=True,
        )

    def marginal_dist(self, axis: int) -> Dist:
        return Dist(self.axes[axis], self.marginal([axis]).pmf, renormalize=True)

    @staticmethod
    def product(dists: Sequence[Dist]) -> "JointDist":
        pmf = np.array(1.0)
        for d in dists:
            pmf = np.multiply.outer(pmf, d.pmf)
        return JointDist(tuple(d.alphabet for d in dists), pmf.reshape(
            tuple(d.alphabet.size for d in dists)))


@dataclass(frozen=True)
class MacChannel:
    """Discrete memoryless MAC ``q_{Z | X_1 .. X_L}``.

    ``transition`` has shape ``(|X_1|, ..., |X_L|, |Z|)``; every conditional
    row is a valid pmf.
    """

    input_alphabets: tuple[Alphabet, ...]
    output_alphabet: Alphabet
    transition: np.ndarray

    def __post_init__(self):
        inputs = tuple(self.input_alphabets)
        object.__setattr__(self, "input_alphabets", inputs)
        if len(inputs) < 1:
            raise ValueError("a channel needs at least one input")
        t = np.asarray(self.transition, dtype=np.float64)
        shape = tuple(a.size for a in inputs) + (self.output_alphabet.size,)
        if t.shape != shape:
            raise ValueError(f"transition shape {t.shape}, expected {shape}")
        rows = t.reshape(-1, self.output_alphabet.size)
        if not np.all(np.isfinite(rows)):
            raise ValueError("transition has non-finite entries")
        if np.any(rows < -PMF_ATOL):
            raise ValueError("transition has negative entries")
        bad = np.abs(rows.sum(axis=1) - 1.0) > 1e-9
        if np.any(bad):
            raise ValueError(
                f"transition rows {np.nonzero(bad)[0].tolist()} do not sum to 1"
            )
        object.__setattr__(self, "transition", _frozen(np.clip(t, 0.0, None)))

    @property
    def n_users(self) -> int:
        return len(self.input_alphabets)

    def joint_with_output(self, inputs: Sequence[Dist]) -> JointDist:
        """Joint pmf over (X_1, ..., X_L, Z) for independent inputs."""
        _check_inputs(self, inputs)
        pin = JointDist.product(list(inputs)).pmf
        joint = pin[..., None] * self.transition
        return JointDist(self.input_alphabets + (self.output_alphabet,), joint)


def _check_axes(j: JointDist, axes: Iterable[int]) -> None:
    seen = set()
    for a in axes:
        if not 0 <= a < j.n_axes:
            raise ValueError(f"axis {a} out of range for {j.n_axes} axes")
        if a in seen:
            raise ValueError(f"axis {a} repeated")
        seen.add(a)


def _check_inputs(ch: MacChannel, inputs: Sequence[Dist]) -> None:
    if len(inputs) != ch.n_users:
        raise ValueError(f"{len(inputs)} input dists for {ch.n_users}-user channel")
    for i, (d, a) in enumerate(zip(inputs, ch.input_alphabets)):
        if d.alphabet.size != a.size:
            raise ValueError(
                f"input {i} alphabet size {d.alphabet.size} != channel's {a.size}"
            )


def _plogp(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def entropy(d: Dist | JointDist) -> float:
    """Shannon entropy in bits, with 0 log 0 := 0."""
    return _plogp(np.asarray(d.pmf).ravel())


def conditional_entropy(
    j: JointDist, target_axes: Sequence[int], given_axes: Sequence[int] = ()
) -> float:
    """H(target | given) = H(target, given) - H(given), in bits.

    Axis sets must be disjoint.  Always >= 0 up to roundoff.
    """
    t, g = list(target_axes), list(given_axes)
    _check_axes(j, t + g)
    h_tg = _plogp(j.marginal(t + g).pmf.ravel())
    h_g = _plogp(j.marginal(g).pmf.ravel()) if g else 0.0
    return h_tg - h_g


def mutual_information(
    j: JointDist,
    axes_a: Sequence[int],
    axes_b: Sequence[int],
    given_axes: Sequence[int] = (),
) -> float:
    """I(A; B | G) = H(A | G) - H(A | B, G), in bits, clipped to [0, inf).

    Raises if the result is below -1e-12 (a genuine numerical problem rather
    than roundoff negativity).
    """
    a, b, g = list(axes_a), list(axes_b), list(given_axes)
    _check_axes(j, a + b + g)
    mi = conditional_entropy(j, a, g) - conditional_entropy(j, a, b + g)
    if mi < -1e-12:
        raise ValueError(f"mutual information {mi} is significantly negative")
    return mi if mi > 0.0 else 0.0


def variational_distance(p: Dist | JointDist, q: Dist | JointDist) -> float:
    """Unnormalized L1 distance sum |p - q|, range [0, 2] (twice the TV)."""
    pa, qa = np.asarray(p.pmf), np.asarray(q.pmf)
    if pa.shape != qa.shape:
        raise ValueError(f"shape mismatch {pa.shape} vs {qa.shape}")
    return float(np.abs(pa - qa).sum())


def min_entropy_conditional(w: JointDist, ref_q: Dist) -> float:
    """Conditional min-entropy -log2 max w(t, z) / ref_q(z), in bits.

    The last axis of ``w`` is the conditioning variable; ``ref_q`` is a
    reference pmf over that axis whose support must contain the support of
    ``w``'s marginal on it.
    """
    if w.axes[-1].size != ref_q.alphabet.size:
        raise ValueError(
            f"conditioning axis size {w.axes[-1].size} != ref size {ref_q.alphabet.size}"
        )
    table = w.pmf.reshape(-1, w.axes[-1].size)
    z_marg = table.sum(axis=0)
    off_support = (ref_q.pmf <= 0) & (z_marg > 0)
    if np.any(off_support):
        raise ValueError(
            f"w puts mass on z symbols {np.nonzero(off_support)[0].tolist()} "
            "outside supp(ref_q)"
        )
    on = ref_q.pmf > 0
    ratio = table[:, on] / ref_q.pmf[on]
    peak = float(ratio.max())
    if peak <= 0:
        raise ValueError("w is identically zero on supp(ref_q)")
    return float(-np.log2(peak))


def target_output_dist(ch: MacChannel, inputs: Sequence[Dist]) -> Dist:
    """Exact channel-output pmf for independent per-user input pmfs."""
    _check_inputs(ch, inputs)
    pin = JointDist.product(list(inputs)).pmf
    out = np.tensordot(pin, ch.transition, axes=(tuple(range(ch.n_users)),
                                                 tuple(range(ch.n_users))))
    return Dist(ch.output_alphabet, out, renormalize=True)


def row_slices(n_rows: int, row_size: int):
    """Consecutive slices over ``n_rows`` rows of ``row_size`` entries each,
    of about ``SLICE_ENTRIES`` entries (at least one row) per slice."""
    step = max(1, SLICE_ENTRIES // max(row_size, 1))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def transmit(
    ch: MacChannel, codewords: Sequence[np.ndarray], rng: np.random.Generator,
    *, out: np.ndarray | None = None,
) -> np.ndarray:
    """Send L parallel length-N input sequences through the memoryless channel.

    Position i of the output depends only on position i of the inputs; each
    position is an independent draw from the matching conditional row.  The
    output goes into ``out`` (the words' shape, any integer dtype that holds
    |Z| - 1) if given, else into a new int64 array, and is returned.  A
    caller that needs less memory per call sends ``row_slices`` of the words
    one call at a time: ``rng.random`` fills C order one value after another,
    so the calls draw the same stream as one call on the whole words.
    """
    # integer words index the tables as they are, without an int64 copy
    words = [np.asarray(c) for c in codewords]
    words = [w if w.dtype.kind in "iu" else w.astype(np.int64) for w in words]
    if len(words) != ch.n_users:
        raise ValueError(f"{len(words)} codewords for {ch.n_users}-user channel")
    shape = words[0].shape
    for i, w in enumerate(words):
        if w.shape != shape:
            raise ValueError("codeword length mismatch")
        if w.size and ((w.dtype.kind == "i" and w.min() < 0)
                       or w.max() >= ch.input_alphabets[i].size):
            raise ValueError(f"codeword {i} has symbols outside its alphabet")
    if out is None:
        out = np.empty(shape, dtype=np.int64)
    elif out.shape != shape:
        raise ValueError(f"output shape {out.shape}, words have {shape}")
    if words[0].size == 0:
        return out
    # inverse CDF per position: the output counts the entries of the joint
    # input's cumulative row that the draw reaches.  A draw in [0, 1) always
    # reaches an entry <= 0 and never one >= 1, so the columns of only such
    # entries are counted per joint input, not compared per position.  The
    # last column is not counted: rows are nondecreasing, so reaching it
    # means reaching every other one, and the count stops at |Z| - 1.
    cum = np.cumsum(ch.transition, axis=-1).reshape(
        -1, ch.output_alphabet.size)[:, :-1]
    sure = np.all((cum <= 0) | (cum >= 1), axis=0)
    base = (cum[:, sure] <= 0).sum(axis=1).astype(out.dtype)
    cols = cum[:, ~sure].T
    joint_type = np.min_scalar_type(len(cum))   # holds every alphabet size
    u = rng.random(size=shape)
    joint = words[0].astype(joint_type)
    for w, a in zip(words[1:], ch.input_alphabets[1:]):
        joint *= a.size
        np.add(joint, w, out=joint, casting="unsafe")  # w < a.size
    out[...] = base[joint]
    for col in cols:
        out += u >= col[joint]
    return out


# -- bit-sequence <-> integer index conventions ------------------------------
#
# A length-n bit sequence maps to an integer with bit 1 of the sequence as the
# most significant bit.  Channel-spec transition rows use the same order over
# input tuples (x_1 most significant).


def bits_to_index(bits: np.ndarray) -> np.ndarray:
    """Pack bit rows (..., n) into integers, first bit most significant."""
    bits = np.asarray(bits)
    n = bits.shape[-1]
    if n == 0:
        return np.zeros(bits.shape[:-1], dtype=np.int64)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return (bits.astype(np.int64) * weights).sum(axis=-1)


def index_to_bits(idx: np.ndarray | int, n: int) -> np.ndarray:
    """Unpack integers into bit rows (..., n), first bit most significant."""
    idx = np.asarray(idx, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx[..., None] >> shifts) & 1).astype(np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """``np.packbits(bits, axis=-1)``: bit rows (..., n) eight to a byte, first
    bit most significant, pad bits 0.  Padded to whole bytes, the rows pack in
    one flat pass, several times faster than numpy's pass along an axis."""
    n_bytes = -(-bits.shape[-1] // 8)
    padded = np.zeros(bits.shape[:-1] + (8 * n_bytes,), dtype=np.uint8)
    padded[..., :bits.shape[-1]] = bits
    return np.packbits(padded.reshape(-1)).reshape(bits.shape[:-1] + (n_bytes,))


def unpack_bits(packed: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each row of ``pack_bits`` output, (..., n), as
    a new array; only the bytes that hold them are unpacked."""
    packed = packed[..., :-(-n // 8)]
    bits = np.unpackbits(packed.reshape(-1)).reshape(
        packed.shape[:-1] + (8 * packed.shape[-1],))
    return bits if n % 8 == 0 else np.ascontiguousarray(bits[..., :n])


def exact_log2(size: int, what: str = "N") -> int:
    """n with size = 2^n, a numpy integer read as its int; any other
    ``size``, a float or a bool too, is refused, naming ``what``."""
    try:
        n = -1 if isinstance(size, bool) else operator.index(size)
    except TypeError:
        n = -1
    n_exp = n.bit_length() - 1
    if n < 1 or 1 << n_exp != n:
        raise ValueError(f"{what} must be a power of two, got {size}")
    return n_exp


def all_bit_rows(n: int) -> np.ndarray:
    """All 2^n bit rows in index order, shape (2^n, n)."""
    return index_to_bits(np.arange(1 << n), n)


# -- RNG ----------------------------------------------------------------------


def make_rng(seed: int | np.random.SeedSequence | None) -> np.random.Generator:
    """Named seedable generator; the single entry point for randomness."""
    return np.random.default_rng(seed)


# -- JSON documents --------------------------------------------------------------


def json_reader(doc, what: str, hint: str = ""):
    """``read(kind, *path)``: the field ``doc[path[0]][path[1]]...``.

    ``kind`` is a type or a tuple of types, matched exactly (a bool is no
    int, an int no float; a lone float must be finite).  A missing field, or
    one of another JSON type, raises ValueError naming its path in ``what``.
    """
    def fail(path, problem):
        where = "".join(f"[{key!r}]" for key in path)
        raise ValueError(f"{what} field {where} {problem}{hint}")

    def read(kind, *path):
        value = doc
        if path:   # a str key reads an object, an int key an array
            key = path[-1]
            holder = read(dict if isinstance(key, str) else list, *path[:-1])
            if key not in (holder if type(holder) is dict else range(len(holder))):
                fail(path, "is missing")
            value = holder[key]
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if type(value) not in kinds or (kind is float
                                        and not math.isfinite(value)):
            fail(path, f"holds {reprlib.repr(value)}, not a valid "
                 + " or ".join(k.__name__ for k in kinds))
        return value
    return read


def read_numbers(read, *path) -> list:
    """The array at ``path`` of a ``json_reader``, of numbers (finite or not)."""
    values = read(list, *path)
    for i in (i for i, v in enumerate(values) if type(v) not in (int, float)):
        read((int, float), *path, i)   # raises, naming the entry
    return values


def read_json_file(path, what: str) -> dict:
    """The JSON object in file ``path``; ``what`` names the file in errors."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:   # not JSON, or not UTF-8 text
            raise ValueError(f"malformed {what} {path}: {e}") from None
    if type(doc) is not dict:
        raise ValueError(f"{what} {path} is not a JSON object")
    return doc


# -- channel spec file (JSON) --------------------------------------------------
#
# { "inputs": [2, 2], "output": 3, "transition": [[...], ...],
#   "input_dists": [[p0, p1], ...] }
# Transition rows are ordered lexicographically over input tuples with x_1
# most significant.


def channel_from_json(obj: dict, read=None, at: tuple = ()
                      ) -> tuple[MacChannel, list[Dist]]:
    """Channel (fields at path ``at``) and input laws, through ``json_reader``
    ``read`` of ``obj`` (by default, one naming a channel spec)."""
    read = read or json_reader(obj, "channel spec")
    sizes = [read(int, *at, "inputs", i)
             for i in range(len(read(list, *at, "inputs")))]
    out_size = read(int, *at, "output")
    n_rows = math.prod(sizes)
    rows = [read_numbers(read, *at, "transition", i)
            for i in range(len(read(list, *at, "transition")))]
    if len(rows) != n_rows or any(len(row) != out_size for row in rows):
        raise ValueError(
            f"transition must have shape ({n_rows}, {out_size}): one row of "
            f"{out_size} numbers per input tuple, in lexicographic order")
    ch = MacChannel(
        tuple(Alphabet(s) for s in sizes),
        Alphabet(out_size),
        np.asarray(rows, dtype=np.float64).reshape(tuple(sizes) + (out_size,)),
    )
    dists = []
    if "input_dists" in obj:
        raw = [read_numbers(read, "input_dists", i)
               for i in range(len(read(list, "input_dists")))]
        if len(raw) != len(sizes):
            raise ValueError(f"{len(raw)} input_dists for {len(sizes)} inputs")
        dists = [Dist(Alphabet(s), np.asarray(pmf, dtype=np.float64))
                 for s, pmf in zip(sizes, raw)]
    return ch, dists


def channel_to_json(ch: MacChannel, inputs: Sequence[Dist] | None = None) -> dict:
    obj = {
        "inputs": [a.size for a in ch.input_alphabets],
        "output": ch.output_alphabet.size,
        "transition": ch.transition.reshape(-1, ch.output_alphabet.size).tolist(),
    }
    if inputs is not None:
        obj["input_dists"] = [d.pmf.tolist() for d in inputs]
    return obj


def load_channel_file(path) -> tuple[MacChannel, list[Dist]]:
    return channel_from_json(read_json_file(path, "channel spec"))
