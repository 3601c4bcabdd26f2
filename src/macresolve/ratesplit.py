"""Rate splitting for the second transmitter of a two-user binary MAC.

The second user Y is split into two virtual users U, V with
Y = max(U, V), parameterized continuously by eps in [0, 1]:

    P(U = 1) = a(eps) = 1 - (1 - q)^eps
    P(V = 1) = b(eps) = 1 - (1 - q)^(1 - eps)

where q = P(Y = 1).  Then (1-a)(1-b) = 1-q exactly, so max(U, V) has the law
of Y for every eps.  At eps = 0 the U user degenerates to the constant 0 and
V carries Y; at eps = 1 the roles swap.  The split is a virtual 3-user MAC
(X, U, V) -> Z with q(z | x, u, v) = q(z | x, max(u, v)) (``split_channel``),
and its three rates, the corner of chain order (U, X, V),

    R1 = I(X; Z | U),  R_U = I(U; Z),  R_V = I(V; Z | U X)

always sum to I(XY; Z), and R1 sweeps the whole dominant-face interval
[I(X; Z), I(X; Z | Y)] as eps runs over [0, 1], so any point on the face is
reachable without time-sharing.

The q = 1 corner is the one discontinuity of this parameterization
(a(eps) jumps from 0 to 1 at eps = 0); it is flagged with a warning rather
than smoothed over.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .probcore import (
    BIT,
    Dist,
    InfeasibleTargetError,
    MacChannel,
    mutual_information,
)

__all__ = ["SplitPoint", "split_dists", "split_rates", "solve_eps",
           "split_channel"]

RATE_SUM_TOL = 1e-9
SOLVE_TOL = 1e-6


@dataclass(frozen=True)
class SplitPoint:
    """One point of the rate split: eps, the two virtual-user laws, and rates.

    ``rates`` is (R1, R_U, R_V) in bits.  R1 + R_U + R_V equals I(XY; Z) for
    the generating channel; ``split_rates`` enforces this at 1e-9.
    """

    eps: float
    p_u: Dist
    p_v: Dist
    rates: tuple[float, float, float]

    @property
    def r1(self) -> float:
        return self.rates[0]

    @property
    def r2(self) -> float:
        return self.rates[1] + self.rates[2]

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "a": float(self.p_u.pmf[1]),
            "b": float(self.p_v.pmf[1]),
            "r1": self.rates[0],
            "r_u": self.rates[1],
            "r_v": self.rates[2],
        }


def split_dists(q: float, eps: float) -> tuple[Dist, Dist]:
    """Virtual-user laws (p_U, p_V) with max(U, V) ~ Bern(q), exactly."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0,1], got {eps}")
    if q == 1.0:
        warnings.warn(
            "q = 1 corner: the split is discontinuous at eps = 0 "
            "(a jumps to 1 for any eps > 0)",
            stacklevel=2,
        )
    a = 1.0 - (1.0 - q) ** eps
    b = 1.0 - (1.0 - q) ** (1.0 - eps)
    return Dist.bernoulli(a), Dist.bernoulli(b)


def split_channel(ch: MacChannel) -> MacChannel:
    """The virtual MAC (X, U, V) -> Z with q(z | x, u, v) = q(z | x, max(u, v))."""
    if ch.n_users != 2:
        raise ValueError("rate splitting applies to two-user channels")
    if any(a.size != 2 for a in ch.input_alphabets):
        raise ValueError("rate splitting requires binary input alphabets")
    return MacChannel((BIT,) * 3, ch.output_alphabet,
                      ch.transition[:, np.maximum.outer([0, 1], [0, 1])])


def split_rates(ch: MacChannel, p_x: Dist, q: float, eps: float) -> SplitPoint:
    """Evaluate the split at one eps: the rates of the virtual MAC (X, U, V).

    Their sum is checked against I(XY; Z) of the real channel.
    """
    p_u, p_v = split_dists(q, eps)
    j = split_channel(ch).joint_with_output([p_x, p_u, p_v])   # (X, U, V, Z)
    r1 = mutual_information(j, [0], [3], [1])
    r_u = mutual_information(j, [1], [3])
    r_v = mutual_information(j, [2], [3], [1, 0])
    i_xy_z = mutual_information(
        ch.joint_with_output([p_x, Dist.bernoulli(q)]), [0, 1], [2])
    if abs(r1 + r_u + r_v - i_xy_z) > RATE_SUM_TOL:
        raise AssertionError(
            f"split-rate sum {r1 + r_u + r_v} != I(XY;Z) = {i_xy_z}"
        )
    return SplitPoint(eps, p_u, p_v, (r1, r_u, r_v))


def _r1_interval(ch: MacChannel, p_x: Dist, q: float) -> tuple[float, float]:
    """[I(X; Z), I(X; Z | Y)] of the real channel with Y ~ Bern(q)."""
    j = ch.joint_with_output([p_x, Dist.bernoulli(q)])
    return mutual_information(j, [0], [2]), mutual_information(j, [0], [2], [1])


def solve_eps(
    ch: MacChannel, p_x: Dist, q: float, target_r1: float
) -> SplitPoint:
    """Find eps with |R1(eps) - target_r1| <= 1e-6 bits.

    R1 is continuous in eps and its image contains
    [I(X; Z), I(X; Z|Y)]; targets outside that interval raise
    InfeasibleTargetError.  Only continuity is guaranteed (R1 need not be
    monotone), so a grid pre-scan locates a sign-change bracket and plain
    bisection finishes the job.
    """
    lo, hi = _r1_interval(ch, p_x, q)
    if not (lo - 1e-9 <= target_r1 <= hi + 1e-9):
        raise InfeasibleTargetError(
            f"target R1 = {target_r1} outside the achievable interval "
            f"[{lo}, {hi}]"
        )
    # exact endpoints short-circuit to the degenerate splits
    if abs(target_r1 - lo) <= 1e-12:
        return split_rates(ch, p_x, q, 0.0)
    if abs(target_r1 - hi) <= 1e-12:
        return split_rates(ch, p_x, q, 1.0)

    grid = np.linspace(0.0, 1.0, 65)
    pts = [split_rates(ch, p_x, q, float(e)) for e in grid]
    gaps = [p.r1 - target_r1 for p in pts]
    best = int(np.argmin(np.abs(gaps)))
    if abs(gaps[best]) <= SOLVE_TOL:
        return pts[best]
    bracket = None
    for i in range(len(grid) - 1):
        if gaps[i] == 0.0 or gaps[i] * gaps[i + 1] < 0:
            bracket = (float(grid[i]), gaps[i], float(grid[i + 1]), gaps[i + 1])
            break
    if bracket is None:
        raise InfeasibleTargetError(
            f"no eps bracket found for target R1 = {target_r1} "
            f"(grid range [{min(p.r1 for p in pts)}, {max(p.r1 for p in pts)}])"
        )
    e_lo, g_lo, e_hi, g_hi = bracket
    for _ in range(200):
        e_mid = 0.5 * (e_lo + e_hi)
        pt = split_rates(ch, p_x, q, e_mid)
        g_mid = pt.r1 - target_r1
        if abs(g_mid) <= SOLVE_TOL:
            return pt
        if g_lo * g_mid <= 0:
            e_hi, g_hi = e_mid, g_mid
        else:
            e_lo, g_lo = e_mid, g_mid
    raise AssertionError(f"bisection failed to reach {SOLVE_TOL} for {target_r1}")
