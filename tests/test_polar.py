import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macresolve import polar
from macresolve.polar import (
    EXACT_CAP_N,
    ResolvabilityCode,
    TIE_TOL,
    _sc,
    compute_profile,
    encode_batch,
    output_pmf_exact,
    polar_transform,
    profile_to_csv,
)
from macresolve.probcore import (
    SLICE_ENTRIES,
    Dist,
    all_bit_rows,
    bits_to_index,
    make_rng,
)


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def iid_pmf(p: float, n_sym: int) -> np.ndarray:
    w = all_bit_rows(n_sym).sum(axis=1)
    return p ** w * (1 - p) ** (n_sym - w)


# Prefix-table oracle: the pmf of the transformed block over all 2^N values,
# whose partial sums give every conditional law P(a_j | a_<j) directly.


def prefix_joint_pmf(p1: float, n: int) -> np.ndarray:
    """pmf of the transformed block, indexed by the packed coordinate vector."""
    n_sym = 1 << n
    assert n_sym <= EXACT_CAP_N
    weight = polar_transform(all_bit_rows(n_sym)).sum(axis=1, dtype=np.int64)
    with np.errstate(divide="ignore"):
        logp = weight * np.log(p1) if p1 > 0 else np.where(weight > 0, -np.inf, 0.0)
        logq = (n_sym - weight) * np.log(1 - p1) if p1 < 1 else np.where(
            weight < n_sym, -np.inf, 0.0)
    return np.exp(logp + logq)


def prefix_entropies(p1: float, n: int) -> np.ndarray:
    """H(A^j | A^{1:j-1}) as differences of prefix entropies."""
    qa = prefix_joint_pmf(p1, n)
    ent = [0.0]
    for i in range(1 << n):
        marg = qa.reshape(1 << (i + 1), -1).sum(axis=1)
        pos = marg[marg > 0]
        ent.append(float(-(pos * np.log2(pos)).sum()))
    return np.diff(ent)


def prefix_output_pmf(code, clamp) -> np.ndarray:
    """Encoder-output law built coordinate by coordinate over prefix tables,
    then pushed through the involution to index it by the block."""
    n_sym = code.block_len
    qa = prefix_joint_pmf(float(code.source.pmf[1]), code.n)
    tiers = code._tiers
    pt = np.array([1.0])
    prev_marg = np.array([1.0])
    seed_cursor = 0
    for i in range(n_sym):
        marg = qa.reshape(1 << (i + 1), -1).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            c1 = np.where(prev_marg > 0,
                          marg[1::2] / np.where(prev_marg > 0, prev_marg, 1.0),
                          0.5)
        out = np.empty(1 << (i + 1))
        if tiers[i] == 0:
            if seed_cursor < len(clamp):
                bit = int(clamp[seed_cursor])
                out[bit::2] = pt
                out[1 - bit::2] = 0.0
            else:
                out[0::2] = 0.5 * pt
                out[1::2] = 0.5 * pt
            seed_cursor += 1
        elif tiers[i] == 1:
            out[0::2] = pt * (1.0 - c1)
            out[1::2] = pt * c1
        else:
            pick1 = c1 > 0.5 + TIE_TOL
            out[0::2] = pt * (~pick1)
            out[1::2] = pt * pick1
        pt = out
        prev_marg = marg
    img = bits_to_index(polar_transform(all_bit_rows(n_sym)))
    px = np.empty(1 << n_sym)
    px[img] = pt
    return px


# Reference successive cancellation: the whole decided prefix is re-solved
# for every coordinate, O(N^2) per block.  The butterfly pass in polar._sc
# keeps its arithmetic operand by operand, so both must agree bit for bit.


def _sc_conditional(p1: float, decided: np.ndarray, n_sym: int) -> np.ndarray:
    """P(next transformed coordinate = 1 | decided prefix), batched.

    ``decided`` has shape (batch, j); returns shape (batch,).  Recursive over
    the two half-size subproblems; O(N) work per call.
    """
    batch = decided.shape[0]
    if n_sym == 1:
        return np.full(batch, p1)
    m = decided.shape[1]
    pairs = m // 2
    w1 = decided[:, 0:2 * pairs:2] ^ decided[:, 1:2 * pairs:2]
    w2 = decided[:, 1:2 * pairs:2]
    if m % 2 == 0:
        c1 = _sc_conditional(p1, w1, n_sym // 2)
        c2 = _sc_conditional(p1, w2, n_sym // 2)
        return c1 * (1.0 - c2) + (1.0 - c1) * c2
    v = decided[:, -1]
    c1 = _sc_conditional(p1, w1, n_sym // 2)
    c2 = _sc_conditional(p1, w2, n_sym // 2)
    p1_at_v = np.where(v == 1, c1, 1.0 - c1)        # P(w1 bit = v)
    p1_at_flip = np.where(v == 1, 1.0 - c1, c1)     # P(w1 bit = v xor 1)
    num1 = p1_at_flip * c2
    num0 = p1_at_v * (1.0 - c2)
    tot = num0 + num1
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(tot > 0, num1 / np.where(tot > 0, tot, 1.0), 0.5)
    return out


def ref_encode_batch(code, seeds, rng):
    """encode_batch driven coordinate by coordinate by _sc_conditional."""
    batch = seeds.shape[0]
    n_sym = code.block_len
    p1 = float(code.source.pmf[1])
    tiers = code._tiers
    decided = np.zeros((batch, n_sym), dtype=np.uint8)
    seed_cursor = 0
    for j in range(n_sym):
        if tiers[j] == 0:
            decided[:, j] = seeds[:, seed_cursor]
            seed_cursor += 1
            continue
        pj = _sc_conditional(p1, decided[:, :j], n_sym)
        if tiers[j] == 1:
            decided[:, j] = (rng.random(batch) < pj).astype(np.uint8)
        else:
            decided[:, j] = (pj > 0.5 + TIE_TOL).astype(np.uint8)
    return polar_transform(decided)


def ref_sampled_entropies(p1, n, mc_samples, rng):
    """The sampled branch of compute_profile driven by _sc_conditional."""
    n_sym = 1 << n
    x = (rng.random((int(mc_samples), n_sym)) < p1).astype(np.uint8)
    a = polar_transform(x)
    ce = np.empty(n_sym)
    for j in range(n_sym):
        pj = _sc_conditional(p1, a[:, :j], n_sym)
        prob = np.where(a[:, j] == 1, pj, 1.0 - pj)
        ce[j] = float(np.mean(-np.log2(np.clip(prob, 1e-300, None))))
    return np.clip(ce, 0.0, 1.0)


class TestTransform:
    def test_n1_by_hand(self):
        # first output coordinate is the XOR, second passes through
        assert np.array_equal(polar_transform(np.array([1, 0])), [1, 0])
        assert np.array_equal(polar_transform(np.array([0, 1])), [1, 1])
        assert np.array_equal(polar_transform(np.array([1, 1])), [0, 1])

    def test_n2_matches_kronecker_product(self, rng):
        # row-vector convention: T(x) = x (F kron F) over GF(2)
        f = np.array([[1, 0], [1, 1]])
        g = np.kron(f, f)
        for _ in range(16):
            x = rng.integers(0, 2, 4, dtype=np.uint8)
            assert np.array_equal(polar_transform(x), (x @ g) % 2)

    def test_all_zeros(self):
        assert not polar_transform(np.zeros(16, dtype=np.uint8)).any()

    def test_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            polar_transform(np.zeros(6, dtype=np.uint8))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=16, max_size=16))
    def test_involution(self, bits):
        x = np.array(bits, dtype=np.uint8)
        assert np.array_equal(polar_transform(polar_transform(x)), x)

    def test_batched_matches_single(self, rng):
        xs = rng.integers(0, 2, size=(20, 8), dtype=np.uint8)
        batched = polar_transform(xs)
        for i in range(20):
            assert np.array_equal(batched[i], polar_transform(xs[i]))


class TestProfile:
    def test_n1_closed_form(self):
        p = 0.3
        prof = compute_profile(Dist.bernoulli(p), 1)
        assert prof.cond_entropies[0] == pytest.approx(h2(2 * p * (1 - p)),
                                                       abs=1e-12)
        assert prof.cond_entropies[1] == pytest.approx(
            2 * h2(p) - h2(2 * p * (1 - p)), abs=1e-12)

    def test_uniform_source_fixed_point(self):
        prof = compute_profile(Dist.bernoulli(0.5), 3)
        assert np.allclose(prof.cond_entropies, 1.0, atol=1e-12)
        assert prof.v_set == frozenset(range(8))

    def test_point_mass_source(self):
        prof = compute_profile(Dist.bernoulli(0.0), 3)
        assert np.allclose(prof.cond_entropies, 0.0, atol=1e-12)
        assert prof.v_set == frozenset()
        assert prof.h_set == frozenset()

    def test_chain_rule(self):
        for n in (2, 3, 4):
            prof = compute_profile(Dist.bernoulli(0.3), n)
            assert prof.cond_entropies.sum() == pytest.approx(
                (1 << n) * h2(0.3), abs=1e-9)

    def test_sets_follow_thresholds(self):
        prof = compute_profile(Dist.bernoulli(0.3), 4)
        for i, ce in enumerate(prof.cond_entropies):
            assert (i in prof.v_set) == (ce > 1 - prof.delta_n)
            assert (i in prof.h_set) == (ce > prof.delta_n)

    def test_set_nesting_in_beta(self):
        # lower beta -> larger delta_N -> v grows and h shrinks
        src = Dist.bernoulli(0.3)
        loose = compute_profile(src, 4, beta=0.1)
        tight = compute_profile(src, 4, beta=0.45)
        assert tight.v_set <= loose.v_set
        assert loose.h_set <= tight.h_set
        assert loose.v_set <= loose.h_set and tight.v_set <= tight.h_set

    def test_exact_cap_error(self):
        with pytest.raises(ValueError, match="mc_samples"):
            compute_profile(Dist.bernoulli(0.3), 5)

    def test_mc_profile_close_to_exact(self):
        src = Dist.bernoulli(0.3)
        exact = compute_profile(src, 4)
        approx = compute_profile(src, 4, mc_samples=60_000, rng=make_rng(3))
        assert not approx.exact
        assert np.max(np.abs(approx.cond_entropies - exact.cond_entropies)) < 0.04

    def test_sampled_profile_holds_no_float_draw(self):
        # the (samples, N) float64 uniforms alone were 8 bytes per block bit
        # (14.2 in all); the pass over the uint8 blocks takes 6.9
        samples, n = 4096, 10
        tracemalloc.start()
        try:
            compute_profile(Dist.bernoulli(0.3), n, mc_samples=samples,
                            rng=make_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * (samples << n)

    def test_rate_law_near_entropy(self):
        prof = compute_profile(Dist.bernoulli(0.3), 4)
        assert abs(len(prof.v_set) / 16 - h2(0.3)) < 0.15

    def test_local_randomness_rate_shrinks(self):
        rates = []
        for n in (2, 3, 4):
            prof = compute_profile(Dist.bernoulli(0.3), n)
            rates.append(len(prof.mid_set) / (1 << n))
        assert rates[0] >= rates[1] >= rates[2]


class TestScConditional:
    def test_matches_prefix_tables(self):
        # the pass runs on all 256 transformed blocks at N = 8, so its leaves
        # see every prefix of every length
        qa = prefix_joint_pmf(0.3, 3)
        a = all_bit_rows(8)
        conds = np.empty(a.shape)

        def record(j, p):
            conds[:, j] = p
            return a[:, j]

        x = _sc(np.broadcast_to(0.3, a.T.shape), record)
        assert np.array_equal(polar_transform(x.T), a)
        for j in range(8):
            pre = bits_to_index(a[:, :j])
            marg = qa.reshape(1 << (j + 1), -1).sum(axis=1)
            prev = marg.reshape(-1, 2).sum(axis=1)
            table = np.where(prev[pre] > 0, marg[2 * pre + 1] / prev[pre], 0.5)
            assert conds[:, j] == pytest.approx(table, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.06, 0.11, 0.16, 0.2, 0.3, 0.4,
                                   0.5, 0.6, 0.7, 0.97, 1.0])
    def test_exact_laws_match_prefix_tables(self, p, n):
        # exact profiles and output laws come from the SC pass over all
        # blocks; the prefix tables must give the same numbers
        src = Dist.bernoulli(p)
        code = compute_profile(src, n)
        ref = prefix_entropies(p, n)
        assert np.abs(code.cond_entropies - ref).max() <= 1e-12
        oracle = ResolvabilityCode(src, n, code.beta, ref, True)
        assert code.v_set == oracle.v_set and code.h_set == oracle.h_set
        if code.block_len > 8:
            return  # up to 2^17 clamp prefixes at N = 16; too slow for Tier-1
        for m in range(code.seed_len + 1):
            for clamp in all_bit_rows(m):
                assert np.abs(output_pmf_exact(code, clamp)
                              - prefix_output_pmf(code, clamp)).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.11, 0.3, 0.5, 1.0])
    def test_pass_matches_prefix_resolve(self, p):
        # sampled profiles and encodings equal the reference bit for bit
        src = Dist.bernoulli(p)
        for n in range(1, 9):
            code = compute_profile(src, n, mc_samples=64, rng=make_rng(n))
            assert np.array_equal(code.cond_entropies,
                                  ref_sampled_entropies(p, n, 64, make_rng(n)))
            seeds = make_rng(n + 10).integers(0, 2, size=(64, code.seed_len),
                                              dtype=np.uint8)
            got = encode_batch(code, seeds, make_rng(n + 20))
            assert got.dtype == np.uint8
            assert np.array_equal(got, ref_encode_batch(code, seeds,
                                                        make_rng(n + 20)))

    def test_sampled_blocks_span_row_slices(self):
        # at N = 128 the blocks are drawn 512 at a time: 520 is one slice
        # and a part, with the bits and generator state of one draw
        n, samples = 7, 520
        assert samples % (SLICE_ENTRIES >> n)
        got_rng, want_rng = make_rng(31), make_rng(31)
        prof = compute_profile(Dist.bernoulli(0.3), n, mc_samples=samples,
                               rng=got_rng)
        assert np.array_equal(prof.cond_entropies,
                              ref_sampled_entropies(0.3, n, samples, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("p", [0.11, 0.3, 0.5])
    def test_tables_match_the_dense_pass(self, p, n, monkeypatch):
        # at batch 4096 the shared-prior tables last until they reach
        # TABLE_MAX; with TABLE_MAX 0 the pass is dense from the root
        src = Dist.bernoulli(p)

        def run():
            rng = make_rng(n)
            code = compute_profile(src, n, mc_samples=4096, rng=rng)
            seeds = rng.integers(0, 2, size=(4096, code.seed_len),
                                 dtype=np.uint8)
            return code.cond_entropies, encode_batch(code, seeds, rng), \
                rng.random()

        tables = run()
        monkeypatch.setattr(polar, "TABLE_MAX", 0)
        dense = run()
        assert np.array_equal(tables[0], dense[0])
        assert np.array_equal(tables[1], dense[1])
        assert tables[2] == dense[2]


def where_right_law(p_l, p_r, s):
    """``polar._right_law`` with its two selects as ``np.where`` (reference)."""
    g = np.where(s == 1, 1.0 - p_l, p_l)
    g *= p_r
    tot = np.where(s == 1, p_l, 1.0 - p_l)
    tot *= 1.0 - p_r
    tot += g
    np.divide(g, tot, out=g, where=tot > 0)
    g[tot <= 0] = 0.5
    return g


class TestRightLaw:
    @pytest.mark.parametrize("shape", [(16, 4096), (6144,)])
    def test_exchange_equals_where(self, shape):
        rng = make_rng(11)
        p_l, p_r = rng.random(shape), rng.random(shape)
        # priors 0, 1 and 1/2 in every pairing; (p_l, p_r, s) = (1, 0, 0)
        # makes s impossible, the tot <= 0 branch
        for p in (p_l, p_r):
            edge = rng.random(shape) < 0.4
            p[edge] = np.array([0.0, 1.0, 0.5])[rng.integers(0, 3, edge.sum())]
        s = rng.integers(0, 2, shape, dtype=np.uint8)
        assert np.any((p_l == 1.0) & (p_r == 0.0) & (s == 0))
        got = polar._right_law(p_l, p_r, s)
        assert got.tobytes() == where_right_law(p_l, p_r, s).tobytes()


class TestEncode:
    def test_uniform_source_output_uniform(self):
        code = compute_profile(Dist.bernoulli(0.5), 2)
        assert code.seed_len == 4
        px = output_pmf_exact(code)
        assert np.allclose(px, 1 / 16, atol=1e-15)

    def test_point_mass_all_zero(self):
        code = compute_profile(Dist.bernoulli(0.0), 2)
        assert code.seed_len == 0
        out = encode_batch(code, np.zeros((1, 0), dtype=np.uint8),
                           make_rng(0))[0]
        assert not out.any()

    def test_seed_length_checked(self):
        code = compute_profile(Dist.bernoulli(0.3), 2)
        with pytest.raises(ValueError, match="seed"):
            encode_batch(code, np.zeros((1, code.seed_len + 1), dtype=np.uint8),
                         make_rng(0))

    def test_exhaustive_paths_match_exact_dist(self):
        """Independent oracle: enumerate every seed and sampling path.

        Walks the three-tier encoder by hand with conditionals recomputed
        from a freshly built joint table, accumulating path weights, and
        compares with output_pmf_exact to 1e-12.
        """
        src = Dist.bernoulli(0.3)
        n = 3
        n_sym = 1 << n
        code = compute_profile(src, n)
        # independent joint over transformed blocks, via an explicit kron matrix
        f = np.array([[1, 0], [1, 1]])
        g = np.array([1])
        for _ in range(n):
            g = np.kron(g, f)
        qa = np.zeros(1 << n_sym)
        for a_int in range(1 << n_sym):
            a = np.array([(a_int >> (n_sym - 1 - i)) & 1 for i in range(n_sym)])
            x = (a @ g) % 2
            w = int(x.sum())
            qa[a_int] = 0.3 ** w * 0.7 ** (n_sym - w)
        margs = [qa.reshape(1 << (i + 1), -1).sum(axis=1) for i in range(n_sym)]

        acc = np.zeros(1 << n_sym)
        v = sorted(code.v_set)
        mid = code.mid_set

        def walk(pos, prefix_int, weight, seed_iter):
            if weight == 0.0:
                return
            if pos == n_sym:
                a = np.array([(prefix_int >> (n_sym - 1 - i)) & 1
                              for i in range(n_sym)])
                x_int = int(bits_to_index(np.asarray((a @ g) % 2)))
                acc[x_int] += weight
                return
            marg = margs[pos]
            prev = margs[pos - 1][prefix_int] if pos else 1.0
            c1 = marg[2 * prefix_int + 1] / prev if prev > 0 else 0.5
            if pos in v:
                for bit in (0, 1):
                    walk(pos + 1, 2 * prefix_int + bit, weight * 0.5, seed_iter)
            elif pos in mid:
                walk(pos + 1, 2 * prefix_int, weight * (1 - c1), seed_iter)
                walk(pos + 1, 2 * prefix_int + 1, weight * c1, seed_iter)
            else:
                bit = 1 if c1 > 0.5 + 1e-12 else 0
                walk(pos + 1, 2 * prefix_int + bit, weight, seed_iter)

        walk(0, 0, 1.0, None)
        assert np.abs(acc - output_pmf_exact(code)).max() < 1e-12

    def test_encode_empirical_matches_exact(self):
        # Spec asks 1e6 trials at TV <= 0.01; the plug-in TV noise floor of a
        # 256-cell histogram at 1e6 samples is ~0.011, so 4e6 trials are used
        # to make the stated tolerance statistically meaningful.
        code = compute_profile(Dist.bernoulli(0.3), 3)
        rng = make_rng(99)
        trials = 4_000_000
        seeds = rng.integers(0, 2, size=(trials, code.seed_len), dtype=np.uint8)
        x = encode_batch(code, seeds, rng)
        emp = np.bincount(bits_to_index(x), minlength=256) / trials
        assert np.abs(emp - output_pmf_exact(code)).sum() <= 0.01

    def test_batch_matches_single_encode(self):
        # with the middle set emptied the encoder is a function of the seed,
        # so every batch row must equal the single encode of its seed
        code = compute_profile(Dist.bernoulli(0.3), 3)
        ce = code.cond_entropies
        code = dataclasses.replace(
            code, cond_entropies=np.where(ce > 1 - code.delta_n, ce, 0.0),
            exact=False)
        assert code.local_randomness_bits == 0
        seeds = all_bit_rows(code.seed_len).astype(np.uint8)
        batch = encode_batch(code, seeds, make_rng(7))
        for i, seed in enumerate(seeds):
            assert np.array_equal(batch[i],
                                  encode_batch(code, seed[None], make_rng(8))[0])


class TestOutputDistExact:
    def test_uniform_tv_zero(self):
        code = compute_profile(Dist.bernoulli(0.5), 3)
        assert np.abs(output_pmf_exact(code) - iid_pmf(0.5, 8)).sum() < 1e-12

    def test_point_mass_tv_zero(self):
        code = compute_profile(Dist.bernoulli(1.0), 2)
        px = output_pmf_exact(code)
        assert px[15] == pytest.approx(1.0, abs=1e-15)

    def test_bern03_exact_values_regression(self):
        # Frozen exact values; at beta = 0.25 the distance grows over these
        # block lengths (polarization is still far away at desk scale).
        expect = {2: 0.24640000000000006, 3: 0.54800704, 4: 0.64501900315532723}
        for n, tv in expect.items():
            code = compute_profile(Dist.bernoulli(0.3), n)
            got = np.abs(output_pmf_exact(code) - iid_pmf(0.3, 1 << n)).sum()
            assert got == pytest.approx(tv, abs=1e-12)

    def test_cap_enforced(self):
        prof = compute_profile(Dist.bernoulli(0.3), 4)
        code = compute_profile(Dist.bernoulli(0.3), 5, mc_samples=2000,
                               rng=make_rng(0))
        with pytest.raises(ValueError, match="cap"):
            output_pmf_exact(code)
        assert EXACT_CAP_N >= (1 << prof.n)

    def test_clamped_seed_prefix(self):
        # clamping the full seed pins the block through the involution
        code = compute_profile(Dist.bernoulli(0.5), 2)
        clamp = np.array([1, 0, 1, 1], dtype=np.uint8)
        px = output_pmf_exact(code, clamp)
        x = polar_transform(clamp)
        assert px[int(bits_to_index(x))] == pytest.approx(1.0, abs=1e-15)


class TestCsvExport:
    def test_profile_csv(self, tmp_path):
        prof = compute_profile(Dist.bernoulli(0.3), 2)
        path = tmp_path / "profile.csv"
        profile_to_csv(prof, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,cond_entropy,in_v_set,in_h_set"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(prof.cond_entropies[0])
