import numpy as np
import pytest

from macresolve.hashing import ToeplitzHash, bits_to_hex, hashed_joint_dist_exact, \
    sample_hash
from macresolve.probcore import (
    Alphabet,
    BudgetError,
    Dist,
    JointDist,
    all_bit_rows,
    make_rng,
    min_entropy_conditional,
    variational_distance,
)


class TestSampling:
    def test_reproducible(self):
        h1 = sample_hash(make_rng(7), 16, 4)
        h2 = sample_hash(make_rng(7), 16, 4)
        assert np.array_equal(h1.diagonal_bits, h2.diagonal_bits)

    def test_zero_output(self):
        h = sample_hash(make_rng(0), 8, 0)
        assert h.apply_batch(np.ones(8, dtype=np.uint8)).shape == (0,)
        empty = sample_hash(make_rng(0), 0, 0)
        assert empty.apply_batch(np.zeros((5, 0), dtype=np.uint8)).shape == (5, 0)

    def test_out_len_bound(self):
        with pytest.raises(ValueError, match="exceeds"):
            sample_hash(make_rng(0), 4, 5)

    def test_matrix_entry_convention(self):
        d = np.arange(6) % 2
        h = ToeplitzHash(4, 3, d.astype(np.uint8))
        m = h.matrix()
        for i in range(3):
            for j in range(4):
                assert m[i, j] == d[i - j + 3]


class TestApply:
    def test_zero_maps_to_zero(self):
        h = sample_hash(make_rng(1), 12, 5)
        assert not h.apply_batch(np.zeros(12, dtype=np.uint8)).any()

    def test_identity_diagonal(self):
        n = 6
        d = np.zeros(2 * n - 1, dtype=np.uint8)
        d[n - 1] = 1  # entry (i, j) = 1 iff i == j
        h = ToeplitzHash(n, n, d)
        x = make_rng(2).integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(h.apply_batch(x), x)

    def test_linearity(self):
        h = sample_hash(make_rng(3), 64, 16)
        rng = make_rng(4)
        for _ in range(50):
            x = rng.integers(0, 2, 64, dtype=np.uint8)
            y = rng.integers(0, 2, 64, dtype=np.uint8)
            assert np.array_equal(h.apply_batch(x ^ y),
                                  h.apply_batch(x) ^ h.apply_batch(y))

    def test_length_checked(self):
        h = sample_hash(make_rng(0), 8, 2)
        with pytest.raises(ValueError, match="shape"):
            h.apply_batch(np.zeros(7, dtype=np.uint8))

    def test_batch_matches_single(self):
        h = sample_hash(make_rng(5), 10, 4)
        xs = make_rng(6).integers(0, 2, size=(20, 10), dtype=np.uint8)
        batch = h.apply_batch(xs)
        for i in range(20):
            assert np.array_equal(batch[i], h.apply_batch(xs[i]))

    @pytest.mark.parametrize("in_len,out_len", [
        (n, r) for n in (1, 2, 4, 32, 64, 256)
        for r in sorted({0, 1, -(-44 * n // 100), n})])
    def test_bit_sliced_hash_matches_the_matrix_product(self, in_len, out_len):
        # trials are packed eight to a byte: these batches fill one byte
        # partly, fill or miss whole bytes by one, and make a full chunk;
        # the inputs are single rows, batches, (trials, k, N) stacks and the
        # strided block views of such a stack
        rng = make_rng(1000 * in_len + out_len)
        h = sample_hash(rng, in_len, out_len)
        m = h.matrix().T.astype(np.float64)   # exact: sums stay below 2^53
        for batch in (1, 7, 63, 65, 8192):
            x3 = rng.integers(0, 2, size=(batch, 3, in_len), dtype=np.uint8)
            for x in (x3[0, 0], x3[:, 0].copy(), x3, x3[:, 1]):
                got = h.apply_batch(x)
                assert got.dtype == np.uint8
                assert got.shape == x.shape[:-1] + (out_len,)
                np.testing.assert_array_equal(got, (x @ m) % 2)

    @pytest.mark.parametrize("in_len", [1, 7, 63, 64, 65, 130])
    def test_packed_parities_match_the_matrix_product(self, in_len):
        # odd and long input lengths that the oracle test above does not take
        rng = make_rng(in_len)
        xs = rng.integers(0, 2, size=(3, 40, in_len), dtype=np.uint8)
        for out_len in (0, in_len):
            h = sample_hash(rng, in_len, out_len)
            want = (xs.astype(np.int64) @ h.matrix().T.astype(np.int64)) % 2
            got = h.apply_batch(xs)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)


class TestTwoUniversality:
    def test_exact_average_over_family_small_n(self):
        # enumerate every diagonal: collision probability of any fixed
        # distinct pair is exactly 2^-r for the Toeplitz family
        n, r = 6, 2
        diagonals = all_bit_rows(n + r - 1)
        xs = all_bit_rows(n)
        rng = make_rng(8)
        for _ in range(15):
            i, j = rng.integers(0, 1 << n, 2)
            if i == j:
                continue
            diff = xs[i] ^ xs[j]
            # by linearity a collision is h(diff) == 0
            coll = sum(
                not ToeplitzHash(n, r, d).apply_batch(diff).any()
                for d in diagonals
            )
            assert coll / len(diagonals) <= 2.0 ** -r + 1e-12

    def test_monte_carlo_collision_rate(self):
        n, r = 32, 8
        rng = make_rng(9)
        pairs = 100_000
        xs = rng.integers(0, 2, size=(pairs, n), dtype=np.uint8)
        ys = rng.integers(0, 2, size=(pairs, n), dtype=np.uint8)
        distinct = np.any(xs != ys, axis=1)
        h_rng = make_rng(10)
        coll = 0
        total = int(distinct.sum())
        hs = [sample_hash(h_rng, n, r) for _ in range(16)]
        # rotate through sampled hashes so the average is over the family
        for idx, h in enumerate(hs):
            sel = np.nonzero(distinct)[0][idx::len(hs)]
            coll += int(np.all(h.apply_batch(xs[sel]) == h.apply_batch(ys[sel]),
                               axis=1).sum())
        p = 2.0 ** -r
        sigma = (p * (1 - p) / total) ** 0.5
        assert coll / total <= p + 3 * sigma


class TestHexSerialization:
    def test_roundtrip(self):
        h = sample_hash(make_rng(11), 13, 5)
        h2 = ToeplitzHash.from_hex(h.to_hex(), 13, 5)
        assert np.array_equal(h.diagonal_bits, h2.diagonal_bits)

    def test_zero_output_roundtrip(self):
        h = sample_hash(make_rng(11), 5, 0)
        assert h.to_hex() == ""
        h2 = ToeplitzHash.from_hex("", 5, 0)
        assert h2.out_len == 0

    def test_bits_to_hex_pads_last_nibble(self):
        bits = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        assert bits_to_hex(bits) == "b4"
        assert bits_to_hex(bits[:0]) == ""

    def test_from_hex_rejects_non_hex(self):
        with pytest.raises(ValueError, match="non-hex"):
            ToeplitzHash.from_hex("0g", 5, 3)   # 7 bits, 2 nibbles

    def test_from_hex_rejects_wrong_nibble_count(self):
        h = sample_hash(make_rng(13), 13, 5)
        with pytest.raises(ValueError, match="nibbles"):
            ToeplitzHash.from_hex(h.to_hex() + "0", 13, 5)
        with pytest.raises(ValueError, match="nibbles"):
            ToeplitzHash.from_hex(h.to_hex()[:-1], 13, 5)
        with pytest.raises(ValueError, match="nibbles"):
            ToeplitzHash.from_hex("0", 5, 0)

    def test_from_hex_rejects_nonzero_pad_bits(self):
        # 17 diagonal bits fill 5 nibbles with 3 pad bits, which must be zero
        h = sample_hash(make_rng(14), 13, 5)
        text = h.to_hex()
        bad = text[:-1] + f"{int(text[-1], 16) | 1:x}"
        with pytest.raises(ValueError, match="pad bits"):
            ToeplitzHash.from_hex(bad, 13, 5)


class TestHashedJointExact:
    def _correlated_joint(self, rng, n_bits, z_size):
        shape = (1 << n_bits, z_size)
        pmf = rng.random(shape) ** 2 + 1e-4
        return JointDist((Alphabet(1 << n_bits), Alphabet(z_size)),
                         pmf / pmf.sum())

    def test_constant_hash_keeps_z_marginal(self, rng):
        j = self._correlated_joint(rng, 4, 3)
        h = sample_hash(rng, 4, 0)
        out = hashed_joint_dist_exact([h], j)
        assert np.allclose(out.pmf[0], j.pmf.sum(axis=0))

    def test_identity_hash_relabels(self, rng):
        n = 3
        j = self._correlated_joint(rng, n, 2)
        d = np.zeros(2 * n - 1, dtype=np.uint8)
        d[n - 1] = 1
        out = hashed_joint_dist_exact([ToeplitzHash(n, n, d)], j)
        assert np.allclose(out.pmf, j.pmf)

    def test_budget_guard(self, rng, monkeypatch):
        import macresolve.hashing as hashing_mod

        monkeypatch.setattr(hashing_mod, "EXACT_STATE_BUDGET", 1 << 6)
        j = self._correlated_joint(rng, 6, 2)
        h = sample_hash(make_rng(0), 6, 2)
        with pytest.raises(BudgetError):
            hashed_joint_dist_exact([h], j)

    def test_leftover_hash_bound_product_source(self):
        # product source at N = 8, r = 2: exact TV against uniform x q_Z
        # stays below the min-entropy bound for every sampled hash average
        n, r = 8, 2
        p = 0.3
        w = all_bit_rows(n).sum(axis=1)
        px = p ** w * (1 - p) ** (n - w)
        qz = np.array([0.6, 0.4])
        j = JointDist((Alphabet(1 << n), Alphabet(2)),
                      px[:, None] * qz[None, :])
        ref = Dist(Alphabet(2), qz)
        h_min = min_entropy_conditional(j, ref)
        bound = (2.0 ** (r - h_min)) ** 0.5
        ideal = JointDist((Alphabet(1 << r), Alphabet(2)),
                          np.full((1 << r, 1), 0.25) * qz[None, :])
        rng = make_rng(13)
        tvs = [
            variational_distance(
                hashed_joint_dist_exact([sample_hash(rng, n, r)], j), ideal)
            for _ in range(50)
        ]
        assert np.mean(tvs) <= bound
