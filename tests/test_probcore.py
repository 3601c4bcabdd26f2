import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_mac, adder_mac3, random_input, random_mac
from macresolve.probcore import (
    Alphabet,
    Dist,
    JointDist,
    MacChannel,
    bits_to_index,
    channel_from_json,
    channel_to_json,
    conditional_entropy,
    entropy,
    exact_log2,
    index_to_bits,
    load_channel_file,
    make_rng,
    min_entropy_conditional,
    mutual_information,
    pack_bits,
    target_output_dist,
    transmit,
    unpack_bits,
    variational_distance,
)


def xor_joint() -> JointDist:
    # (X, Y, Z) with X, Y uniform and Z = X xor Y
    pmf = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            pmf[x, y, x ^ y] = 0.25
    return JointDist((Alphabet(2),) * 3, pmf)


class TestDistInvariants:
    def test_pmf_must_normalize(self):
        with pytest.raises(ValueError, match="mass"):
            Dist(Alphabet(2), np.array([0.5, 0.4]))

    def test_renormalize_flag(self):
        d = Dist(Alphabet(2), np.array([1.0, 3.0]), renormalize=True)
        assert d.pmf[1] == pytest.approx(0.75)

    def test_joint_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            JointDist((Alphabet(2), Alphabet(3)), np.full((2, 2), 0.25))


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Dist.bernoulli(0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy(Dist.point_mass(4, 2)) == 0.0

    def test_bern_03(self):
        # -0.3 log2 0.3 - 0.7 log2 0.7
        assert entropy(Dist.bernoulli(0.3)) == pytest.approx(
            0.8812908992306927, abs=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            d = Dist(Alphabet(5), rng.random(5), renormalize=True)
            assert -1e-12 <= entropy(d) <= np.log2(5) + 1e-12


class TestConditionalEntropy:
    def test_independent_axes(self, rng):
        a, b = random_input(rng), random_input(rng)
        j = JointDist.product([a, b])
        assert conditional_entropy(j, [0], [1]) == pytest.approx(
            entropy(a), abs=1e-12)

    def test_xor_uniform(self):
        assert conditional_entropy(xor_joint(), [0], [2]) == pytest.approx(
            1.0, abs=1e-12)

    def test_functional_dependence(self):
        pmf = np.zeros((2, 2))
        pmf[0, 0] = 0.3
        pmf[1, 1] = 0.7
        j = JointDist((Alphabet(2), Alphabet(2)), pmf)
        assert conditional_entropy(j, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_axes_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            conditional_entropy(xor_joint(), [0], [0])


class TestMutualInformation:
    def test_independent(self, rng):
        j = JointDist.product([random_input(rng), random_input(rng)])
        assert mutual_information(j, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_adder(self):
        j = adder_mac().joint_with_output([Dist.bernoulli(0.5)] * 2)
        assert mutual_information(j, [0, 1], [2]) == pytest.approx(1.5, abs=1e-12)
        assert mutual_information(j, [0], [2]) == pytest.approx(0.5, abs=1e-12)

    def test_xor(self):
        j = xor_joint()
        assert mutual_information(j, [0], [2]) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(j, [0, 1], [2]) == pytest.approx(1.0, abs=1e-12)

    def test_chain_identities_random(self, rng):
        for _ in range(30):
            pmf = rng.random((3, 2, 4)) + 1e-6
            j = JointDist((Alphabet(3), Alphabet(2), Alphabet(4)),
                          pmf / pmf.sum())
            h_a = conditional_entropy(j, [0], [])
            h_b = conditional_entropy(j, [1], [])
            h_ab = conditional_entropy(j, [0, 1], [])
            assert h_ab == pytest.approx(
                h_a + conditional_entropy(j, [1], [0]), abs=1e-9)
            mi = mutual_information(j, [0], [1])
            assert mi == pytest.approx(h_a + h_b - h_ab, abs=1e-9)
            assert mi >= 0.0


class TestVariationalDistance:
    def test_equal(self):
        d = Dist.bernoulli(0.3)
        assert variational_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        assert variational_distance(
            Dist.point_mass(3, 0), Dist.point_mass(3, 2)) == 2.0

    def test_bernoulli_pair(self):
        assert variational_distance(
            Dist.bernoulli(0.5), Dist.bernoulli(0.3)) == pytest.approx(0.4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            variational_distance(Dist.bernoulli(0.5), Dist.uniform(3))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    def test_metric_properties(self, a, b, c):
        da = Dist(Alphabet(4), np.array(a), renormalize=True)
        db = Dist(Alphabet(4), np.array(b), renormalize=True)
        dc = Dist(Alphabet(4), np.array(c), renormalize=True)
        assert variational_distance(da, db) == pytest.approx(
            variational_distance(db, da), abs=1e-12)
        assert variational_distance(da, dc) <= (
            variational_distance(da, db) + variational_distance(db, dc) + 1e-12)


class TestMinEntropy:
    def test_uniform_times_point_mass(self):
        r = 3
        pmf = np.full((1 << r, 1), 1.0 / (1 << r))
        w = JointDist((Alphabet(1 << r), Alphabet(1)), pmf)
        ref = Dist.point_mass(1, 0)
        assert min_entropy_conditional(w, ref) == pytest.approx(r, abs=1e-12)

    def test_product_uniform_t(self):
        qz = Dist(Alphabet(3), np.array([0.2, 0.5, 0.3]))
        w = JointDist.product([Dist.uniform(2), qz])
        assert min_entropy_conditional(w, qz) == pytest.approx(1.0, abs=1e-12)

    def test_product_equals_min_entropy_of_t(self, rng):
        for _ in range(10):
            pt = Dist(Alphabet(4), rng.random(4), renormalize=True)
            qz = Dist(Alphabet(3), rng.random(3) + 0.1, renormalize=True)
            w = JointDist.product([pt, qz])
            assert min_entropy_conditional(w, qz) == pytest.approx(
                -np.log2(pt.pmf.max()), abs=1e-12)

    def test_matches_exhaustive_scan(self, rng):
        # xor-with-noise style table, checked against a direct max-ratio scan
        pmf = rng.random((2, 2)) + 0.05
        pmf /= pmf.sum()
        w = JointDist((Alphabet(2), Alphabet(2)), pmf)
        qz = Dist(Alphabet(2), pmf.sum(axis=0), renormalize=True)
        expect = -np.log2(max(
            pmf[t, z] / qz.pmf[z] for t in range(2) for z in range(2)
            if qz.pmf[z] > 0))
        assert min_entropy_conditional(w, qz) == pytest.approx(expect, abs=1e-12)

    def test_support_violation(self):
        pmf = np.array([[0.5, 0.0], [0.25, 0.25]])
        w = JointDist((Alphabet(2), Alphabet(2)), pmf)
        with pytest.raises(ValueError, match="supp"):
            min_entropy_conditional(w, Dist.point_mass(2, 0))


class TestTargetOutputDist:
    def test_adder_uniform(self):
        out = target_output_dist(adder_mac(), [Dist.bernoulli(0.5)] * 2)
        assert np.allclose(out.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_identity_single_user(self):
        ch = MacChannel((Alphabet(3),), Alphabet(3), np.eye(3))
        d = Dist(Alphabet(3), np.array([0.2, 0.5, 0.3]))
        assert np.allclose(target_output_dist(ch, [d]).pmf, d.pmf)

    def test_point_mass_inputs_select_row(self, rng):
        ch = random_mac(rng)
        out = target_output_dist(ch, [Dist.point_mass(2, 1), Dist.point_mass(2, 0)])
        assert np.allclose(out.pmf, ch.transition[1, 0])

    def test_matches_joint_marginalization(self, rng):
        for _ in range(10):
            ch = random_mac(rng)
            ins = [random_input(rng), random_input(rng)]
            via_joint = ch.joint_with_output(ins).marginal_dist(2)
            direct = target_output_dist(ch, ins)
            assert variational_distance(direct, via_joint) < 1e-12

    def test_arity_mismatch(self, rng):
        with pytest.raises(ValueError, match="input"):
            target_output_dist(random_mac(rng), [Dist.bernoulli(0.5)])


def half_noisy_mac3() -> MacChannel:
    """3-user adder whose all-zero input row is noisy instead."""
    t = adder_mac3().transition.copy()
    t[0, 0, 0] = [0.5, 0.25, 0.125, 0.125]
    return MacChannel(adder_mac3().input_alphabets, Alphabet(4), t)


class TestTransmit:
    def test_deterministic_channel_exact_image(self, rng):
        ch = adder_mac()
        x = np.array([0, 1, 1, 0])
        y = np.array([1, 1, 0, 0])
        z = transmit(ch, [x, y], make_rng(0))
        assert np.array_equal(z, x + y)

    def test_empty_sequences(self):
        z = transmit(adder_mac(), [np.zeros(0, int), np.zeros(0, int)], make_rng(0))
        assert z.shape == (0,)

    def test_all_zero_all_one(self):
        n = 32
        z = transmit(adder_mac(), [np.zeros(n, int), np.ones(n, int)], make_rng(1))
        assert np.all(z == 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            transmit(adder_mac(), [np.zeros(3, int), np.zeros(4, int)], make_rng(0))

    def test_empirical_convergence(self, rng):
        ch = random_mac(rng, z_size=4)
        ins = [random_input(rng), random_input(rng)]
        n = 1_000_000
        words = [rng.choice(d.alphabet.size, size=n, p=d.pmf) for d in ins]
        z = transmit(ch, words, rng)
        emp = np.bincount(z, minlength=4) / n
        target = target_output_dist(ch, ins).pmf
        assert np.abs(emp - target).sum() <= 0.01


    @staticmethod
    def cumulative_oracle(ch, words, rng):
        """Inverse CDF through one (..., N, |Z|) gather of the cumulative table."""
        u = rng.random(size=words[0].shape + (1,))
        out = np.sum(u >= np.cumsum(ch.transition, axis=-1)[tuple(words)],
                     axis=-1)
        return out.clip(0, ch.output_alphabet.size - 1).astype(np.int64)

    @pytest.mark.parametrize("make_ch", [
        lambda: random_mac(make_rng(2), n_users=2, z_size=4),
        lambda: random_mac(make_rng(3), n_users=3, z_size=4),
        adder_mac3,
        half_noisy_mac3,
    ], ids=["noisy2", "noisy3", "adder3", "half_noisy3"])
    def test_matches_the_cumulative_table_oracle(self, make_ch):
        ch = make_ch()
        gen = make_rng(10 + ch.n_users)
        words = [gen.integers(0, 2, size=(300, 16), dtype=np.uint8)
                 for _ in range(ch.n_users)]
        got_rng, want_rng = make_rng(7), make_rng(7)
        got = transmit(ch, words, got_rng)
        want = self.cumulative_oracle(ch, words, want_rng)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()
        assert len(np.unique(got)) == 4

    @staticmethod
    def whole_array_reference(ch, codewords, rng):
        """``transmit`` as one vectorised pass over the whole words: a uniform
        per position, an int64 joint index and an int64 output."""
        words = [np.asarray(c) for c in codewords]
        words = [w if w.dtype.kind in "iu" else w.astype(np.int64) for w in words]
        if words[0].size == 0:
            return np.zeros(words[0].shape, dtype=np.int64)
        u = rng.random(size=words[0].shape)
        joint = words[0].astype(np.intp)
        for w, a in zip(words[1:], ch.input_alphabets[1:]):
            joint *= a.size
            joint += w
        cum = np.cumsum(ch.transition, axis=-1).reshape(-1, ch.output_alphabet.size)
        sure = np.all((cum <= 0) | (cum >= 1), axis=0)
        out = (cum[:, sure] <= 0).sum(axis=1, dtype=np.int64)[joint]
        for col in cum[:, ~sure].T:
            out += u >= col[joint]
        return np.minimum(out, ch.output_alphabet.size - 1, out=out)

    @staticmethod
    def partly_noisy_mac() -> MacChannel:
        """|Z| = 4: columns 0, 1 and 3 of every cumulative row are 0 or 1,
        column 2 is not."""
        t = np.array([[[1, 0, 0, 0], [0, 1, 0, 0]],
                      [[0, 0, 0.3, 0.7], [0, 0, 0.6, 0.4]]])
        return MacChannel((Alphabet(2), Alphabet(2)), Alphabet(4), t)

    @staticmethod
    def wide_output_mac() -> MacChannel:
        """One binary input, |Z| = 300, every row spread over all outputs."""
        t = make_rng(4).random((2, 300)) + 0.01
        return MacChannel((Alphabet(2),), Alphabet(300), t / t.sum(-1, keepdims=True))

    @pytest.mark.parametrize("make_ch", ["partly_noisy_mac", "wide_output_mac"])
    @pytest.mark.parametrize("shape", [(3 * 2 ** 16 + 5,), (10_000, 16),
                                       (3000, 3, 17)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_matches_the_whole_array_reference(self, make_ch, shape, dtype):
        # row counts that are no multiple of a row slice; |Z| = 300 stays int64
        ch = getattr(self, make_ch)()
        gen = make_rng(12)
        words = [gen.integers(0, 2, size=shape).astype(dtype)
                 for _ in range(ch.n_users)]
        got_rng, want_rng = make_rng(8), make_rng(8)
        got = transmit(ch, words, got_rng)
        want = self.whole_array_reference(ch, words, want_rng)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert len(np.unique(got)) > 3

    def test_writes_into_a_strided_block_view(self):
        ch = self.partly_noisy_mac()
        gen = make_rng(13)
        words = [gen.integers(0, 2, size=(5000, 3, 24), dtype=np.uint8)
                 for _ in range(2)]
        channel_out = np.full((5000, 3, 24), 9, dtype=np.uint8)
        got_rng, want_rng = make_rng(9), make_rng(9)
        block = channel_out[:, 1]
        assert transmit(ch, [w[:, 1] for w in words], got_rng, out=block) is block
        want = self.whole_array_reference(ch, [w[:, 1] for w in words], want_rng)
        assert np.array_equal(channel_out[:, 1], want)
        assert np.all(channel_out[:, [0, 2]] == 9)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBitPacking:
    def test_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(50, 9), dtype=np.uint8)
        assert np.array_equal(index_to_bits(bits_to_index(bits), 9), bits)

    def test_first_bit_most_significant(self):
        assert bits_to_index(np.array([1, 0, 0])) == 4

    @pytest.mark.parametrize("shape", [(5, 0), (0, 7), (7, 1), (7, 8), (7, 27),
                                       (3, 4, 2), (3, 4, 32)])
    def test_pack_bits_is_numpys_along_the_last_axis(self, rng, shape):
        bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
        packed = pack_bits(bits)
        np.testing.assert_array_equal(packed, np.packbits(bits, axis=-1))
        for n in range(shape[-1] + 1):
            np.testing.assert_array_equal(unpack_bits(packed, n), bits[..., :n])
        if len(shape) == 3:   # a strided block of a (rows, k, bytes) array
            np.testing.assert_array_equal(unpack_bits(packed[:, 1], shape[-1]),
                                          bits[:, 1])


class TestExactLog2:
    @pytest.mark.parametrize("size,n", [(1, 0), (8, 3), (np.int64(8), 3),
                                        (np.uint8(128), 7)],
                             ids=["1", "8", "int64", "uint8"])
    def test_integer_powers_of_two(self, size, n):
        assert exact_log2(size) == n
        assert type(exact_log2(size)) is int

    @pytest.mark.parametrize("size", [0, -4, 6, 8.0, np.float64(8), True,
                                      np.True_, "8"],
                             ids=["0", "-4", "6", "float", "float64", "bool",
                                  "numpy_bool", "str"])
    def test_others_refused(self, size):
        with pytest.raises(ValueError,
                           match="^axis 0 size must be a power of two, got "):
            exact_log2(size, "axis 0 size")


class TestChannelJson:
    def test_roundtrip(self, rng, tmp_path):
        ch = random_mac(rng)
        ins = [random_input(rng), random_input(rng)]
        p = tmp_path / "ch.json"
        p.write_text(json.dumps(channel_to_json(ch, ins)))
        ch2, ins2 = load_channel_file(p)
        assert np.allclose(ch.transition, ch2.transition)
        assert np.allclose(ins[0].pmf, ins2[0].pmf)

    def test_row_order_x1_most_significant(self):
        obj = {"inputs": [2, 2], "output": 2,
               "transition": [[1, 0], [1, 0], [0, 1], [0, 1]]}
        ch, _ = channel_from_json(obj)
        # rows 2 and 3 are (x1=1, x2=0) and (x1=1, x2=1)
        assert ch.transition[1, 0, 1] == 1.0
        assert ch.transition[0, 1, 0] == 1.0

    def test_missing_row_named(self):
        obj = {"inputs": [2, 2], "output": 3,
               "transition": [[1, 0, 0], [0, 1, 0], [0, 1, 0]]}
        with pytest.raises(ValueError, match=r"\(4, 3\)"):
            channel_from_json(obj)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="transition"):
            channel_from_json({"inputs": [2], "output": 2})
