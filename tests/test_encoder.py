import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import adder_mac, adder_mac3, parallel_mac, random_input, \
    random_mac
from macresolve import encoder
from macresolve.encoder import (
    Analysis,
    _chain_encode,
    achieved_rates,
    build_mac_code,
    classify_two_user,
    code_from_descriptor,
    code_to_descriptor,
    descriptor_hash,
    make_plan,
    run_trials,
    tally_fresh_bits,
)
from macresolve.probcore import Dist, MacChannel, Alphabet, make_rng, \
    conditional_entropy, mutual_information, transmit
from macresolve.ratesplit import solve_eps, split_channel, split_rates

UNIF = Dist.bernoulli(0.5)
BUILD = "0123456789abcdef"   # stands in for a build config's hash


def adder_code(n=8, k=3, seed=11, eps_split=0.5):
    return build_mac_code(adder_mac(), [UNIF, UNIF], block_len=n, k=k, xi=0.0,
                          delta=0.0, eps_split=eps_split,
                          rng=make_rng(seed))


class TestPlan:
    def test_concentration_constant_n1024(self):
        # log2(|Y|^2 |X| + 3) sqrt((2/1024)(3 + 10)) with binary inputs
        d = Analysis((2, 2, 2), math.sqrt(7.0)).delta(1024)
        expect = math.log2(11) * math.sqrt((2 / 1024) * 13)
        assert d == pytest.approx(expect, abs=1e-15)
        assert d == pytest.approx(0.5512409165428579, abs=1e-12)
        plan = make_plan(adder_mac(), [UNIF, UNIF], "case1", 1024, 10, 0.05,
                         eps_split=0.5)
        assert plan.eps == pytest.approx(2 * (d + 0.05), abs=1e-15)

    def test_desk_scale_plan_clamps(self):
        plan = make_plan(adder_mac(), [UNIF, UNIF], "case1", 16, 4, 0.05,
                         eps_split=0.5)
        assert plan.asymptotic_only
        assert all(s.hash_len == 0 for s in plan.streams if s.clamped)

    def test_zero_conditional_entropy_is_exact_zero(self):
        # parallel identity channel: Z determines (X, Y), so H(X|Z) = 0 and
        # the hash length is an exact zero, not a clamp
        plan = make_plan(parallel_mac(), [UNIF, UNIF], "case2", 8, 2, 0.0,
                         delta=0.0)
        sx = plan.stream("x")
        assert sx.hash_len == 0
        assert not sx.clamped

    def test_width_conservation(self):
        plan = make_plan(adder_mac(), [UNIF, UNIF], "case1", 16, 3, 0.0,
                         eps_split=0.3, delta=0.0)
        for s in plan.streams:
            assert s.hash_len + s.seed_len_rest == s.codec_width
            assert s.seed_len_first >= s.codec_width

    def test_first_block_length_formula(self):
        plan = make_plan(adder_mac(), [UNIF, UNIF], "case1", 16, 3, 0.0,
                         eps_split=0.5, delta=0.0)
        for s in plan.streams:
            assert s.seed_len_first >= math.ceil(
                16 * (s.source_entropy + plan.eps) - 1e-9)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            make_plan(adder_mac(), [UNIF, UNIF], "case2", 12, 2, 0.05)

    def test_numpy_block_length_is_read_as_its_int(self):
        inputs = [Dist.bernoulli(0.3), Dist.bernoulli(0.6)]
        plan = make_plan(parallel_mac(), inputs, "case2", np.int64(8), 2, 0.0,
                         delta=0.0)
        assert type(plan.block_len) is int
        assert plan == make_plan(parallel_mac(), inputs, "case2", 8, 2, 0.0,
                                 delta=0.0)
        descs = [code_to_descriptor(build_mac_code(
            parallel_mac(), inputs, block_len=n, k=2, xi=0.0, delta=0.0,
            rng=make_rng(1)), BUILD) for n in (np.int64(8), 8)]
        assert descs[0] == descs[1]

    def test_k_one_single_block(self):
        code = adder_code(n=4, k=1)
        bt = run_trials(code, 16, make_rng(0))
        assert bt.k == 1
        assert all(len(v) == 0 for v in bt.recycled.values())

    def test_multi_plan_order(self):
        ch = adder_mac3()
        plan = make_plan(ch, [UNIF] * 3, "multi", 8, 2, 0.0, order=(2, 0, 1),
                         delta=0.0)
        assert [s.name for s in plan.streams] == ["x3", "x1", "x2"]
        j = ch.joint_with_output([UNIF] * 3)
        assert plan.streams[0].fresh_info == pytest.approx(
            mutual_information(j, [2], [3]), abs=1e-12)
        assert plan.streams[2].fresh_info == pytest.approx(
            mutual_information(j, [1], [3, 2, 0]), abs=1e-12)

    def test_case1_streams_follow_the_chain_rule(self):
        # chain order (U, X, V) on the virtual MAC (X, U, V) -> Z, axes 0..3
        rng = np.random.default_rng(5)
        given = {"x": (0, [3, 1]), "u": (1, [3]), "v": (2, [3, 1, 0])}
        for eps in [0.0, 1.0, *rng.uniform(0, 1, 18).tolist()]:
            ch = random_mac(rng)
            p_x, p_y = random_input(rng), random_input(rng)
            plan = make_plan(ch, [p_x, p_y], "case1", 16, 2, 0.0, delta=0.0,
                             eps_split=eps)
            sp = split_rates(ch, p_x, float(p_y.pmf[1]), eps)
            j = split_channel(ch).joint_with_output([p_x, sp.p_u, sp.p_v])
            assert [s.name for s in plan.streams] == ["x", "u", "v"]
            for s in plan.streams:
                axis, cond = given[s.name]
                assert s.recycle_entropy == pytest.approx(
                    conditional_entropy(j, [axis], cond), abs=1e-12)
                assert s.fresh_info == pytest.approx(
                    mutual_information(j, [axis], cond), abs=1e-12)

    def test_multi_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            make_plan(adder_mac3(), [UNIF] * 3, "multi", 8, 2, 0.05,
                      order=(0, 0, 1))

    @pytest.mark.parametrize("mode,kw", [("case2", {}),
                                         ("case1", {"eps_split": 0.5})])
    def test_two_user_mode_on_three_users_refused(self, mode, kw):
        # the plan is refused as build refuses it, not made for x and y
        with pytest.raises(ValueError, match=f"{mode} needs a two-user channel"):
            make_plan(adder_mac3(), [UNIF] * 3, mode, 8, 2, 0.0, delta=0.0,
                      **kw)


class TestChannelInputs:
    def test_case1_sends_max_of_split_users(self):
        assert adder_code(n=4, k=1).channel_inputs == (
            ("x", ("x",)), ("y", ("u", "v")))

    def test_case2_one_stream_per_user(self):
        code = build_mac_code(parallel_mac(), [UNIF, UNIF], mode="case2",
                              block_len=8, k=2, xi=0.0, delta=0.0,
                              rng=make_rng(0))
        assert code.channel_inputs == (("x", ("x",)), ("y", ("y",)))

    def test_multi_in_user_order_whatever_the_chain_order(self):
        code = build_mac_code(adder_mac3(), [UNIF] * 3, mode="multi",
                              order=(2, 0, 1), block_len=8, k=2, xi=0.0,
                              delta=0.0, rng=make_rng(0))
        assert [s.name for s in code.plan.streams] == ["x3", "x1", "x2"]
        assert code.channel_inputs == (
            ("x1", ("x1",)), ("x2", ("x2",)), ("x3", ("x3",)))

    def test_per_user_rates_follow_the_map(self):
        code = adder_code(n=8, k=2)
        per = achieved_rates(code.plan)["per_stream"]
        r1, r2 = (sum(per[p]["rate"] for p in parts)
                  for _, parts in code.channel_inputs)
        assert r1 == per["x"]["rate"]
        assert r2 == per["u"]["rate"] + per["v"]["rate"]


class TestCaseClassification:
    def test_adder_is_case1(self):
        assert classify_two_user(adder_mac(), UNIF, UNIF) == "case1"

    def test_parallel_is_case2(self):
        assert classify_two_user(parallel_mac(), UNIF, UNIF) == "case2"

    def test_wrong_case_refused(self):
        with pytest.raises(ValueError, match="case1"):
            build_mac_code(adder_mac(), [UNIF, UNIF], mode="case2",
                           block_len=4, k=1, xi=0.0, delta=0.0,
                           rng=make_rng(0))
        with pytest.raises(ValueError, match="case2"):
            build_mac_code(parallel_mac(), [UNIF, UNIF], mode="case1",
                           block_len=4, k=1, xi=0.0, delta=0.0,
                           rng=make_rng(0))


class TestChainEncoding:
    def test_hash_chain_replay(self):
        code = adder_code()
        bt = run_trials(code, 300, make_rng(2))
        seqs, recycled = bt.unpacked("streams"), bt.unpacked("recycled")
        for name in ("x", "u", "v"):
            h = code.hashes[name]
            for i in range(1, code.plan.k):
                rec = h.apply_batch(seqs[name][:, i - 1, :])
                assert np.array_equal(rec, recycled[name][i - 1])

    def test_transcript_deterministic(self):
        code = adder_code()
        a = run_trials(code, 200, make_rng(3))
        b = run_trials(code, 200, make_rng(3))
        assert np.array_equal(a.channel_out, b.channel_out)
        seqs_a, seqs_b = a.unpacked("streams"), b.unpacked("streams")
        for name in seqs_a:
            assert np.array_equal(seqs_a[name], seqs_b[name])

    def test_y_is_componentwise_max(self):
        code = adder_code()
        seqs = run_trials(code, 100, make_rng(4)).unpacked("streams")
        assert np.array_equal(seqs["y"], np.maximum(seqs["u"], seqs["v"]))

    def test_eps_zero_split_silences_u(self):
        code = adder_code(eps_split=0.0)
        seqs = run_trials(code, 50, make_rng(5)).unpacked("streams")
        assert not seqs["u"].any()
        assert np.array_equal(seqs["y"], seqs["v"])

    def test_eps_one_split_silences_v(self):
        code = adder_code(eps_split=1.0)
        seqs = run_trials(code, 50, make_rng(6)).unpacked("streams")
        assert not seqs["v"].any()
        assert np.array_equal(seqs["y"], seqs["u"])

    def test_max_law_monte_carlo(self):
        # Composition check against the exact codec laws: with U and V
        # independent, P(Y_i = 1) = 1 - (1 - pu_i)(1 - pv_i) where pu, pv are
        # the exact per-position marginals of the two polar codecs.  (At
        # N = 8, beta = 0.25 those marginals are 0.3827, far from the
        # asymptotic 0.2929, so comparing against q = 0.5 would be wrong.)
        from macresolve.polar import output_pmf_exact
        from macresolve.probcore import all_bit_rows

        code = adder_code(n=8, k=2)
        bits = all_bit_rows(8)
        per_pos = {}
        for name in ("u", "v"):
            px = output_pmf_exact(code.codecs[name])
            per_pos[name] = (px[:, None] * bits).sum(axis=0)
        expect = 1 - (1 - per_pos["u"]) * (1 - per_pos["v"])
        trials = 100_000
        seqs = run_trials(code, trials, make_rng(7)).unpacked("streams")
        emp = seqs["y"][:, 0, :].mean(axis=0)  # block 1: exact-law match
        sigma = 0.5 / math.sqrt(trials)
        assert np.all(np.abs(emp - expect) < 4 * sigma)

    def test_seed_width_checked(self):
        code = adder_code(n=4, k=2)
        widths = [code.plan.stream("x").seed_len_first + 1,
                  code.plan.stream("x").seed_len_rest]
        seeds = [np.packbits(np.zeros((5, w), dtype=np.uint8), axis=1)
                 for w in widths]
        with pytest.raises(ValueError, match="width"):
            _chain_encode(code.codecs["x"], code.hashes["x"],
                          code.plan.stream("x"), seeds, widths, make_rng(0),
                          True)

    def test_recycling_ablation_draws_fresh(self):
        code = adder_code(n=4, k=3)
        bt = run_trials(code, 400, make_rng(8), recycle=False)
        seqs, recycled = bt.unpacked("streams"), bt.unpacked("recycled")
        for name in ("x", "u", "v"):
            h = code.hashes[name]
            if h.out_len == 0:
                continue
            rec = h.apply_batch(seqs[name][:, 0, :])
            assert not np.array_equal(rec, recycled[name][0])


class TestPackedTranscript:
    @pytest.mark.parametrize("recycle", [True, False])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_round_trip(self, n, recycle):
        code = adder_code(n=n, k=3)
        bt = run_trials(code, 37, make_rng(90), recycle=recycle)
        seqs = bt.unpacked("streams")
        assert list(seqs) == ["x", "u", "v", "y"]
        for name, packed in bt.streams.items():
            assert packed.shape == (37, 3, 1) and seqs[name].shape == (37, 3, n)
            assert seqs[name].max() <= 1
            # first bit in the MSB, pad bits 0
            assert np.array_equal(np.packbits(seqs[name], axis=-1), packed)
        assert np.array_equal(seqs["y"], np.maximum(seqs["u"], seqs["v"]))
        assert bt.rec_lens == {s.name: [s.hash_len] * 2
                               for s in code.plan.streams}
        widths = []
        for part, lens in (("fresh_seeds", bt.fresh_lens),
                           ("recycled", bt.rec_lens)):
            for name, blocks in bt.unpacked(part).items():
                assert [b.shape for b in blocks] == [(37, w) for w in lens[name]]
                for bits, packed in zip(blocks, getattr(bt, part)[name]):
                    assert np.array_equal(np.packbits(bits, axis=1), packed)
                widths += lens[name]
        assert any(w % 8 for w in widths)
        assert tally_fresh_bits(bt) == {
            s.name: s.seed_len_first + 2 * s.seed_len_rest
            for s in code.plan.streams}


class TestCase2AndMulti:
    def test_case2_runs_two_streams(self):
        code = build_mac_code(parallel_mac(), [Dist.bernoulli(0.3),
                                               Dist.bernoulli(0.6)],
                              block_len=8, k=2, xi=0.0, delta=0.0,
                              rng=make_rng(9))
        assert code.plan.mode == "case2"
        bt = run_trials(code, 100, make_rng(10))
        assert set(bt.streams) == {"x", "y"}

    def test_case2_hash_lengths_from_substitution(self):
        p_x, p_y = Dist.bernoulli(0.3), Dist.bernoulli(0.6)
        ch = parallel_mac()
        plan = make_plan(ch, [p_x, p_y], "case2", 8, 2, 0.0, delta=0.0)
        j = ch.joint_with_output([p_x, p_y])
        assert plan.stream("x").recycle_entropy == pytest.approx(
            conditional_entropy(j, [0], [2]), abs=1e-12)
        assert plan.stream("y").recycle_entropy == pytest.approx(
            conditional_entropy(j, [1], [2, 0]), abs=1e-12)

    def test_deterministic_source_emits_constants(self):
        ch = parallel_mac()
        code = build_mac_code(ch, [Dist.bernoulli(0.3), Dist.bernoulli(0.0)],
                              block_len=4, k=2, xi=0.0, delta=0.0,
                              rng=make_rng(11))
        bt = run_trials(code, 64, make_rng(12))
        assert not bt.unpacked("streams")["y"].any()

    def test_single_user_reduces_to_point_to_point(self):
        ch = MacChannel((Alphabet(2),), Alphabet(2),
                        np.array([[0.9, 0.1], [0.2, 0.8]]))
        code = build_mac_code(ch, [Dist.bernoulli(0.4)], mode="multi",
                              block_len=8, k=2, xi=0.0, delta=0.0,
                              rng=make_rng(13))
        bt = run_trials(code, 50, make_rng(14))
        assert set(bt.streams) == {"x1"}
        assert code.plan.streams[0].fresh_info == pytest.approx(
            mutual_information(ch.joint_with_output([Dist.bernoulli(0.4)]),
                               [0], [1]), abs=1e-12)

    def test_two_orders_hit_both_corners(self):
        ch = adder_mac()
        j = ch.joint_with_output([UNIF, UNIF])
        lims = {}
        for order in ((0, 1), (1, 0)):
            plan = make_plan(ch, [UNIF, UNIF], "multi", 8, 2, 0.0,
                             order=order, delta=0.0)
            lims[order] = tuple(s.fresh_info for s in plan.streams)
        assert lims[(0, 1)] == pytest.approx(
            (mutual_information(j, [0], [2]),
             mutual_information(j, [1], [2, 0])), abs=1e-12)
        assert lims[(1, 0)] == pytest.approx(
            (mutual_information(j, [1], [2]),
             mutual_information(j, [0], [2, 1])), abs=1e-12)

    def test_three_user_corner_sums_to_output_entropy(self):
        ch = adder_mac3()
        plan = make_plan(ch, [UNIF] * 3, "multi", 8, 2, 0.0, order=(0, 1, 2),
                         delta=0.0)
        total = sum(s.fresh_info for s in plan.streams)
        # H(Z) for Z = X1+X2+X3 with uniform inputs: H(1/8, 3/8, 3/8, 1/8)
        h_z = -(0.125 * math.log2(0.125) * 2 + 0.375 * math.log2(0.375) * 2)
        assert total == pytest.approx(h_z, abs=1e-12)
        code = build_mac_code(ch, [UNIF] * 3, mode="multi", block_len=4, k=2,
                              xi=0.0, delta=0.0, rng=make_rng(15))
        bt = run_trials(code, 64, make_rng(16))
        assert bt.channel_out.max() <= 3


class TestWidenedPlan:
    """One user seen without noise, Bern(0.21), N = 8, beta = 0.05: its codec
    reads 7 seed bits, wider than the 0 hash bits and the 6 fresh bits that
    8 I(X; Z) = 5.93 plans, so the plan widens the fresh bits to 7."""

    @staticmethod
    def _code():
        ch = MacChannel((Alphabet(2),), Alphabet(2), np.eye(2))
        return build_mac_code(ch, [Dist.bernoulli(0.21)], block_len=8, k=3,
                              xi=0.0, delta=0.0, beta=0.05, rng=make_rng(21))

    def test_each_block_codec_reads_all_seven_bits(self):
        from macresolve.polar import encode_batch

        code = self._code()
        codec = code.codecs["x1"]
        assert code.plan.stream("x1").widened and codec.seed_len == 7
        bt = run_trials(code, 200, make_rng(22))
        assert bt.fresh_lens["x1"] == [7, 7, 7]
        assert tally_fresh_bits(bt) == {"x1": 21}
        # no hash bits: block i is the codec of block i's 7 fresh bits, drawn
        # after every seed and before the channel noise
        twin = make_rng(22)
        seeds = [twin.integers(0, 2, size=(200, 7), dtype=np.uint8)
                 for _ in range(3)]
        blocks = bt.unpacked("streams")["x1"]
        for i, block_seeds in enumerate(seeds):
            flipped = block_seeds.copy()
            flipped[:, -1] ^= 1
            state = twin.bit_generator.state
            np.testing.assert_array_equal(
                blocks[:, i], encode_batch(codec, block_seeds, twin))
            other = make_rng(0)
            other.bit_generator.state = state
            # the last seed bit moves every block: x = uG, G invertible
            assert (encode_batch(codec, flipped, other) != blocks[:, i]
                    ).any(axis=1).all()


class TestConstructionInputs:
    def test_one_layout_per_build_and_per_load(self, monkeypatch):
        calls = []
        stream_specs = encoder._stream_specs

        def counted(*args):
            calls.append(args)
            return stream_specs(*args)

        monkeypatch.setattr(encoder, "_stream_specs", counted)
        code = adder_code(n=8, k=2)
        assert len(calls) == 1
        calls.clear()
        code_from_descriptor(code_to_descriptor(code, BUILD), BUILD)
        assert len(calls) == 1

    def test_idealized_xi_is_the_plans(self):
        plan = make_plan(parallel_mac(), [UNIF, UNIF], "case2", 8, 2, 0.3,
                         delta=0.0)
        assert plan.xi == 0.3 and plan.delta == 0.0 and plan.eps == 0.6
        assert plan.idealized

    @pytest.mark.parametrize("kw", [{"eps_split": 0.3}, {"target_r1": 0.75}, {}])
    def test_case1_code_carries_the_split_of_its_eps(self, kw):
        code = build_mac_code(adder_mac(), [UNIF, UNIF], block_len=8, k=2,
                              xi=0.0, delta=0.0, rng=make_rng(0), **kw)
        if "target_r1" in kw:
            expect = solve_eps(adder_mac(), UNIF, 0.5, kw["target_r1"])
        else:
            expect = split_rates(adder_mac(), UNIF, 0.5, kw.get("eps_split", 0.5))
        assert code.split.to_dict() == expect.to_dict()
        for got, want in ((code.split.p_u, expect.p_u),
                          (code.split.p_v, expect.p_v)):
            assert got.pmf.tobytes() == want.pmf.tobytes()


class TestAchievedRates:
    def test_k1_formula(self):
        code = adder_code(n=8, k=1)
        rates = achieved_rates(code.plan)
        for s in code.plan.streams:
            assert rates["per_stream"][s.name]["rate"] == Fraction(
                s.seed_len_first, 8)

    def test_finite_k_closed_form_and_tally(self):
        code = adder_code(n=8, k=4)
        rates = achieved_rates(code.plan)
        bt = run_trials(code, 3, make_rng(17))
        tally = tally_fresh_bits(bt)
        for s in code.plan.streams:
            expect = Fraction(s.seed_len_first + 3 * s.seed_len_rest, 4 * 8)
            assert rates["per_stream"][s.name]["rate"] == expect
            assert tally[s.name] == s.seed_len_first + 3 * s.seed_len_rest

    def test_limits_equal_formula(self):
        ch = adder_mac()
        sp = split_rates(ch, UNIF, 0.5, 0.5)
        plan = make_plan(ch, [UNIF, UNIF], "case1", 1024, 20, 0.05,
                         eps_split=sp.eps)
        rates = achieved_rates(plan)
        j_stream = {"x": sp.rates[0], "u": sp.rates[1], "v": sp.rates[2]}
        for name, r in j_stream.items():
            assert rates["per_stream"][name]["limit"] == pytest.approx(
                r + plan.eps, abs=1e-12)
        per = rates["per_stream"]
        assert per["u"]["limit"] + per["v"]["limit"] == pytest.approx(
            sp.rates[1] + sp.rates[2] + 2 * plan.eps, abs=1e-12)


class TestDescriptor:
    def test_roundtrip_bit_exact(self):
        code = adder_code(n=8, k=2)
        desc = code_to_descriptor(code, BUILD)
        blob = json.dumps(desc, sort_keys=True)
        code2 = code_from_descriptor(json.loads(blob), BUILD)
        a = run_trials(code, 50, make_rng(18))
        b = run_trials(code2, 50, make_rng(18))
        assert np.array_equal(a.channel_out, b.channel_out)
        assert descriptor_hash(desc) == descriptor_hash(
            code_to_descriptor(code2, BUILD))

    def test_rebuild_reproduces_sampled_profiles(self, monkeypatch):
        # the descriptor carries every stream's profile, so a rebuild uses the
        # entropies build computed and never profiles again
        bern = [Dist.bernoulli(0.2), Dist.bernoulli(0.3), Dist.bernoulli(0.4)]
        codes = [
            build_mac_code(adder_mac(), [UNIF, UNIF], block_len=32, k=2,
                           xi=0.0, delta=0.0, rng=make_rng(12)),
            build_mac_code(adder_mac3(), bern, mode="multi", order=(2, 0, 1),
                           block_len=32, k=2, xi=0.0, delta=0.0,
                           rng=make_rng(13)),
            adder_code(n=8, k=2),
        ]
        blobs = [json.dumps(code_to_descriptor(code, BUILD), sort_keys=True)
                 for code in codes]

        def no_profiling(*args, **kwargs):
            raise AssertionError("code_from_descriptor profiled a stream")

        monkeypatch.setattr(encoder, "compute_profile", no_profiling)
        for code, blob, sampled in zip(codes, blobs, (True, True, False)):
            code2 = code_from_descriptor(json.loads(blob), BUILD)
            for s in code.plan.streams:
                prof = code.codecs[s.name]
                prof2 = code2.codecs[s.name]
                assert prof.exact == prof2.exact == (not sampled)
                assert prof.cond_entropies.tobytes() == \
                    prof2.cond_entropies.tobytes()
                assert prof.v_set == prof2.v_set and prof.h_set == prof2.h_set
            a = run_trials(code, 200, make_rng(20))
            b = run_trials(code2, 200, make_rng(20))
            assert np.array_equal(a.channel_out, b.channel_out)


def _transcript_digest(bt) -> str:
    """sha256 over channel outputs (as int64), then every stream and recycled
    array, unpacked one bit per byte."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(bt.channel_out.astype(np.int64)).tobytes())
    for name, arr in bt.unpacked("streams").items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for name, blocks in bt.unpacked("recycled").items():
        h.update(name.encode())
        for arr in blocks:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestRngConsumption:
    """Pin the order in which run_trials draws randomness, across refactors.

    The digests were recorded before the per-mode encode wrappers were folded
    into one loop; any change to the draw order of seeds, SC sampling or
    channel noise changes them.  The other channels are deterministic, so
    only "noisy" lets the channel noise reach a digest; it was recorded while
    each block was still sent in one ``transmit`` call, and its 4,500 trials
    of 2 x 8 symbols now span two row slices of trials.
    """

    DIGESTS = {
        "case1": "b4a2c7506fcf8d8575edd00b2748e3c19e5a0a41db01b17c23f9a5d0e4c08745",
        "case2": "fc20247f629e0da4bb13d818356cf5276138c161de2048fd5830ca5789d00e10",
        "multi": "12d4134e8ca263c582c66b4b56810f5839ea54c2343d810b9b48cd9686ba1fc0",
        "noisy": "d6471b72f3160d270379781d82bcc4564d262c3e5475a7a792d0d24ab674160d",
    }
    TRIALS = {"noisy": 4500}

    def _codes(self):
        return {
            "case1": build_mac_code(adder_mac(), [UNIF, UNIF], block_len=8, k=3,
                                    xi=0.0, delta=0.0, rng=make_rng(70)),
            "case2": build_mac_code(parallel_mac(), [Dist.bernoulli(0.3),
                                                     Dist.bernoulli(0.6)],
                                    block_len=8, k=2, xi=0.0, delta=0.0,
                                    rng=make_rng(71)),
            "multi": build_mac_code(adder_mac3(), [Dist.bernoulli(0.2),
                                                   Dist.bernoulli(0.3),
                                                   Dist.bernoulli(0.4)],
                                    mode="multi", order=(2, 0, 1), block_len=8,
                                    k=2, xi=0.0, delta=0.0,
                                    rng=make_rng(72)),
            "noisy": self._noisy_code(k=2),
        }

    @staticmethod
    def _noisy_code(k):
        return build_mac_code(random_mac(make_rng(73), n_users=2, z_size=4),
                              [Dist.bernoulli(0.3), Dist.bernoulli(0.6)],
                              mode="multi", block_len=8, k=k, xi=0.0, delta=0.0,
                              rng=make_rng(74))

    def test_run_trials_digests(self):
        got = {mode: _transcript_digest(run_trials(
            code, self.TRIALS.get(mode, 64), make_rng(80)))
            for mode, code in self._codes().items()}
        assert got == self.DIGESTS

    def test_fresh_seeds_are_the_first_draws_in_plan_widths(self):
        codes = [*self._codes().values(), TestWidenedPlan._code()]
        widths = {}
        for code in codes:
            bt = run_trials(code, 300, make_rng(82))
            twin = make_rng(82)   # seeds first, stream-major in plan order
            seeds = bt.unpacked("fresh_seeds")
            assert list(seeds) == [s.name for s in code.plan.streams]
            for s in code.plan.streams:
                widths[s.name] = [s.seed_len_first] + \
                    [s.seed_len_rest] * (code.plan.k - 1)
                assert [b.shape[1] for b in seeds[s.name]] == widths[s.name]
                for got, w in zip(seeds[s.name], widths[s.name]):
                    np.testing.assert_array_equal(got, twin.integers(
                        0, 2, size=(300, w), dtype=np.uint8))
        # widths that differ between blocks, so the block order is checked
        assert any(len(set(w)) > 1 for w in widths.values())

    def test_sliced_transmit_equals_one_call_per_block(self, monkeypatch):
        # 9,000 trials of 2 x 8 symbols: row slices of 4,096, 4,096 and 808
        code = self._noisy_code(k=3)
        states = []

        def first_state(ch, words, rng, **kw):
            if not states:
                states.append(rng.bit_generator.state)
            return transmit(ch, words, rng, **kw)

        monkeypatch.setattr(encoder, "transmit", first_state)
        rng = make_rng(81)
        bt = run_trials(code, 9000, rng)
        ref_rng = make_rng(0)
        ref_rng.bit_generator.state = states[0]
        words = [bt.unpacked("streams")[word] for word, _ in code.channel_inputs]
        for i in range(code.plan.k):
            ref = transmit(code.channel, [w[:, i] for w in words], ref_rng)
            np.testing.assert_array_equal(bt.channel_out[:, i], ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

