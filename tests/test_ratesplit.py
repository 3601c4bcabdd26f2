import numpy as np
import pytest

from conftest import adder_mac, random_input, random_mac
from macresolve.probcore import Alphabet, Dist, InfeasibleTargetError, \
    MacChannel, mutual_information
from macresolve.ratesplit import solve_eps, split_channel, split_dists, \
    split_rates

PX = Dist.bernoulli(0.5)


class TestSplitDists:
    def test_eps_zero_degenerates_u(self):
        pu, pv = split_dists(0.7, 0.0)
        assert pu.pmf[1] == 0.0
        assert pv.pmf[1] == pytest.approx(0.7, abs=1e-15)

    def test_eps_one_degenerates_v(self):
        pu, pv = split_dists(0.7, 1.0)
        assert pu.pmf[1] == pytest.approx(0.7, abs=1e-15)
        assert pv.pmf[1] == 0.0

    def test_half_half_closed_form(self):
        pu, pv = split_dists(0.5, 0.5)
        a = 1 - 2 ** -0.5
        assert pu.pmf[1] == pytest.approx(a, abs=1e-15)
        assert pv.pmf[1] == pytest.approx(a, abs=1e-15)
        assert (1 - pu.pmf[1]) * (1 - pv.pmf[1]) == pytest.approx(0.5, abs=1e-12)

    def test_composition_law_exact_randomized(self, rng):
        for _ in range(1000):
            q = float(rng.uniform(0, 0.999))
            eps = float(rng.uniform(0, 1))
            pu, pv = split_dists(q, eps)
            p_max_zero = (1 - pu.pmf[1]) * (1 - pv.pmf[1])
            assert abs(p_max_zero - (1 - q)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            split_dists(1.5, 0.5)
        with pytest.raises(ValueError):
            split_dists(0.5, -0.1)

    def test_q_one_corner_warns(self):
        with pytest.warns(UserWarning, match="discontinuous"):
            pu, pv = split_dists(1.0, 0.5)
        assert pu.pmf[1] == 1.0


class TestSplitRates:
    def test_adder_sum_identity(self):
        sp = split_rates(adder_mac(), PX, 0.5, 0.5)
        assert sum(sp.rates) == pytest.approx(1.5, abs=1e-12)

    def test_eps_zero_endpoint(self):
        ch = adder_mac()
        sp = split_rates(ch, PX, 0.5, 0.0)
        j = ch.joint_with_output([PX, Dist.bernoulli(0.5)])
        assert sp.rates[0] == pytest.approx(mutual_information(j, [0], [2]),
                                            abs=1e-12)
        assert sp.rates[1] == 0.0
        assert sp.rates[2] == pytest.approx(
            mutual_information(j, [1], [2], [0]), abs=1e-12)
        # V carries the law of Y exactly
        assert sp.p_v.pmf[1] == pytest.approx(0.5, abs=1e-15)

    def test_eps_one_endpoint(self):
        ch = adder_mac()
        sp = split_rates(ch, PX, 0.5, 1.0)
        j = ch.joint_with_output([PX, Dist.bernoulli(0.5)])
        assert sp.rates[0] == pytest.approx(
            mutual_information(j, [0], [2], [1]), abs=1e-12)
        assert sp.rates[2] == 0.0
        assert sp.p_u.pmf[1] == pytest.approx(0.5, abs=1e-15)

    def test_sum_identity_random_channels(self, rng):
        for _ in range(50):
            ch = random_mac(rng)
            p_x, p_y = random_input(rng), random_input(rng)
            q = float(p_y.pmf[1])
            eps = float(rng.uniform(0, 1))
            sp = split_rates(ch, p_x, q, eps)
            j = ch.joint_with_output([p_x, p_y])
            i_xy_z = mutual_information(j, [0, 1], [2])
            assert sum(sp.rates) == pytest.approx(i_xy_z, abs=1e-9)

    def test_split_channel_is_max_composition(self, rng):
        for _ in range(20):
            ch = random_mac(rng)
            sch = split_channel(ch)
            assert sch.n_users == 3
            for x in range(2):
                for u in range(2):
                    for v in range(2):
                        assert np.array_equal(sch.transition[x, u, v],
                                              ch.transition[x, max(u, v)])

    def test_split_channel_refuses_other_shapes(self, rng):
        with pytest.raises(ValueError, match="two-user"):
            split_channel(random_mac(rng, 3))
        with pytest.raises(ValueError, match="binary"):
            split_channel(MacChannel((Alphabet(2), Alphabet(3)), Alphabet(2),
                                     np.full((2, 3, 2), 0.5)))


class TestSolveEps:
    def test_endpoints_returned_exactly(self):
        ch = adder_mac()
        lo = solve_eps(ch, PX, 0.5, 0.5)
        assert lo.eps == 0.0
        hi = solve_eps(ch, PX, 0.5, 1.0)
        assert hi.eps == 1.0

    def test_midpoint_within_tolerance(self):
        sp = solve_eps(adder_mac(), PX, 0.5, 0.75)
        assert abs(sp.r1 - 0.75) <= 1e-6
        assert sum(sp.rates) == pytest.approx(1.5, abs=1e-9)

    def test_random_targets(self, rng):
        for _ in range(10):
            ch = random_mac(rng)
            p_x, p_y = random_input(rng), random_input(rng)
            q = float(p_y.pmf[1])
            j = ch.joint_with_output([p_x, p_y])
            lo = mutual_information(j, [0], [2])
            hi = mutual_information(j, [0], [2], [1])
            target = float(rng.uniform(lo, hi))
            sp = solve_eps(ch, p_x, q, target)
            assert abs(sp.r1 - target) <= 1e-6

    def test_infeasible_target_cites_interval(self):
        with pytest.raises(InfeasibleTargetError, match=r"\[0.5, 1.0\]"):
            solve_eps(adder_mac(), PX, 0.5, 1.2)

    def test_image_coverage_grid(self):
        ch = adder_mac()
        grid = np.linspace(0, 1, 1000)
        r1 = [split_rates(ch, PX, 0.5, float(e)).r1 for e in grid]
        assert min(r1) <= 0.5 + 1e-6
        assert max(r1) >= 1.0 - 1e-6

    def test_serialization_fields(self):
        sp = split_rates(adder_mac(), PX, 0.5, 0.5)
        d = sp.to_dict()
        assert set(d) == {"eps", "a", "b", "r1", "r_u", "r_v"}
        assert d["a"] == pytest.approx(1 - 2 ** -0.5)
