import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import adder_mac, adder_mac3, parallel_mac, random_input, random_mac, \
    xor_mac
from macresolve.encoder import Analysis, BatchTranscript, build_mac_code, \
    run_trials
from macresolve import evaluator
from macresolve.evaluator import (
    RegionSpec,
    _ExactEngine,
    _count_rows,
    _pair_tv,
    _percentile_ci,
    _recycled_cells,
    _replicates,
    _window_cells,
    assemble_mc_metrics,
    exact_report,
    lhl_bound_check,
    mc_chunk_features,
    region_2user,
    region_multi,
    transcript_features,
    tv_exhaustive,
)
from macresolve.polar import output_pmf_exact
from macresolve.probcore import (
    Alphabet,
    BudgetError,
    Dist,
    JointDist,
    MacChannel,
    all_bit_rows,
    bits_to_index,
    make_rng,
    mutual_information,
    target_output_dist,
    transmit,
)

UNIF = Dist.bernoulli(0.5)
IDENTITY1 = MacChannel((Alphabet(2),), Alphabet(2), np.eye(2))   # 1 user


class TestRegionTwoUser:
    def test_adder(self):
        spec, tag = region_2user(adder_mac(), UNIF, UNIF)
        assert tag == "case1"
        assert spec.constraints[frozenset({0})] == pytest.approx(0.5, abs=1e-12)
        assert spec.constraints[frozenset({1})] == pytest.approx(0.5, abs=1e-12)
        assert spec.constraints[frozenset({0, 1})] == pytest.approx(1.5, abs=1e-12)
        assert spec.dominant_r1 == pytest.approx((0.5, 1.0), abs=1e-12)

    def test_xor(self):
        spec, tag = region_2user(xor_mac(), UNIF, UNIF)
        assert tag == "case1"
        assert spec.constraints[frozenset({0})] == pytest.approx(0.0, abs=1e-12)
        assert spec.constraints[frozenset({0, 1})] == pytest.approx(1.0, abs=1e-12)

    def test_parallel_case2_corner(self):
        p_x, p_y = Dist.bernoulli(0.3), Dist.bernoulli(0.6)
        spec, tag = region_2user(parallel_mac(), p_x, p_y)
        assert tag == "case2"
        from macresolve.probcore import entropy

        corner = spec.corner_points[(0, 1)]
        assert corner[0] == pytest.approx(entropy(p_x), abs=1e-12)
        assert corner[1] == pytest.approx(entropy(p_y), abs=1e-12)
        # both orders coincide at the single corner C
        assert spec.corner_points[(1, 0)] == pytest.approx(corner, abs=1e-12)

    def test_useless_channel_degenerate(self):
        t = np.full((2, 2, 2), 0.5)
        ch = MacChannel((Alphabet(2), Alphabet(2)), Alphabet(2), t)
        spec, tag = region_2user(ch, UNIF, UNIF)
        assert all(abs(v) < 1e-12 for v in spec.constraints.values())


class TestRegionMulti:
    def test_single_user(self):
        ch = MacChannel((Alphabet(2),), Alphabet(2),
                        np.array([[0.8, 0.2], [0.3, 0.7]]))
        spec = region_multi(ch, [Dist.bernoulli(0.4)])
        j = ch.joint_with_output([Dist.bernoulli(0.4)])
        assert spec.constraints[frozenset({0})] == pytest.approx(
            mutual_information(j, [0], [1]), abs=1e-12)

    def test_adder3_corner_sums(self):
        spec = region_multi(adder_mac3(), [UNIF] * 3)
        full = spec.constraints[frozenset({0, 1, 2})]
        for sigma, rates in spec.corner_points.items():
            assert sum(rates) == pytest.approx(full, abs=1e-12)

    def test_symmetric_channel_corners_are_permutations(self):
        spec = region_multi(adder_mac3(), [UNIF] * 3)
        base = tuple(sorted(spec.corner_points[(0, 1, 2)]))
        for rates in spec.corner_points.values():
            assert tuple(sorted(rates)) == pytest.approx(base, abs=1e-12)

    def test_l_too_large(self):
        t = np.full((2,) * 5 + (2,), 0.5)
        ch = MacChannel((Alphabet(2),) * 5, Alphabet(2), t)
        with pytest.raises(ValueError, match="L <= 4"):
            region_multi(ch, [UNIF] * 5)

    def test_random_channels_contrapolymatroid(self, rng):
        # supermodularity of I (equivalently submodularity of -I) plus corner
        # feasibility and tightness are enforced by the RegionSpec constructor
        for _ in range(20):
            ch = random_mac(rng, n_users=3)
            ins = [random_input(rng) for _ in range(3)]
            spec = region_multi(ch, ins)
            get = lambda s: spec.constraints[frozenset(s)] if s else 0.0
            subsets = [set(c) for r in range(1, 4)
                       for c in itertools.combinations(range(3), r)]
            for s in subsets:
                for t in subsets:
                    assert get(s | t) + get(s & t) >= get(s) + get(t) - 1e-9

    def test_invalid_region_rejected(self):
        constraints = {
            frozenset({0}): 0.6, frozenset({1}): 0.6, frozenset({0, 1}): 1.0,
        }  # violates supermodularity: 1.0 + 0 < 0.6 + 0.6
        with pytest.raises(ValueError, match="supermodular"):
            RegionSpec(2, constraints, {(0, 1): (0.6, 0.4), (1, 0): (0.4, 0.6)})


def small_code(ch, inputs, n, k, seed, **kw):
    return build_mac_code(ch, inputs, block_len=n, k=k, xi=0.0,
                          delta=0.0, rng=make_rng(seed), **kw)


# -- the joint-state engine, kept as the reference for the key-space engine ------


def _emission_table(ch, n_sym):
    """(2^(L N), |Z|^N) conditional law of one output block given inputs."""
    n_users = ch.n_users
    combos = all_bit_rows(n_users * n_sym)   # (2^(LN), L*N); user-major
    per_user = [combos[:, u * n_sym:(u + 1) * n_sym] for u in range(n_users)]
    em = np.ones((combos.shape[0], 1))
    for pos in range(n_sym):
        idx = tuple(pu[:, pos] for pu in per_user)
        row = ch.transition[idx]             # (2^(LN), |Z|)
        em = (em[:, :, None] * row[:, None, :]).reshape(combos.shape[0], -1)
    return em


def gathered_emission(code, grids):
    """Emission rows over joint stream states, gathered from the input table."""
    n_sym = code.plan.block_len
    rows = all_bit_rows(n_sym)
    keys = np.zeros(len(next(iter(grids.values()))), dtype=np.int64)
    for _, parts in code.channel_inputs:
        word = np.bitwise_or.reduce([rows[grids[p]] for p in parts])
        keys = keys * (1 << n_sym) + bits_to_index(word)
    return _emission_table(code.channel, n_sym)[keys]


def _stream_transition(code, name):
    """2^N x 2^N law of block i given block i-1 for one stream's chain."""
    codec = code.codecs[name]
    h = code.hashes[name]
    n_sym = code.plan.block_len
    rows = np.empty((1 << n_sym, 1 << n_sym))
    states = all_bit_rows(n_sym)
    clamp_len = min(h.out_len, codec.seed_len)
    hashed = h.apply_batch(states)[:, :clamp_len] if clamp_len else None
    for s in range(1 << n_sym):
        clamp = hashed[s] if hashed is not None else None
        rows[s] = output_pmf_exact(codec, clamp)
    return rows


class StateSpaceEngine:
    """Block-Markov law carried over the joint stream state (2^(S N) entries)."""

    def __init__(self, code):
        self.code = code
        self.names = [s.name for s in code.plan.streams]
        self.n_sym = code.plan.block_len
        self.stream_dim = 1 << self.n_sym
        self.n_states = self.stream_dim ** len(self.names)
        self.zn = code.channel.output_alphabet.size ** self.n_sym
        self.p1 = {name: output_pmf_exact(code.codecs[name]) for name in self.names}
        self.trans = {name: _stream_transition(code, name) for name in self.names}
        grids = np.indices((self.stream_dim,) * len(self.names)).reshape(
            len(self.names), -1)
        self.grids = dict(zip(self.names, grids))
        self.emission = gathered_emission(code, self.grids)

    def block1_state_pmf(self):
        p = np.array([1.0])
        for name in self.names:
            p = np.multiply.outer(p, self.p1[name]).reshape(-1)
        return p

    def propagate(self, table, transpose=False):
        """Contract each stream axis of a (states, ...) table with its block law."""
        t = table.reshape((self.stream_dim,) * len(self.names) + table.shape[1:])
        for axis, name in enumerate(self.names):
            m = self.trans[name].T if transpose else self.trans[name]
            t = np.moveaxis(np.tensordot(m, t, axes=(0, axis)), 0, axis)
        return t.reshape(table.shape)

    def advance(self, state_pmf):
        return self.propagate(state_pmf)

    def joint_z_pmf(self):
        k = self.code.plan.k
        state = self.block1_state_pmf()
        if k == 1:
            return state @ self.emission
        laws = []
        # one first-block output at a time keeps the (states, |Z|^(N(k-1))) carry
        # |Z|^N times smaller
        for z1 in range(self.zn):
            carry = (state * self.emission[:, z1])[:, None]
            for _ in range(k - 2):
                carry = self.propagate(carry)
                carry = (carry[:, :, None] * self.emission[:, None, :]).reshape(
                    self.n_states, -1)
            carry = self.propagate(carry)
            laws.append(np.einsum("sz,sw->zw", carry, self.emission).reshape(-1))
        return np.concatenate(laws)


def reference_exact_rows(code):
    """exact_report's engine-dependent rows, computed in joint-state space."""
    eng = StateSpaceEngine(code)
    plan = code.plan
    qz = target_output_dist(code.channel, list(code.input_dists)).pmf
    q_block = np.array([1.0])
    for _ in range(plan.block_len):
        q_block = np.multiply.outer(q_block, qz).reshape(-1)
    q_all = np.array([1.0])
    for _ in range(plan.k):
        q_all = np.multiply.outer(q_all, q_block).reshape(-1)
    joint = eng.joint_z_pmf()
    rows = {"joint_output_tv": np.abs(joint - q_all).sum()}
    state = eng.block1_state_pmf()
    states_seq, block_z = [], []
    for i in range(plan.k):
        if i > 0:
            state = eng.advance(state)
        states_seq.append(state)
        block_z.append(state @ eng.emission)
        rows[f"block{i + 1}_output_tv"] = np.abs(block_z[-1] - q_block).sum()
    if plan.k >= 2:
        prod = np.array([1.0])
        for pz in block_z:
            prod = np.multiply.outer(prod, pz).reshape(-1)
        rows["interblock_product_tv"] = np.abs(joint - prod).sum()
        total_r = sum(s.hash_len for s in plan.streams)
        e_key = np.zeros(eng.n_states, dtype=np.int64)
        for name in eng.names:
            h = code.hashes[name]
            htab = bits_to_index(h.apply_batch(all_bit_rows(eng.n_sym)))
            e_key = (e_key << h.out_len) | htab[eng.grids[name]]
        w = eng.propagate(eng.emission, transpose=True)
        for i in range(2, plan.k + 1):
            m_prev = states_seq[i - 2]
            joint_ez = np.zeros((1 << total_r, eng.zn))
            np.add.at(joint_ez, e_key, m_prev[:, None] * eng.emission)
            marg = np.outer(joint_ez.sum(axis=1), joint_ez.sum(axis=0))
            rows[f"recycled_vs_prev_output_tv_block{i}"] = \
                np.abs(joint_ez - marg).sum()
            pair = np.einsum("s,sz,sw->zw", m_prev, eng.emission, w)
            rows[f"consecutive_output_tv_block{i}"] = np.abs(
                pair - np.outer(block_z[i - 2], block_z[i - 1])).sum()
    return rows, joint


class TestExactEngine:
    def test_k1_deterministic_identity_tv_zero(self):
        ch = MacChannel((Alphabet(2),), Alphabet(2), np.eye(2))
        code = small_code(ch, [UNIF], 4, 1, 21, mode="multi")
        assert tv_exhaustive(code) == pytest.approx(0.0, abs=1e-12)

    def test_k1_matches_pushforward_of_output_pmf_exact(self, rng):
        ch = random_mac(rng)
        inputs = [random_input(rng), random_input(rng)]
        code = small_code(ch, inputs, 4, 1, 22)
        tv = tv_exhaustive(code)
        # independent composition: per-stream exact laws -> channel
        eng = _ExactEngine(code)
        p = np.array([1.0])
        for s in code.plan.streams:
            p = np.multiply.outer(p, output_pmf_exact(code.codecs[s.name])).reshape(-1)
        out = p @ eng.emission
        expect = np.abs(out - eng.target_z_pow(1)).sum()
        assert tv == pytest.approx(expect, abs=1e-12)

    def test_joint_tv_dominates_block_marginal_tv(self, rng):
        ch = random_mac(rng)
        inputs = [random_input(rng), random_input(rng)]
        code = small_code(ch, inputs, 2, 2, 23)
        rows = {m.name: m.value for m in exact_report(code)}
        assert rows["joint_output_tv"] >= rows["block1_output_tv"] - 1e-12
        assert rows["joint_output_tv"] >= rows["block2_output_tv"] - 1e-12

    def test_agrees_with_monte_carlo(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 2, 2, 24)
        eng = _ExactEngine(code)
        jz = eng.joint_z_pmf()
        trials = 200_000
        bt = run_trials(code, trials, make_rng(25))
        z = bt.channel_out.reshape(trials, -1)
        idx = np.zeros(trials, dtype=np.int64)
        for c in range(z.shape[1]):
            idx = idx * 3 + z[:, c]
        emp = np.bincount(idx, minlength=81) / trials
        assert np.abs(emp - jz).sum() < 0.02

    def test_budget_guard(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 16, 2, 26)
        with pytest.raises(BudgetError):
            tv_exhaustive(code)

    @pytest.mark.parametrize("n,k,reason", [
        (2, 2, None),
        (2, 8, "entries for the"),
        (32, 1, "beyond the exact codec cap"),
    ])
    def test_exact_budget_is_the_engines_verdict(self, n, k, reason):
        # the route is decided before any work from this reason alone
        code = small_code(adder_mac(), [UNIF, UNIF], n, k, 28)
        said = evaluator.exact_budget(code)
        if reason is None:
            assert said is None
            _ExactEngine(code)
        else:
            assert reason in said
            with pytest.raises(BudgetError) as refused:
                _ExactEngine(code)
            assert str(refused.value) == said

    def test_exact_independence_diagnostics_below_bounds(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 2, 2, 27)
        rows = {m.name: m.value for m in exact_report(code)}
        # the analysis bounds are vacuous at this scale but must still hold;
        # L = 3, c = sqrt(7), xi = 0: delta0 = 2/N + c, delta_1 = L(d + d0) + L^2 d
        d0 = 2 / 2 + 7 ** 0.5
        d = rows["codec_tv_worst_stream"]
        assert rows["bound_delta0"] == pytest.approx(d0, rel=1e-15)
        delta_recycle_2 = 4 * (3 * (d + d0) + 9 * d) + 2 * d0
        assert rows["recycled_vs_prev_output_tv_block2"] <= delta_recycle_2
        assert rows["joint_output_tv"] <= rows["bound_joint_tv"]


def _random2(seed):
    rng = make_rng(seed)
    return random_mac(rng), [random_input(rng), random_input(rng)]


BERN_36 = [Dist.bernoulli(0.3), Dist.bernoulli(0.6)]
BERN_234 = [Dist.bernoulli(0.2), Dist.bernoulli(0.3), Dist.bernoulli(0.4)]
# (id, channel and inputs, mode, N, k); k = 3 and 4 run the key-space carry loop
KEY_SPACE_CONFIGS = [
    ("case1-adder-n2-k1", lambda: (adder_mac(), [UNIF, UNIF]), "case1", 2, 1),
    ("case1-adder-n2-k3", lambda: (adder_mac(), [UNIF, UNIF]), "case1", 2, 3),
    ("case1-adder-n2-k4", lambda: (adder_mac(), [UNIF, UNIF]), "case1", 2, 4),
    ("case1-xor-n2-k3", lambda: (xor_mac(), [UNIF, UNIF]), "case1", 2, 3),
    ("case1-random-n2-k4", lambda: _random2(71), "case1", 2, 4),
    ("case1-adder-n4-k2", lambda: (adder_mac(), [UNIF, UNIF]), "case1", 4, 2),
    # exhaustive only since the key-space carry: 2^12 * 81^2 states before
    ("case1-adder-n4-k3", lambda: (adder_mac(), [UNIF, UNIF]), "case1", 4, 3),
    ("case2-parallel-n2-k4", lambda: (parallel_mac(), BERN_36), "case2", 2, 4),
    ("case2-parallel-n4-k2", lambda: (parallel_mac(), BERN_36), "case2", 4, 2),
    ("multi-adder3-n2-k3", lambda: (adder_mac3(), BERN_234), "multi", 2, 3),
    ("multi-adder3-n2-k4", lambda: (adder_mac3(), [UNIF] * 3), "multi", 2, 4),
    ("multi-random-n2-k3", lambda: _random2(72), "multi", 2, 3),
]


class TestKeySpaceEngine:
    @pytest.mark.parametrize("channel, mode, n, k",
                             [c[1:] for c in KEY_SPACE_CONFIGS],
                             ids=[c[0] for c in KEY_SPACE_CONFIGS])
    def test_rows_match_state_space_reference(self, channel, mode, n, k):
        ch, inputs = channel()
        code = small_code(ch, inputs, n, k, 70 + n + k, mode=mode)
        rows = {m.name: m.value for m in exact_report(code)}
        ref, ref_joint = reference_exact_rows(code)
        assert set(ref) <= set(rows)
        for name, value in ref.items():
            assert abs(rows[name] - value) <= 1e-12, name
        assert np.abs(_ExactEngine(code).joint_z_pmf() - ref_joint).max() <= 1e-12

    def test_codec_laws_only_per_key(self):
        # C_s has one row per clamp of the first c_s hash bits, not per word
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 2, 73, mode="case1")
        eng = _ExactEngine(code)
        for (laws, word_key), s in zip(eng.stream_laws, code.plan.streams):
            c = min(s.hash_len, code.codecs[s.name].seed_len)
            assert laws.shape == (1 << c, 16)
            np.testing.assert_array_equal(laws[word_key],
                                          _stream_transition(code, s.name))

    @pytest.mark.parametrize("channel, mode", [
        (lambda: (adder_mac(), [UNIF, UNIF]), "case1"),
        (lambda: _random2(74), "case1"),
        (lambda: (parallel_mac(), BERN_36), "case2"),
        (lambda: (adder_mac3(), BERN_234), "multi"),
    ], ids=["case1-adder", "case1-noisy", "case2-parallel", "multi-adder3"])
    def test_emission_equals_gathered_input_table(self, channel, mode):
        ch, inputs = channel()
        code = small_code(ch, inputs, 4, 1, 75, mode=mode)
        eng = _ExactEngine(code)
        ref = gathered_emission(code, dict(zip(eng.names, eng._stream_grids())))
        assert eng.emission.tobytes() == ref.tobytes()

    def test_unrecycled_stream_reuses_block1_law(self, monkeypatch):
        # R = 0: each stream's only clamp is empty, so C_s is its block-1 law
        code = small_code(parallel_mac(), BERN_36, 4, 3, 76, mode="case2")
        calls = []

        def counted(codec, clamp=None):
            calls.append(clamp)
            return output_pmf_exact(codec, clamp)

        monkeypatch.setattr(evaluator, "output_pmf_exact", counted)
        eng = _ExactEngine(code)
        assert eng.n_keys == 1 and calls == [None, None]
        for (laws, _), name in zip(eng.stream_laws, eng.names):
            assert laws.tobytes() == output_pmf_exact(
                code.codecs[name], np.zeros(0, dtype=np.uint8)).tobytes()


def plain_code(ch, inputs, n, k, seed, **kw):
    """A code without idealized constants: at N=4 every hash clamps, so R = 0."""
    code = build_mac_code(ch, inputs, block_len=n, k=k, xi=0.05,
                          rng=make_rng(seed), **kw)
    assert code.plan.asymptotic_only
    return code


def block_laws(eng):
    return [state @ eng.emission for state in eng.block_states()]


def whole_table_tvs(eng, laws):
    """sum |p - q| over the materialized k-block law, target and block product."""
    joint = eng.joint_z_pmf()
    target = np.array([1.0])
    for _ in range(eng.code.plan.k * eng.n_sym):
        target = np.multiply.outer(target, eng.qz).reshape(-1)
    tvs = [float(np.abs(joint - target).sum())]
    del target
    if len(laws) >= 2:
        prod = np.array([1.0])
        for pz in laws:
            prod = np.multiply.outer(prod, pz).reshape(-1)
        tvs.append(float(np.abs(joint - prod).sum()))
    return tvs


# (id, code factory); every key length is 0 (R = 0) in these codes
STREAMED_CONFIGS = [
    ("exact_chain-k1", lambda: small_code(parallel_mac(), BERN_36, 4, 1, 80,
                                          mode="case2")),
    ("exact_chain-k2", lambda: small_code(parallel_mac(), BERN_36, 4, 2, 80,
                                          mode="case2")),
    ("exact_chain-k3", lambda: small_code(parallel_mac(), BERN_36, 4, 3, 80,
                                          mode="case2")),
    # |Z| = 3: 81^k entries, so the pairwise tree cuts rows apart
    ("adder-k2", lambda: plain_code(adder_mac(), [UNIF, UNIF], 4, 2, 81, mode="case1")),
    ("adder-k3", lambda: plain_code(adder_mac(), [UNIF, UNIF], 4, 3, 81, mode="case1")),
]


class TestStreamedTvs:
    @pytest.mark.parametrize("make", [c[1] for c in STREAMED_CONFIGS],
                             ids=[c[0] for c in STREAMED_CONFIGS])
    def test_equal_whole_table_sums_bit_for_bit(self, make):
        code = make()
        eng = _ExactEngine(code)
        assert eng.n_keys == 1
        laws = block_laws(eng)
        expect = whole_table_tvs(eng, laws)
        assert eng.output_tvs(laws if code.plan.k >= 2 else None) == expect
        assert tv_exhaustive(code) == expect[0]
        rows = {m.name: m.value for m in exact_report(code)}
        assert rows["joint_output_tv"] == expect[0]
        if code.plan.k >= 2:
            assert rows["interblock_product_tv"] == expect[1]

    @pytest.mark.parametrize("chunk", [128, 129, 1000, 4096])
    @pytest.mark.parametrize("make", [STREAMED_CONFIGS[1][1], STREAMED_CONFIGS[3][1]],
                             ids=["exact_chain-k2", "adder-k2"])
    def test_any_chunk_size_keeps_the_sums(self, make, chunk, monkeypatch):
        eng = _ExactEngine(make())
        laws = block_laws(eng)
        expect = whole_table_tvs(eng, laws)
        monkeypatch.setattr(evaluator, "EXACT_CHUNK_ENTRIES", chunk)
        assert eng.output_tvs(laws) == expect

    def test_key_space_carry_agrees(self):
        # the 2-user adder in case 1, N=4, k=3, idealized: R = 7
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 3, 82, mode="case1")
        eng = _ExactEngine(code)
        assert eng.n_keys == 1 << 7
        laws = block_laws(eng)
        got = eng.output_tvs(laws)
        for a, b in zip(got, whole_table_tvs(eng, laws), strict=True):
            assert abs(a - b) <= 1e-12

    def test_recycled_rows_equal_one_add_at(self):
        # 2^12 states x 81 outputs run in several state ranges
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 3, 82, mode="case1")
        eng = _ExactEngine(code)
        assert eng.n_states * eng.zn > evaluator.EXACT_CHUNK_ENTRIES
        rows = {m.name: m.value for m in exact_report(code)}
        total_r = sum(s.hash_len for s in code.plan.streams)
        state = eng.block1_state_pmf()
        for i in range(2, code.plan.k + 1):
            joint_ez = np.zeros((1 << total_r, eng.zn))
            np.add.at(joint_ez, eng.e_key, state[:, None] * eng.emission)
            marg = np.outer(joint_ez.sum(axis=1), joint_ez.sum(axis=0))
            assert rows[f"recycled_vs_prev_output_tv_block{i}"] == \
                float(np.abs(joint_ez - marg).sum())
            state = eng.advance(state)

    def test_exact_chain_report_holds_no_whole_law(self):
        # the output law, its target and the block product have 4^12 entries,
        # 128 MB each
        code = small_code(parallel_mac(), BERN_36, 4, 3, 80, mode="case2")
        tracemalloc.start()
        try:
            exact_report(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    @pytest.mark.parametrize("call", ["output_tvs", "exact_report"])
    def test_no_table_outlives_the_call(self, call):
        # with the cyclic collector off, only reference counts free memory:
        # a reference cycle in the output walk would hold its chunks' tables,
        # and through them the engine, after the call returns
        code = small_code(parallel_mac(), BERN_36, 4, 3, 80, mode="case2")
        laws = block_laws(_ExactEngine(code))
        eng = _ExactEngine(code)
        run = {"output_tvs": lambda: eng.output_tvs(laws),
               "exact_report": lambda: exact_report(code)}[call]
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            run()
            before = tracemalloc.get_traced_memory()[0]
            run()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert abs(after - before) <= 64 << 10

    def test_report_holds_two_budget_tables_at_most(self):
        # the 2-user adder in case 1, N=4, k=3 (R = 7): E 2.5, C 4.0, A 10.1
        # and the carry 6.4 MiB; A and the carry are live together while the
        # carry forms, and no third table is live beside any two
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 3, 82, mode="case1")
        eng = _ExactEngine(code)
        entries = [eng.n_states * eng.zn, eng.n_keys * eng.n_states,
                   eng.n_keys ** 2 * eng.zn, eng.n_keys * eng.zn ** 2]
        del eng
        tracemalloc.start()
        try:
            exact_report(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * sum(sorted(entries)[-2:]) + (2 << 20)


def window_rows(code, trials, rng, n_boot=1000, **kw):
    """Rows of one chunk of fresh trials; the replicates draw from rng's first child."""
    feats = mc_chunk_features(code, trials, rng, **kw)
    return assemble_mc_metrics(code, feats, rng.spawn(1)[0], n_boot=n_boot)


def dependence_rows(code, bt, rng, n_boot=1000):
    """Rows of a transcript; the replicates draw from rng's first child."""
    return assemble_mc_metrics(code, transcript_features(code, bt),
                               rng.spawn(1)[0], n_boot=n_boot)


class TestMonteCarlo:
    def test_null_calibration_near_zero(self):
        # true i.i.d. draws from the input laws, sent through the channel
        code = small_code(adder_mac(), [UNIF, UNIF], 8, 3, 28)
        trials, n_sym, rng = 30_000, code.plan.block_len, make_rng(29)
        z = np.stack([transmit(code.channel,
                               [rng.choice(d.alphabet.size, size=(trials, n_sym),
                                           p=d.pmf)
                                for d in code.input_dists], rng)
                      for _ in range(code.plan.k)], axis=1)
        rows = dependence_rows(code, BatchTranscript({}, {}, {}, z, {}, {}),
                               rng, n_boot=200)
        for m in rows:
            assert m.value < 0.02

    def test_trials_guard(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 2, 30)
        with pytest.raises(ValueError, match="1000"):
            window_rows(code, 10, make_rng(0))

    def test_trials_guard_on_summed_chunks(self):
        # 9000 trials in chunks of 8192 leave an 808-trial chunk; the guard
        # applies to the summed tables, not to each chunk
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 2, 30)
        rng = make_rng(1)
        chunks = [mc_chunk_features(code, n, rng) for n in (8192, 808)]
        feats = {key: sum(c[key] for c in chunks) for key in chunks[0]}
        rows = assemble_mc_metrics(code, feats, make_rng(2), n_boot=50)
        assert {m.samples for m in rows} == {9000}

    def test_windowed_tv_decreases_with_n(self):
        vals = {}
        for n in (8, 16):
            code = small_code(adder_mac(), [UNIF, UNIF], n, 3, 31)
            rows = window_rows(code, 30_000, make_rng(32), n_boot=200)
            vals[n] = {m.name: m for m in rows}
        w8, w16 = vals[8]["windowed_tv_w2"], vals[16]["windowed_tv_w2"]
        assert w16.value < w8.value
        assert w16.ci_hi < w8.ci_lo

    def test_mc_ci_covers_exact_value(self):
        # exact pooled symbol-marginal TV from the engine vs the MC estimate
        code = small_code(adder_mac(), [UNIF, UNIF], 2, 2, 33)
        eng = _ExactEngine(code)
        per_pos = []
        for state in eng.block_states():
            pz_block = (state @ eng.emission).reshape(3, 3)
            per_pos.append(pz_block.sum(axis=1))
            per_pos.append(pz_block.sum(axis=0))
        pooled = np.mean(per_pos, axis=0)
        qz = np.array([0.25, 0.5, 0.25])
        exact_tv = np.abs(pooled - qz).sum()
        covered = 0
        for rep in range(20):
            rows = window_rows(code, 20_000, make_rng(1000 + rep), n_boot=300)
            m = [r for r in rows if r.name == "symbol_marginal_tv"][0]
            covered += (m.ci_lo - 0.01 <= exact_tv <= m.ci_hi + 0.01)
        assert covered >= 19

    def test_fresh_seed_ablation_at_independence_floor(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 8, 3, 34)
        trials = 20_000
        bt = run_trials(code, trials, make_rng(35), recycle=False)
        rows = dependence_rows(code, bt, make_rng(36), n_boot=200)
        m = [r for r in rows if r.name == "recycled_independence_tv_mean"][0]
        # plug-in TV of a (2^3 x 9)-cell empirical joint under true
        # independence stays below sqrt(cells / trials)
        floor = (8 * 9 / trials) ** 0.5
        assert m.value <= 1.2 * floor

    def test_independence_k1_vacuous(self):
        # one block recycles nothing: only the window rows are reported
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 1, 37)
        bt = run_trials(code, 2_000, make_rng(38))
        rows = assemble_mc_metrics(
            code, transcript_features(code, bt), make_rng(39), n_boot=50)
        assert [m.name for m in rows] == ["symbol_marginal_tv", "windowed_tv_w2"]

    def test_window_longer_than_block_rejected(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 2, 2, 40)
        bt = run_trials(code, 10, make_rng(41))
        with pytest.raises(ValueError, match="window 3"):
            transcript_features(code, bt, window=3)

    def test_independence_needs_samples(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 4, 2, 40)
        bt = run_trials(code, 100, make_rng(41))
        with pytest.raises(ValueError, match="1000"):
            dependence_rows(code, bt, make_rng(42))

    def test_mc_chunk_holds_little_more_than_its_transcript(self):
        # seeds, blocks, recycled bits and channel outputs, one per uint8:
        # full-chunk int64 / float64 temporaries put the peak at 2.4 times
        # these bytes, without them it was 1.24 times, and with the bits
        # packed eight to a byte it is 0.57 times.  This is the mc_longblock
        # code; unpacking each block's channel words for all 8,192 trials at
        # once put the peak at 5.66 MiB, a row slice at a time it is 4.95
        code = small_code(adder_mac3(), BERN_234, 64, 3, 81, mode="multi")
        bt = run_trials(code, 8192, make_rng(82))
        arrays = [*bt.unpacked("streams").values(), bt.channel_out,
                  *(a for blocks in bt.unpacked("fresh_seeds").values()
                    for a in blocks),
                  *(a for blocks in bt.unpacked("recycled").values()
                    for a in blocks)]
        assert {a.dtype for a in arrays} == {np.dtype(np.uint8)}
        transcript = sum(a.nbytes for a in arrays)
        del bt, arrays
        tracemalloc.start()
        try:
            mc_chunk_features(code, 8192, make_rng(82))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * transcript
        assert peak < 5.2 * (1 << 20)

    def test_packed_chunk_peak(self):
        # the mc_bootstrap code: 2-user adder, case 1, N = 32, k = 5; with one
        # bit per uint8 an 8,192-trial chunk peaked at 11.5 MiB, packed at 4.25
        code = small_code(adder_mac(), [UNIF, UNIF], 32, 5, 84)
        mc_chunk_features(code, 64, make_rng(85))
        tracemalloc.start()
        try:
            mc_chunk_features(code, 8192, make_rng(85))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 << 20

    def test_assembly_holds_one_slice_of_pair_replicates(self):
        # the mc_longblock code's tables summed over two chunks: with each
        # pair table's (1000, cells) replicates drawn at once the peak was
        # 9.92 MiB, a row slice at a time it is 2.66
        code = small_code(adder_mac3(), BERN_234, 64, 3, 81, mode="multi")
        parts = [mc_chunk_features(code, 8192, make_rng(seed))
                 for seed in (86, 87)]
        feats = {key: parts[0][key] + parts[1][key] for key in parts[0]}
        assemble_mc_metrics(code, feats, make_rng(88))
        tracemalloc.start()
        try:
            assemble_mc_metrics(code, feats, make_rng(88))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("rec_bits", [0, 1, 3, 40])
    def test_recycled_cells_read_the_first_bits(self, rec_bits):
        # the streams' recycled bits side by side, unpacked in full
        code = small_code(adder_mac(), [UNIF, UNIF], 8, 3, 43)
        bt = run_trials(code, 500, make_rng(86))
        recycled = bt.unpacked("recycled")
        whole = [np.concatenate([recycled[s.name][i] for s in code.plan.streams],
                                axis=1) for i in range(2)]
        b = min(rec_bits, whole[0].shape[1])
        cells, n_cells = _recycled_cells(bt, code, rec_bits)
        assert n_cells == 1 << b
        np.testing.assert_array_equal(
            cells, np.stack([bits_to_index(w[:, :b]) for w in whole]))

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_sliced_tables_equal_whole_chunk_counts(self, window):
        # 2,000 trials of 3 x 64 symbols span six row slices
        code = small_code(adder_mac3(), BERN_234, 64, 3, 81, mode="multi")
        bt = run_trials(code, 2000, make_rng(83))
        feats = transcript_features(code, bt, window=window)
        z = bt.channel_out.astype(np.int64)
        trials, _, n_sym = z.shape
        z_size = code.channel.output_alphabet.size
        hists = []
        for w in sorted({1, window}):
            cells = sum(z[:, :, off:n_sym - w + 1 + off] * z_size ** (w - 1 - off)
                        for off in range(w))
            hist = np.zeros((trials, z_size ** w), dtype=np.int64)
            np.add.at(hist, (np.arange(trials)[:, None],
                             cells.reshape(trials, -1)), 1)
            np.testing.assert_array_equal(feats[f"win{w}"], hist.sum(axis=0))
            hists.append(hist)
        per_trial = np.concatenate(hists, axis=1)
        assert feats["mom"].dtype == np.int64
        np.testing.assert_array_equal(feats["mom"], per_trial.T @ per_trial)

    def test_window_tables_hold_one_slice_of_trials(self):
        # with --window 3 the 3-user adder counts 4 + 64 cells per trial: a
        # whole-chunk int64 table of them would peak 5.2 MiB above the
        # transcript
        code = small_code(adder_mac3(), BERN_234, 64, 3, 81, mode="multi")
        bt = run_trials(code, 8192, make_rng(82))
        tracemalloc.start()
        try:
            transcript_features(code, bt, window=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def one_hot_pair_tv(a_idx, b_idx, na, nb, n_boot, rng):
    """Reference pair TV: one-hot trial counts under per-trial Poisson(1) weights."""
    trials = a_idx.shape[0]
    counts = np.zeros((trials, na * nb), dtype=np.int8)
    counts[np.arange(trials), a_idx * nb + b_idx] = 1

    def stat(c):
        joint = (c / c.sum()).reshape(na, nb)
        return float(np.abs(joint - np.outer(joint.sum(1), joint.sum(0))).sum())

    tv = stat(counts.sum(axis=0).astype(np.float64))
    wts = rng.poisson(1.0, size=(n_boot, trials))
    tvs = [stat(row) for row in wts @ counts.astype(np.float64)]
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return tv, lo, hi


def per_trial_poisson_tv(counts, target, n_boot, rng):
    """Reference window TV: one Poisson(1) variate per (replicate, trial)."""
    emp = counts.sum(axis=0) / counts.sum()
    wts = rng.poisson(1.0, size=(n_boot, counts.shape[0])).astype(np.float64)
    tot = wts @ counts.astype(np.float64)
    tvs = np.abs(tot / tot.sum(axis=1, keepdims=True) - target).sum(axis=1)
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return float(np.abs(emp - target).sum()), lo, hi


def concat_transcripts(a, b):
    """One transcript of the trials of a, then those of b."""
    cat = lambda x, y: np.concatenate([x, y])
    per_block = lambda x, y: {n: [cat(u, v) for u, v in zip(x[n], y[n])] for n in x}
    return BatchTranscript({n: cat(a.streams[n], b.streams[n]) for n in a.streams},
                           per_block(a.fresh_seeds, b.fresh_seeds),
                           per_block(a.recycled, b.recycled),
                           cat(a.channel_out, b.channel_out),
                           a.fresh_lens, a.rec_lens)


class TestBootstrapKernels:
    @pytest.fixture(scope="class")
    def code_bt(self):
        code = small_code(adder_mac(), [UNIF, UNIF], 8, 3, 43)
        return code, run_trials(code, 4000, make_rng(44))

    def test_count_rows_matches_add_at(self, rng):
        for trials, windows, n_cells in ((1, 1, 1), (50, 7, 9), (300, 31, 64)):
            cells = rng.integers(0, n_cells, size=(trials, windows))
            ref = np.zeros((trials, n_cells), dtype=np.int32)
            np.add.at(ref, (np.repeat(np.arange(trials), windows),
                            cells.reshape(-1)), 1)
            got = _count_rows(cells, n_cells)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_percentile_ci_is_numpys_bit_for_bit(self, rng):
        # 1,200 vectors: spread magnitudes, ties and constants; at these
        # lengths both branches of numpy's lerp occur
        for n in (1, 2, 3, 39, 40, 41, 200, 999, 1000, 1001):
            for _ in range(40):
                for x in (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8),
                          rng.integers(0, 4, n) / 7,
                          np.full(n, rng.random())):
                    want = np.percentile(x, [2.5, 97.5])
                    assert np.array(_percentile_ci(x)).tobytes() == want.tobytes()

    def test_pair_point_estimate_equals_one_hot(self, rng):
        for na, nb, trials in ((8, 9, 1000), (2, 16, 3000), (1, 4, 500)):
            a = rng.integers(0, na, trials)
            b = rng.integers(0, nb, trials)
            counts = np.bincount(a * nb + b, minlength=na * nb)
            assert _pair_tv(counts, na, nb, 10, make_rng(0))[0] == \
                one_hot_pair_tv(a, b, na, nb, 10, make_rng(0))[0]

    @pytest.mark.parametrize("na,nb,n_boot", [
        (4, 4, 1000),      # one slice
        (16, 16, 1024),    # four whole slices of 256 replicates
        (9, 9, 1000),      # 809 replicates, then a short slice of 191
        (200, 200, 30),    # one replicate per slice
    ])
    def test_sliced_pair_tv_equals_one_draw(self, na, nb, n_boot):
        # the one-shot expression: all replicates drawn and reduced at once
        counts = make_rng(na).poisson(4, size=na * nb)
        counts[::7] = 0
        ref_rng = make_rng(59)
        reps = counts + np.sqrt(counts) * ref_rng.standard_normal(
            (n_boot, counts.size))
        joint = (reps / reps.sum(axis=-1, keepdims=True)).reshape(n_boot, na, nb)
        prod = joint.sum(-1)[..., :, None] * joint.sum(-2)[..., None, :]
        tvs = np.abs(joint - prod).sum(axis=(-2, -1))
        rng = make_rng(59)
        got = _pair_tv(counts, na, nb, n_boot, rng)
        assert np.array(got[1:]).tobytes() == \
            np.array(_percentile_ci(tvs)).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_pair_tv_holds_one_slice_of_replicates(self):
        # 125 x 125 cells, the 5-symbol output pair table at --window 3: one
        # (1000, cells) float64 draw is 125 MB, and its temporaries peaked
        # at 596 MiB
        counts = make_rng(89).poisson(3, size=125 * 125)
        _pair_tv(counts, 125, 125, 10, make_rng(90))
        tracemalloc.start()
        try:
            _pair_tv(counts, 125, 125, 1000, make_rng(90))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_ci_endpoints_match_per_trial_bootstrap(self, code_bt):
        # same replicate mean and covariance as per-trial Poisson(1) weights:
        # endpoints agree up to replicate noise
        code, bt = code_bt
        feats = transcript_features(code, bt)
        rows = {m.name: m for m in assemble_mc_metrics(code, feats, make_rng(45))}
        w2 = rows["windowed_tv_w2"]
        cells = _window_cells(bt.channel_out, 3, 2)
        z_first, z_last = cells[:, :, 0].T, cells[:, :, -1].T
        rec_e, ec = _recycled_cells(bt, code, 3)
        qz = np.array([0.25, 0.5, 0.25])
        target = np.outer(qz, qz).reshape(-1)
        cases = [((w2.value, w2.ci_lo, w2.ci_hi),
                  per_trial_poisson_tv(_count_rows(cells.reshape(len(cells), -1), 9),
                                       target, 1000, make_rng(46)))]
        for counts, a, b, na in ((feats["rec_pairs"][0], rec_e[0], z_last[0], ec),
                                 (feats["out_pairs"][0], z_last[0], z_first[1], 9)):
            cases.append((_pair_tv(counts, na, 9, 1000, make_rng(47)),
                          one_hot_pair_tv(a, b, na, 9, 1000, make_rng(48))))
        for new, ref in cases:
            assert new[0] == pytest.approx(ref[0], rel=1e-12)
            width = ref[2] - ref[1]
            assert abs(new[1] - ref[1]) <= 0.15 * width
            assert abs(new[2] - ref[2]) <= 0.15 * width

    def test_tables_add_over_transcripts(self, code_bt):
        code, bt = code_bt
        other = run_trials(code, 1000, make_rng(52))
        parts = [transcript_features(code, t) for t in (bt, other)]
        whole = transcript_features(code, concat_transcripts(bt, other))
        assert set(whole) == set(parts[0]) == {"trials", "win1", "win2", "mom",
                                               "rec_pairs", "out_pairs"}
        assert whole["trials"] == parts[0]["trials"] + parts[1]["trials"] == 5000
        for key in ("win1", "win2", "mom", "rec_pairs", "out_pairs"):
            np.testing.assert_array_equal(parts[0][key] + parts[1][key], whole[key])
        assert whole["mom"].shape == (3 + 9, 3 + 9)
        assert whole["mom"].dtype == np.int64

    def test_window_replicates_have_pooled_moments(self, code_bt):
        code, bt = code_bt
        feats = transcript_features(code, bt)
        win, mom = np.concatenate([feats["win1"], feats["win2"]]), feats["mom"]
        n_boot = 4000
        reps = _replicates(win, n_boot, make_rng(49), mom)
        assert reps.shape == (n_boot, 12)
        se = np.sqrt(np.diag(mom) / n_boot)
        assert np.all(np.abs(reps.mean(axis=0) - win) <= 5 * se)
        # a normal sample covariance's entry (i, j) has standard deviation
        # sqrt((m_ij^2 + m_ii m_jj) / (n_boot - 1)); allow 5 of them
        sd = np.sqrt((mom.astype(np.float64) ** 2 + np.outer(np.diag(mom), np.diag(mom)))
                     / (n_boot - 1))
        assert np.all(np.abs(np.cov(reps, rowvar=False) - mom) <= 5 * sd)

    def test_zero_cells_stay_zero(self, rng):
        per_trial = rng.integers(0, 4, size=(500, 6))
        per_trial[:, [1, 4]] = 0
        counts = per_trial.sum(axis=0)
        for reps in (_replicates(counts, 300, make_rng(56), per_trial.T @ per_trial),
                     _replicates(counts, 300, make_rng(57))):
            assert np.all(reps[:, [1, 4]] == 0)
            assert np.all(reps[:, [0, 2, 3, 5]] != 0)

    def test_pair_cells_have_mean_and_variance_n(self):
        counts = np.array([0, 1, 7, 40, 300, 5000])
        n_boot = 20_000
        reps = _replicates(counts, n_boot, make_rng(58))
        assert reps.shape == (n_boot, 6)
        assert np.all(np.abs(reps.mean(axis=0) - counts)
                      <= 5 * np.sqrt(counts / n_boot))
        # a normal sample variance has standard deviation n_c sqrt(2 / (n_boot - 1))
        assert np.all(np.abs(reps.var(axis=0, ddof=1) - counts)
                      <= 5 * counts * np.sqrt(2 / (n_boot - 1)))

    def test_same_rng_same_rows(self, code_bt):
        code, bt = code_bt
        feats = transcript_features(code, bt)
        win = np.concatenate([feats["win1"], feats["win2"]])
        for mom in (feats["mom"], None):
            np.testing.assert_array_equal(_replicates(win, 3, make_rng(50), mom),
                                          _replicates(win, 3, make_rng(50), mom))
        rows = [[m.to_list() for m in assemble_mc_metrics(
            code, feats, make_rng(51), n_boot=200)] for _ in range(2)]
        assert rows[0] == rows[1]


class TestBoundCurves:
    def test_delta0_formulas(self):
        assert Analysis((2, 2, 2), 7 ** 0.5).delta0(64, 0.1) == pytest.approx(
            2 / 64 + 7 ** 0.5 * 2 ** -3.2)
        assert Analysis((2, 2, 2), 2 ** 1.5).delta0(64, 0.1) == pytest.approx(
            2 / 64 + 2 ** 1.5 * 2 ** -3.2)

    @pytest.mark.parametrize("ch,inputs,mode,n_users,const", [
        (adder_mac(), [UNIF, UNIF], "case1", 3, 7 ** 0.5),
        (parallel_mac(), [UNIF, UNIF], "case2", 3, 7 ** 0.5),
        (adder_mac(), [UNIF, UNIF], "multi", 2, 2.0),
        (adder_mac3(), [UNIF] * 3, "multi", 3, 2 ** 1.5),
        (IDENTITY1, [Dist.bernoulli(0.21)], "multi", 1, 2 ** 0.5),
    ])
    def test_exact_report_reads_the_modes_analysis(self, ch, inputs, mode,
                                                   n_users, const):
        code = build_mac_code(ch, inputs, mode=mode, block_len=2, k=2,
                              xi=0.1, rng=make_rng(3))
        assert len(code.analysis.sizes) == n_users
        rows = {m.name: m.value for m in exact_report(code)}
        d, d0, ell = rows["codec_tv_worst_stream"], rows["bound_delta0"], n_users
        assert d0 == pytest.approx(2 / 2 + const * 2 ** (-2 * 0.1 / 2),
                                   rel=1e-15)

        def block(i):   # L(d + d0)(L^i - 1)/(L - 1) + L^(i+1) d
            return ell * (d + d0) * sum(ell ** j for j in range(i)) + \
                ell ** (i + 1) * d
        assert rows["bound_delta_block_k"] == pytest.approx(block(2), rel=1e-12)
        # (k-1)(2^(k-1) - 1)(4 delta_(k-1) + 2 d0) + k delta_k at k = 2
        assert rows["bound_joint_tv"] == pytest.approx(
            4 * block(1) + 2 * d0 + 2 * block(2), rel=1e-12)

    def test_one_user_report_keeps_its_bounds(self):
        # L = 1 takes the (L^i - 1)/(L - 1) -> i branch of the block bound
        code = build_mac_code(IDENTITY1, [Dist.bernoulli(0.21)], mode="multi",
                              block_len=2, k=2, xi=0.1, rng=make_rng(3))
        rows = {m.name: m.value for m in exact_report(code)}
        assert rows["bound_delta0"] == 2.319507910772894
        assert rows["bound_joint_tv"] == 33.669879107728946

    def test_block_bound_satisfies_induction_step(self):
        # the closed form obeys delta_{i+1} = 3 (d + d0 + delta_i)
        d, d0 = 0.01, 0.05
        three = Analysis((2, 2, 2), 7 ** 0.5)
        for i in range(1, 6):
            assert three.delta_block(i + 1, d, d0) == pytest.approx(
                3 * (d + d0 + three.delta_block(i, d, d0)), rel=1e-12)
        for ell in (1, 2, 3):
            an = Analysis((2,) * ell, 2.0 ** (ell / 2.0))
            for i in range(1, 6):
                assert an.delta_block(i + 1, d, d0) == pytest.approx(
                    ell * (d + d0 + an.delta_block(i, d, d0)), rel=1e-12)

    def test_recycle_bounds_compose(self):
        d, d0 = 0.01, 0.05
        an = Analysis((2, 2, 2), 7 ** 0.5)
        assert an.delta_recycle(3, d, d0) == pytest.approx(
            4 * an.delta_block(2, d, d0) + 2 * d0)
        assert an.delta_joint_recycle(3, d, d0) == pytest.approx(
            (2 ** 2 - 1) * an.delta_recycle(3, d, d0))
        assert an.joint_tv_bound(3, d, d0) == pytest.approx(
            2 * an.delta_joint_recycle(3, d, d0) + 3 * an.delta_block(3, d, d0))


class TestLhlBoundCheck:
    def _joint(self, rng, bits, z_size):
        shape = tuple(1 << b for b in bits) + (z_size,)
        pmf = rng.random(shape) ** 2 + 1e-4
        return JointDist(tuple(Alphabet(s) for s in shape), pmf / pmf.sum())

    def test_zero_rates_pass_trivially(self, rng):
        j = self._joint(rng, [3, 2], 3)
        tv, bound, ok = lhl_bound_check(j, [0, 0], make_rng(43), n_hashes=5)
        assert tv == pytest.approx(0.0, abs=1e-12)
        assert ok

    def test_full_rate_uniform_vacuous_bound(self):
        n = 4
        pmf = np.full((1 << n, 2), 1.0 / (2 << n))
        j = JointDist((Alphabet(1 << n), Alphabet(2)), pmf)
        tv, bound, ok = lhl_bound_check(j, [n], make_rng(44), n_hashes=10)
        assert bound >= 1.0
        assert ok

    def test_correlated_pass(self, rng):
        j = self._joint(rng, [6], 2)
        tv, bound, ok = lhl_bound_check(j, [2], make_rng(45), n_hashes=100)
        assert ok
