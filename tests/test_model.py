"""Instance model: decoding order, conversions, rates, utilities, generation."""

import math
import warnings

import numpy as np
import pytest

from conftest import rel_err, single_carrier_instance, small_instance, random_feasible_p
from nomajspa.model import (
    GRID_CELLS,
    Instance,
    SystemConfig,
    _sample_cell_positions,
    argmax_f,
    build_decoding_order,
    carrier_view,
    carrier_views,
    check_eps_cells,
    check_grid_cells,
    f_blocks,
    f_eval,
    generate_instance,
    p_from_x,
    path_loss_db,
    rate,
    read_kv_file,
    wsr_from_rates,
    wsr_from_x,
    x_from_p,
)


class TestDecodingOrder:
    def test_sorts_by_descending_normalized_noise(self):
        inst = single_carrier_instance([3.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        order = build_decoding_order(inst)
        assert order.pi[0].tolist() == [0, 2, 1]

    def test_ties_break_by_user_index(self):
        inst = single_carrier_instance([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        order = build_decoding_order(inst)
        assert order.pi[0].tolist() == [0, 1, 2]

    def test_single_user(self):
        inst = single_carrier_instance([1.0], [1.0])
        assert build_decoding_order(inst).pi[0].tolist() == [0]

    def test_inverse_composes_to_identity(self):
        inst = small_instance(3, users=6, carriers=4, max_mux=2)
        order = build_decoding_order(inst)
        for n in range(inst.n_carriers):
            assert np.array_equal(order.pi[n][order.inv[n]], np.arange(6))
            noises = inst.eta_tilde[order.pi[n], n]
            assert np.all(np.diff(noises) <= 0)


class TestPowerConversions:
    def test_zero_powers(self):
        inst = small_instance(0, users=3, carriers=2, max_mux=2)
        order = build_decoding_order(inst)
        x = x_from_p(np.zeros((3, 2)), order)
        assert np.array_equal(x, np.zeros((3, 2)))

    def test_two_user_cumulative_sum(self):
        inst = single_carrier_instance([2.0, 1.0], [1.0, 1.0])
        order = build_decoding_order(inst)
        x = x_from_p(np.array([[0.3], [0.7]]), order)
        assert np.allclose(x[:, 0], [1.0, 0.7], rtol=0, atol=1e-15)
        assert x[1, 0] == 0.7

    def test_round_trip_exact_on_grid_values(self):
        # sums of dyadic-grid powers are exact in binary floating point,
        # so the round trip must be bitwise
        rng = np.random.default_rng(42)
        inst = small_instance(1, users=3, carriers=2, max_mux=3)
        order = build_decoding_order(inst)
        for _ in range(1000):
            p = rng.integers(0, 2 ** 20, (3, 2)) * 2.0 ** -20
            assert np.array_equal(p_from_x(x_from_p(p, order), order), p)

    def test_round_trip_continuous_within_rounding(self):
        rng = np.random.default_rng(7)
        inst = small_instance(2, users=3, carriers=2, max_mux=3)
        order = build_decoding_order(inst)
        for _ in range(1000):
            p = rng.random((3, 2))
            back = p_from_x(x_from_p(p, order), order)
            assert np.allclose(back, p, rtol=0, atol=8 * np.finfo(float).eps * p.sum())

    def test_rejects_non_monotone_x(self):
        inst = small_instance(0, users=3, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        bad = np.array([[1.0], [2.0], [0.5]])
        with pytest.raises(ValueError, match="on subcarrier 0 are"):
            p_from_x(bad, order)
        # the error names the first bad subcarrier of several
        inst = small_instance(0, users=3, carriers=4, max_mux=2)
        bad = np.array([[1.0, 1.0, 0.5, 2.0], [0.5, 1.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="on subcarrier 2 are"):
            p_from_x(bad, build_decoding_order(inst))


class TestRate:
    def test_single_user_at_noise_power_gets_full_bandwidth(self):
        inst = single_carrier_instance([0.5], [1.0], w_hz=2.5e5)
        order = build_decoding_order(inst)
        p = np.array([[0.5]])
        assert rate(inst, order, p, 0, 0) == pytest.approx(2.5e5)

    def test_zero_power_zero_rate(self):
        inst = small_instance(5, users=4, carriers=2, max_mux=2)
        order = build_decoding_order(inst)
        p = np.zeros((4, 2))
        p[1, 0] = 2.0
        assert rate(inst, order, p, 0, 0) == 0.0

    def test_matches_hand_computed_sinr(self):
        # two active users; the earlier-decoded one sees the later one as noise
        inst = single_carrier_instance([2.0, 0.5], [1.0, 1.0], w_hz=1e6)
        order = build_decoding_order(inst)
        p = np.array([[3.0], [1.0]])
        expected_first = 1e6 * math.log2(1.0 + 3.0 / (1.0 + 2.0))
        expected_second = 1e6 * math.log2(1.0 + 1.0 / 0.5)
        assert rate(inst, order, p, 0, 0) == pytest.approx(expected_first, rel=1e-12)
        assert rate(inst, order, p, 1, 0) == pytest.approx(expected_second, rel=1e-12)


class TestWsrEquivalence:
    def test_zero_allocation_is_zero_on_both_paths(self):
        inst = small_instance(9, users=4, carriers=3, max_mux=2)
        order = build_decoding_order(inst)
        scale = float(np.sum(np.abs(carrier_views(inst, order)[3])))
        assert wsr_from_rates(inst, order, np.zeros((4, 3))) == 0.0
        assert abs(wsr_from_x(inst, order, np.zeros((4, 3)))) < 1e-9 * scale

    def test_single_user_full_power_closed_form(self):
        inst = single_carrier_instance([0.25], [0.7], w_hz=1e6, p_max=10.0)
        order = build_decoding_order(inst)
        p = np.array([[10.0]])
        expected = 0.7 * 1e6 * math.log2(1.0 + 10.0 / 0.25)
        assert wsr_from_rates(inst, order, p) == pytest.approx(expected, rel=1e-12)
        assert wsr_from_x(inst, order, x_from_p(p, order)) == pytest.approx(expected, rel=1e-12)

    def test_paths_agree_on_random_allocations(self):
        rng = np.random.default_rng(17)
        for trial in range(200):
            users = int(rng.integers(2, 7))
            carriers = int(rng.integers(1, 5))
            inst = small_instance(trial, users=users, carriers=carriers,
                                  max_mux=int(rng.integers(1, users + 1)))
            order = build_decoding_order(inst)
            p = random_feasible_p(inst, rng, respect_mux=False)
            a = wsr_from_rates(inst, order, p)
            b = wsr_from_x(inst, order, x_from_p(p, order))
            assert rel_err(a, b) <= 1e-9


class TestBlockUtilities:
    def test_first_block_closed_form(self):
        inst = small_instance(21, users=4, carriers=2, max_mux=2)
        order = build_decoding_order(inst)
        w_n = inst.bandwidths[1]
        for i in range(4):
            user = order.pi[1][i]
            for x in (0.0, 0.3, 5.0):
                expected = w_n * inst.weights[user] * math.log2(x + inst.eta_tilde[user, 1])
                assert f_eval(inst, order, 1, 0, i, x) == pytest.approx(expected, rel=1e-12)

    def test_zero_power_full_block_cancels_offset(self):
        inst = small_instance(22, users=5, carriers=2, max_mux=2)
        order = build_decoding_order(inst)
        for n in range(2):
            got = f_eval(inst, order, n, 0, 4, 0.0)
            assert got == pytest.approx(-carrier_view(inst, order, n)[3], rel=1e-12)

    def test_offset_takes_math_log2(self):
        # np.log2 (numpy 2.4, x86-64) is one ulp off math.log2 at this noise,
        # and the campaign bytes follow math.log2
        inst = single_carrier_instance([5.0, 3.219977838724637], [0.5, 1.0])
        offset = carrier_view(inst, build_decoding_order(inst), 0)[3]
        assert offset == -math.log2(3.219977838724637)

    def test_block_equals_sum_of_singletons_at_common_point(self):
        rng = np.random.default_rng(4)
        inst = small_instance(23, users=6, carriers=1, max_mux=3)
        order = build_decoding_order(inst)
        for _ in range(50):
            j = int(rng.integers(0, 6))
            i = int(rng.integers(j, 6))
            x = float(rng.random() * inst.p_max)
            direct = f_eval(inst, order, 0, j, i, x)
            summed = sum(f_eval(inst, order, 0, l, l, x) for l in range(j, i + 1))
            assert rel_err(direct, summed) <= 1e-9


def block_values(inst, order, j, i, grid):
    """f_eval(inst, order, 0, j, i, x) at every x of grid, in one f_blocks read."""
    x = np.repeat(np.asarray(grid, dtype=float)[:, None], i + 1, axis=1)
    return f_blocks(*carrier_view(inst, order, 0)[:3], i, x)[:, j]


class TestArgmaxF:
    def test_first_block_returns_budget(self):
        inst = small_instance(31, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        for i in range(4):
            assert argmax_f(inst, order, 0, 0, i, 3.7) == 3.7

    def test_interior_stationary_point(self):
        # positions: eta (4, 1), weights (2, 1); block [1,1] has predecessor
        # weight 2 > 1, stationary point (2*1 - 1*4) / (1 - 2) = 2
        inst = single_carrier_instance([4.0, 1.0], [2.0, 1.0], p_max=10.0)
        order = build_decoding_order(inst)
        got = argmax_f(inst, order, 0, 1, 1, 10.0)
        assert got == pytest.approx(2.0, abs=1e-12)
        # grid oracle: the same block utility maximized by scanning [0, 10]
        grid = np.arange(0.0, 10.0 + 1e-12, 1e-4)
        vals = block_values(inst, order, 1, 1, grid)
        assert abs(grid[np.argmax(vals)] - got) <= 1e-4

    def test_clamped_to_budget(self):
        inst = single_carrier_instance([4.0, 1.0], [2.0, 1.0], p_max=10.0)
        order = build_decoding_order(inst)
        assert argmax_f(inst, order, 0, 1, 1, 1.0) == 1.0
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        vals = block_values(inst, order, 1, 1, grid)
        assert grid[np.argmax(vals)] == pytest.approx(1.0, abs=1e-4)

    def test_block_values_are_f_eval_on_a_grid(self):
        inst = single_carrier_instance([4.0, 1.0], [2.0, 1.0], p_max=10.0)
        order = build_decoding_order(inst)
        grid = np.linspace(0.0, 10.0, 11)
        expect = [f_eval(inst, order, 0, 1, 1, x) for x in grid]
        assert np.array_equal(block_values(inst, order, 1, 1, grid), expect)

    def test_unimodality_certificate(self):
        rng = np.random.default_rng(12)
        inst = small_instance(32, users=5, carriers=2, max_mux=3)
        order = build_decoding_order(inst)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2))
            j = int(rng.integers(1, 5))
            i = int(rng.integers(j, 5))
            w_n, wp, ep = inst.bandwidths[n], inst.weights[order.pi[n]], inst.eta_tilde[order.pi[n], n]
            p_bar = float(rng.uniform(0.5, inst.p_max))
            grid = np.linspace(0.0, p_bar, int(p_bar / 1e-4) + 2)
            vals = w_n * wp[i] * np.log2(grid + ep[i]) - w_n * wp[j - 1] * np.log2(grid + ep[j - 1])
            best = argmax_f(inst, order, n, j, i, p_bar)
            fbest = f_eval(inst, order, n, j, i, best)
            if wp[i] < wp[j - 1]:
                checked += 1
                assert fbest >= vals.max() - 1e-9 * max(1.0, abs(fbest))
            else:
                # increasing case: values are non-decreasing along the grid
                assert np.all(np.diff(vals) >= -1e-9 * max(1.0, np.abs(vals).max()))
                assert best == p_bar


class TestGeneration:
    def test_default_config_matches_expected_sizes(self):
        inst = generate_instance(SystemConfig(), 0)
        assert inst.n_carriers == 20
        assert np.allclose(inst.bandwidths, 5e6 / 20)
        assert inst.bandwidths.sum() == pytest.approx(5e6)
        assert inst.p_max == 10.0
        assert inst.delta == 0.01
        assert inst.n_power_levels == 1000
        assert inst.max_mux == 3

    def test_deterministic_given_seed(self):
        a = generate_instance(SystemConfig(users=6), 123)
        b = generate_instance(SystemConfig(users=6), 123)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.noise, b.noise)
        c = generate_instance(SystemConfig(users=6), 124)
        assert not np.array_equal(a.gains, c.gains)

    def test_path_loss_reference_distance(self):
        assert path_loss_db(1000.0) == pytest.approx(128.1, abs=1e-12)

    def test_positions_respect_cell_geometry(self):
        rng = np.random.default_rng(0)
        pts = _sample_cell_positions(rng, 500, 1000.0, 35.0)
        d = np.hypot(pts[:, 0], pts[:, 1])
        assert d.min() >= 35.0
        assert np.all(np.abs(pts[:, 1]) <= math.sqrt(3) / 2 * 1000.0 + 1e-9)
        assert np.all(math.sqrt(3) * np.abs(pts[:, 0]) + np.abs(pts[:, 1])
                      <= math.sqrt(3) * 1000.0 + 1e-9)

    def test_weights_clamped_positive(self):
        for seed in range(30):
            inst = generate_instance(SystemConfig(users=40, subcarriers=2), seed)
            assert inst.weights.min() >= 1e-6
            assert inst.weights.max() <= 1.0

    def test_decoding_order_invariant_after_generation(self):
        inst = generate_instance(SystemConfig(users=8, subcarriers=5), 77)
        order = build_decoding_order(inst)
        for n in range(5):
            noises = inst.eta_tilde[order.pi[n], n]
            assert np.all(np.diff(noises) <= 0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(users=0)
        with pytest.raises(ValueError):
            SystemConfig(delta_w=0.0)
        with pytest.raises(ValueError):
            SystemConfig(users=2, max_mux=3)
        with pytest.raises(ValueError):
            SystemConfig(min_distance_m=2000.0)

    def test_min_distance_stays_inside_the_inner_radius(self):
        # past sqrt(3)/2 * cell_radius_m only the hexagon's corners are left: at
        # 999 m of 1000 the rejection sampler took seconds to place 5 users
        for radius, distance in ((1000.0, 999.0), (1000.0, 1000.0 * math.sqrt(3.0) / 2.0),
                                 (100.0, 87.0)):
            with pytest.raises(ValueError, match=r"^min_distance_m must be in"):
                SystemConfig(users=5, cell_radius_m=radius, min_distance_m=distance)
        inst = generate_instance(SystemConfig(users=40, min_distance_m=860.0), 3)
        assert inst.gains.shape == (40, 20) and np.all(inst.gains > 0)

    def test_min_weight_range(self):
        # weights are uniform on [0, 1] clamped up to min_weight; 1 is the sum-rate case
        assert np.all(generate_instance(SystemConfig(users=4, min_weight=1.0), 0).weights == 1.0)
        for bad in (0.0, -1.0, 1.0000001, 2.0, 1e308):
            with pytest.raises(ValueError, match=r"^min_weight must be in \(0, 1\]"):
                SystemConfig(min_weight=bad)

    def test_overflowing_rates_name_bandwidth_and_seed(self):
        # W_n = 1e308 / 3 keeps every slope finite, but not the rates' log terms
        cfg = SystemConfig(users=3, subcarriers=3, max_mux=1, bandwidth_hz=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^seed 4: the weighted rates overflow .*"
                                                 r"bandwidth_hz = 1e\+308\)$"):
                generate_instance(cfg, 4)

    def test_uncountable_grid_rejected(self):
        # J + 1 must fit an int64: p_max_w / delta_w = 2^62 does, 2^63 and 1e301 do not
        assert SystemConfig(p_max_w=1.0, delta_w=2.0 ** -62).delta_w == 2.0 ** -62
        for delta in (2.0 ** -63, 1e-300):
            with pytest.raises(ValueError, match=rf"^delta_w = {delta!r} "):
                SystemConfig(p_max_w=1.0, delta_w=delta)

    def test_grid_cells_rule(self):
        # N * (J + 1) <= 2^25: two rows of 2^24 levels fit, one level more does not
        assert GRID_CELLS == 2 ** 25
        check_grid_cells(2, 2.0 ** 24 - 1, 1.0, "delta")
        with pytest.raises(ValueError, match=r"^step = 1.0 gives opt a 2 x 16777217 table"):
            check_grid_cells(2, 2.0 ** 24, 1.0, "step")

    def test_eps_cells_rule(self):
        # N * (floor(4N/eps) + 1) <= 2^25: one row of 2^25 - 1 targets fits, 2^25 do not
        check_eps_cells(1, 4.0 / (2 ** 25 - 1), "eps")
        with pytest.raises(ValueError, match=r"^eps = 1.1920928955078125e-07 gives eps a 1 x "
                                             r"33554433 table"):
            check_eps_cells(1, 2.0 ** -23, "eps")
        check_eps_cells(20, 0.1, "eps")
        # 4N/eps overflows to inf: refused, not converted to an int
        with pytest.raises(ValueError, match=r"^epsilons = 5e-324 gives eps a 20 x inf table"):
            check_eps_cells(20, 5e-324, "epsilons")

    def test_out_of_range_gain_names_shadowing_and_seed(self):
        # 10 000 dB of shadowing puts 10^(-loss/10) past the float range
        cfg = SystemConfig(users=3, subcarriers=2, shadowing_std_db=10000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^seed 4: .*shadowing_std_db = 10000\.0"):
                generate_instance(cfg, 4)

    @pytest.mark.parametrize("psd", [3200.0, -3300.0])
    def test_out_of_range_noise_psd_names_it_and_seed(self, psd):
        # 10^(3200/10) overflows a Python float and 10^(-3300/10) underflows to 0
        cfg = SystemConfig(users=3, subcarriers=2, noise_psd_dbm_hz=psd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^seed 4: .*noise_psd_dbm_hz = {psd!r}"):
                generate_instance(cfg, 4)

    def test_noise_floor_psd(self):
        inst = generate_instance(SystemConfig(), 1)
        expected = 10 ** ((-174.0 - 30.0) / 10.0) * 2.5e5
        assert np.allclose(inst.noise, expected)


class TestInstanceValidation:
    def test_rejects_bad_shapes_and_signs(self):
        ok = dict(weights=[1.0, 1.0], bandwidths=[1.0], gains=np.ones((2, 1)),
                  noise=np.ones((2, 1)), p_max=1.0, p_max_carrier=[1.0],
                  delta=0.1, max_mux=1)
        Instance(**ok)
        for key, bad in [("weights", [1.0, -1.0]), ("gains", np.zeros((2, 1))),
                         ("p_max", 0.0), ("p_max", math.inf), ("p_max", math.nan),
                         ("delta", 2.0), ("max_mux", 5), ("p_max_carrier", [math.nan]),
                         ("weights", [math.inf, 1.0]), ("gains", [[math.inf], [1.0]]),
                         ("noise", [[1.0], [math.inf]]), ("bandwidths", [math.inf])]:
            kwargs = ok | {key: bad}
            with pytest.raises(ValueError):
                Instance(**kwargs)
        for key, bad, message in [("gains", np.ones((1, 1)), "^inconsistent array shapes"),
                                  ("p_max_carrier", [1.0, 1.0], "one entry per subcarrier"),
                                  ("p_max_carrier", [2.0], r"caps must lie in \(0, p_max\]")]:
            with pytest.raises(ValueError, match=message):
                Instance(**(ok | {key: bad}))

    def test_rejects_normalized_noise_out_of_range(self):
        # 1 / 5e-324 overflows to inf and 5e-324 / 1e10 underflows to 0
        ok = dict(weights=[1.0, 1.0], bandwidths=[1.0], p_max=1.0, p_max_carrier=[1.0],
                  delta=0.1, max_mux=1)
        for gain, noise in ((5e-324, 1.0), (1e10, 5e-324)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="noise / gains must be positive and finite"):
                    Instance(gains=[[1.0], [gain]], noise=[[1.0], [noise]], **ok)

    def test_rejects_overflowing_weighted_rates(self):
        # each used to pass: grad then never returned, opt raised an IndexError and
        # eps blamed its estimate
        ok = dict(weights=[1.0, 1.0], bandwidths=[1.0], gains=np.ones((2, 1)),
                  noise=np.ones((2, 1)), p_max=1.0, p_max_carrier=[1.0], delta=0.1, max_mux=1)
        Instance(**ok)
        for bad in [dict(weights=[1e308, 1.0], noise=[[4.0], [1.0]]),  # slopes finite, logs not
                    dict(bandwidths=[1e308]),
                    dict(bandwidths=[1e10], noise=[[1.0], [1e-300]])]:  # logs finite, a slope not
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^the weighted rates overflow a float"):
                    Instance(**(ok | bad))

    def test_rejects_uncountable_grid(self):
        ok = dict(weights=[1.0, 1.0], bandwidths=[1.0], gains=np.ones((2, 1)),
                  noise=np.ones((2, 1)), p_max=1.0, p_max_carrier=[1.0], max_mux=1)
        assert Instance(delta=2.0 ** -62, **ok).n_power_levels == 2 ** 62
        with pytest.raises(ValueError, match=r"^delta = 1e-300 "):
            Instance(delta=1e-300, **ok)

    def test_arrays_read_only(self):
        inst = small_instance(0, users=3, carriers=2, max_mux=2)
        with pytest.raises(ValueError):
            inst.gains[0, 0] = 1.0


def test_read_kv_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# campaign\nusers = 12\nout= results.csv\n\nxi =1e-5 # tight\n")
    raw = read_kv_file(path)
    assert raw == {"users": "12", "out": "results.csv", "xi": "1e-5"}
    (tmp_path / "bad.cfg").write_text("nonsense line\n")
    with pytest.raises(ValueError):
        read_kv_file(tmp_path / "bad.cfg")
