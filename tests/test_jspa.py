"""Joint allocators: projection, gradient ascent, knapsack DP, estimation, FPTAS."""

import math

import numpy as np
import pytest

from conftest import rel_err, small_instance
from nomajspa.model import (
    Instance,
    LN2,
    SystemConfig,
    build_decoding_order,
    generate_instance,
    wsr_from_x,
)
from nomajspa.single_carrier import (fn_left_derivative, fn_value, fn_value_many,
                                     iscus_precompute)
from nomajspa.jspa import (
    BRUTE_FORCE_LIMIT,
    BudgetObjective,
    brute_force_jspa,
    budget_feasible,
    build_knapsack,
    class_unit_caps,
    eps_jspa,
    estimate_upper_bound,
    grad_jspa,
    opt_jspa,
    project_simplex,
    select_items,
)
from nomajspa import jspa
from nomajspa.ops import count_ops


def make_tables(inst, max_active=None):
    order = build_decoding_order(inst)
    m = max_active if max_active is not None else inst.max_mux
    return order, [iscus_precompute(inst, order, n, m) for n in range(inst.n_carriers)]


def identical_carrier_instance(carriers=2, eta=0.3, weight=0.8, p_max=10.0, delta=0.5):
    return Instance(weights=[weight], bandwidths=np.full(carriers, 1e6),
                    gains=np.ones((1, carriers)), noise=np.full((1, carriers), eta),
                    p_max=p_max, p_max_carrier=np.full(carriers, p_max),
                    delta=delta, max_mux=1)


def bisection_projection(v, p_max, caps):
    """The 100-step bisection projection, kept as the oracle for its replacement.

    Returns the projection and the final multiplier bracket (lo, hi); the
    projection uses hi.
    """
    v = np.asarray(v, dtype=float)
    lo, hi = 0.0, float(v.max())
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float(np.clip(v - mid, 0.0, caps).sum()) > p_max:
            lo = mid
        else:
            hi = mid
    return np.clip(v - hi, 0.0, caps), lo, hi


def active_projection_cases(seed=23, draws=900):
    """Seeded projections whose budget binds, as (mode, v, p_max, caps, oracle).

    mode says how p_max was drawn and oracle is the bisection's output. Sizes N = 1 to 40, magnitudes 1e-3 to 10, v partly negative, some tied
    entries, caps that bind, some equal caps. p_max is tiny, just under the
    clipped sum, or in between. Only multipliers lam >= max(v) * 2**-40 are
    kept: below that the bisection's 100 halvings stop short of adjacent
    floats.
    """
    rng = np.random.default_rng(seed)
    modes = ("tiny", "just_under", "between")
    for i in range(draws):
        size = 1 if i % 8 == 0 else int(rng.integers(2, 41))
        scale = 10.0 ** rng.uniform(-3.0, 1.0)
        v = rng.normal(0.3, 1.0, size) * scale
        if i % 4 == 1:
            v = rng.choice(v[:max(1, size // 3)], size)
        caps = rng.uniform(0.05, 1.5, size) * scale
        if i % 5 == 2:
            caps[:] = caps[0]
        full = float(np.clip(v, 0.0, caps).sum())
        mode = modes[i % 3]
        if mode == "tiny":
            p_max = full * 1e-3
        elif mode == "just_under":
            p_max = full * (1.0 - 10.0 ** -rng.uniform(3.0, 11.0))
        else:
            p_max = full * rng.uniform(0.05, 0.95)
        if full <= p_max:
            continue
        oracle = bisection_projection(v, p_max, caps)
        if oracle[2] >= float(v.max()) * 2.0 ** -40:
            yield mode, v, p_max, caps, oracle


class TestProjectSimplex:
    def test_bit_identical_to_bisection(self):
        seen = {}
        for mode, v, p_max, caps, (expected, lo, hi) in active_projection_cases():
            assert np.nextafter(hi, 0.0) == lo  # the oracle reached adjacent floats
            assert np.array_equal(project_simplex(v, p_max, caps), expected)
            lam = jspa._budget_multiplier(v, p_max, caps)
            assert float(np.clip(v - lam, 0.0, caps).sum()) <= p_max
            assert float(np.clip(v - np.nextafter(lam, 0.0), 0.0, caps).sum()) > p_max
            seen[mode] = seen.get(mode, 0) + 1
        assert min(seen.values()) >= 150 and len(seen) == 3

    def test_work_is_logarithmic(self):
        # the bisection charged 100 iterations * 3 ops per coordinate
        ratios = []
        for _, v, p_max, caps, _ in active_projection_cases():
            with count_ops() as counter:
                project_simplex(v, p_max, caps)
            ratios.append(counter.total / (300 * v.size))
        assert np.mean(ratios) <= 0.2

    def test_feasible_point_unchanged(self):
        v = np.array([1.0, 2.0, 3.0])
        out = project_simplex(v, 10.0, np.array([5.0, 5.0, 5.0]))
        assert np.array_equal(out, v)

    def test_symmetric_overflow_splits_evenly(self):
        out = project_simplex(np.array([6.0, 6.0]), 10.0, np.array([10.0, 10.0]))
        assert np.allclose(out, [5.0, 5.0], rtol=0, atol=1e-9)

    def test_kkt_and_random_point_dominance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            size = int(rng.integers(1, 7))
            caps = rng.uniform(0.5, 3.0, size)
            p_max = float(rng.uniform(0.5, caps.sum() * 1.2))
            v = rng.normal(0.0, 2.0, size)
            x = project_simplex(v, p_max, caps)
            assert np.all(x >= -1e-12) and np.all(x <= caps + 1e-12)
            total = float(x.sum())
            assert total <= p_max + 1e-9
            base = np.clip(v, 0.0, caps)
            if float(base.sum()) > p_max:
                # budget must be tight when the multiplier is active
                assert total == pytest.approx(p_max, abs=1e-7 * max(1.0, p_max))
            for _ in range(100):
                y = rng.uniform(0.0, caps)
                if y.sum() > p_max:
                    y *= p_max / y.sum()
                assert np.sum((v - x) ** 2) <= np.sum((v - y) ** 2) + 1e-9


class TestGradJspa:
    def test_single_carrier_takes_whole_budget(self):
        inst = small_instance(1, users=3, carriers=1, max_mux=2)
        _, tables = make_tables(inst)
        sol = grad_jspa(inst, tables, 1e-4)
        assert sol.budgets[0] == inst.p_max
        assert sol.converged

    def test_identical_carriers_get_equal_budgets(self):
        inst = identical_carrier_instance(carriers=2)
        _, tables = make_tables(inst)
        sol = grad_jspa(inst, tables, 1e-4)
        assert abs(sol.budgets[0] - sol.budgets[1]) <= 1e-4
        assert budget_feasible(inst, sol.budgets)

    def test_matches_fine_grid_optimum(self):
        inst = generate_instance(
            SystemConfig(users=2, subcarriers=2, max_mux=2, delta_w=1e-3), 3)
        _, tables = make_tables(inst)
        opt = opt_jspa(inst, tables)
        sol = grad_jspa(inst, tables, 1e-4)
        assert rel_err(sol.wsr, opt.wsr) <= 1e-3
        assert budget_feasible(inst, sol.budgets)

    def test_ascent_is_monotone(self):
        inst = small_instance(4, users=5, carriers=4, max_mux=2)
        _, tables = make_tables(inst, 2)
        sol = grad_jspa(inst, tables, 1e-5)
        hist = np.asarray(sol.history)
        assert np.all(np.diff(hist) >= -1e-12 * max(1.0, hist.max()))

    def test_iteration_cap_returns_best_iterate_with_flag(self):
        inst = small_instance(5, users=4, carriers=3, max_mux=2)
        _, tables = make_tables(inst, 2)
        sol = grad_jspa(inst, tables, 1e-12, max_iterations=2)
        assert not sol.converged
        assert sol.iterations == 2
        assert budget_feasible(inst, sol.budgets)

    def test_solution_wsr_matches_recomputation(self):
        inst = small_instance(6, users=4, carriers=3, max_mux=2)
        order, tables = make_tables(inst, 2)
        sol = grad_jspa(inst, tables, 1e-4)
        assert rel_err(sol.wsr, wsr_from_x(inst, order, sol.x)) <= 1e-9

    def test_trajectory_is_pinned(self):
        # recorded with F_n valued by the pinned-block kernel
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        sol = grad_jspa(inst, tables, 1e-4)
        assert sol.wsr.hex() == "0x1.8df3bab5cdd68p+24"
        assert (sol.iterations, sol.converged) == (6, True)
        assert sol.budgets.tobytes().hex() == (
            "08497958a5d1f13f4cb45b0cc2dbf53f085da150ec40f63f5060b01faa12f53f"
            "1e16977067b8f33fb089f5370080f43f4c4d6c80c24df43f3c58e001d878f03f")

    def test_each_accepted_step_is_projected_once(self, monkeypatch):
        # a line search values 43 points (3 seeds + 40 golden steps); the step
        # it accepts is one of them, so grad projects nothing else
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        real = jspa.project_simplex
        points = []

        def recording(v, p_max, caps):
            points.append(real(v, p_max, caps))
            return points[-1]

        monkeypatch.setattr(jspa, "project_simplex", recording)
        sol = grad_jspa(inst, tables, 1e-4)
        assert len(points) == 43 * sol.iterations
        assert any(np.array_equal(sol.budgets, q) for q in points)

    def test_rejects_bad_tolerance(self):
        inst = small_instance(6, users=2, carriers=2, max_mux=1)
        _, tables = make_tables(inst, 1)
        with pytest.raises(ValueError):
            grad_jspa(inst, tables, 0.0)


class TestBuildKnapsack:
    def test_zero_item_has_zero_profit(self):
        inst = small_instance(11, users=4, carriers=3, max_mux=2)
        _, tables = make_tables(inst, 2)
        kp = build_knapsack(inst, tables)
        assert np.array_equal(kp.profits[:, 0], np.zeros(3))

    def test_profits_non_decreasing(self):
        inst = small_instance(12, users=4, carriers=3, max_mux=2)
        _, tables = make_tables(inst, 2)
        kp = build_knapsack(inst, tables)
        scale = kp.profits.max()
        assert np.all(np.diff(kp.profits, axis=1) >= -1e-9 * scale)

    def test_default_grid_has_thousand_levels(self):
        inst = generate_instance(SystemConfig(users=3), 0)
        _, tables = make_tables(inst, 2)
        kp = build_knapsack(inst, tables)
        assert kp.capacity_units == 1000
        assert kp.profits.shape == (20, 1001)

    def test_per_carrier_caps_limit_selectable_items(self):
        cfg = SystemConfig(users=3, subcarriers=2, max_mux=2, p_max_carrier_w=3.0,
                           delta_w=0.5)
        inst = generate_instance(cfg, 1)
        assert class_unit_caps(inst).tolist() == [6, 6]


class TestOptJspa:
    def test_single_carrier_takes_the_top_item(self):
        inst = small_instance(21, users=3, carriers=1, max_mux=2)
        _, tables = make_tables(inst, 2)
        sol = opt_jspa(inst, tables)
        assert sol.budgets[0] == pytest.approx(inst.n_power_levels * inst.delta)

    def test_matches_brute_force(self):
        for seed in range(15):
            inst = small_instance(seed, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            kp = build_knapsack(inst, tables)
            a = opt_jspa(inst, tables, knapsack=kp)
            b = brute_force_jspa(inst, tables, knapsack=kp)
            assert a.wsr == pytest.approx(b.wsr, rel=1e-9)
            assert budget_feasible(inst, a.budgets)

    def test_dominates_any_gridded_budget_vector(self):
        # the grid optimum must beat the gradient solution once the latter
        # is rounded down onto the grid (the raw continuous point may exceed
        # the grid optimum by the discretization gap)
        inst = small_instance(23, users=2, carriers=2, max_mux=2, levels=100)
        _, tables = make_tables(inst, 2)
        opt = opt_jspa(inst, tables)
        grad = grad_jspa(inst, tables, inst.delta / 2.0)
        gridded = np.floor(grad.budgets / inst.delta) * inst.delta
        gridded_value = sum(
            fn_value(tables[n], float(gridded[n])) for n in range(2))
        assert opt.wsr >= gridded_value - 1e-9 * abs(opt.wsr)
        assert rel_err(opt.wsr, grad.wsr) <= 1e-3

    def test_respects_per_carrier_caps(self):
        cfg = SystemConfig(users=3, subcarriers=3, max_mux=2, p_max_carrier_w=2.0,
                           delta_w=0.5)
        inst = generate_instance(cfg, 5)
        _, tables = make_tables(inst, 2)
        sol = opt_jspa(inst, tables)
        assert np.all(sol.budgets <= 2.0 + 1e-12)
        bf = brute_force_jspa(inst, tables)
        assert sol.wsr == pytest.approx(bf.wsr, rel=1e-9)


class TestBruteForce:
    def test_single_class_equals_opt(self):
        inst = small_instance(31, users=3, carriers=1, max_mux=2)
        _, tables = make_tables(inst, 2)
        assert brute_force_jspa(inst, tables).wsr == pytest.approx(
            opt_jspa(inst, tables).wsr, rel=1e-12)

    def test_identical_carriers_value_symmetric(self):
        inst = identical_carrier_instance(carriers=2, delta=1.0)
        _, tables = make_tables(inst, 1)
        sol = brute_force_jspa(inst, tables)
        flipped = sol.budgets[::-1]
        value = sum(fn_value(tables[n], float(flipped[n])) for n in range(2))
        assert value == pytest.approx(sol.wsr, rel=1e-12)

    def test_size_guard_trips(self):
        inst = generate_instance(SystemConfig(users=3), 0)  # 20 carriers, J=1000
        _, tables = make_tables(inst, 2)
        with pytest.raises(ValueError, match="brute force"):
            brute_force_jspa(inst, tables)
    # guard threshold is documented
        assert BRUTE_FORCE_LIMIT == 10 ** 7


class TestEstimation:
    def test_single_carrier_doubles_best_item(self):
        inst = small_instance(41, users=3, carriers=1, max_mux=2)
        _, tables = make_tables(inst, 2)
        top = fn_value(tables[0], inst.n_power_levels * inst.delta)
        assert estimate_upper_bound(inst, tables) == pytest.approx(2.0 * top, rel=1e-12)

    def test_sandwich_brackets_the_optimum(self):
        for seed in range(20):
            inst = small_instance(seed + 500, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            upper = estimate_upper_bound(inst, tables)
            opt = opt_jspa(inst, tables).wsr
            assert upper >= opt * (1 - 1e-9)
            assert opt >= upper / 4.0 * (1 - 1e-9)

    def test_degenerate_channel_estimates_zero(self):
        inst = Instance(weights=[1.0, 1.0], bandwidths=[1e6, 1e6],
                        gains=np.full((2, 2), 1e-30), noise=np.full((2, 2), 1e-10),
                        p_max=10.0, p_max_carrier=[10.0, 10.0], delta=0.5, max_mux=1)
        _, tables = make_tables(inst, 1)
        upper = estimate_upper_bound(inst, tables)
        assert upper < 1e-3
        assert opt_jspa(inst, tables).wsr <= upper


    def test_bracket_and_guarantee_with_fewer_levels_than_carriers(self):
        # J = 4 < N = 6: the coarse stride bottoms out at one grid step
        for seed in range(6):
            inst = small_instance(seed + 520, users=3, carriers=6, max_mux=2, levels=4)
            _, tables = make_tables(inst, 2)
            upper = estimate_upper_bound(inst, tables)
            opt = opt_jspa(inst, tables).wsr
            assert upper >= opt * (1 - 1e-9)
            assert opt >= upper / 4.0 * (1 - 1e-9)
            for eps in (0.5, 0.1):
                sol = eps_jspa(inst, tables, eps, upper=upper)
                assert budget_feasible(inst, sol.budgets)
                assert sol.wsr >= (1 - eps) * opt * (1 - 1e-12)


class TestBudgetObjective:
    """The stacked objective agrees with the per-carrier evaluators."""

    def cases(self):
        capped = SystemConfig(users=3, subcarriers=3, max_mux=2, p_max_carrier_w=2.5,
                              delta_w=0.25)
        for seed in range(3):
            yield small_instance(seed + 950, users=1, carriers=3, max_mux=1)
            yield small_instance(seed + 960, users=4, carriers=3, max_mux=4)
            yield generate_instance(capped, seed + 970)

    def budget_vectors(self, inst, rng):
        caps = inst.p_max_carrier
        N = inst.n_carriers
        yield np.zeros(N)
        yield caps.copy()
        yield np.where(np.arange(N) % 2 == 0, 0.0, caps)
        for _ in range(5):
            b = rng.uniform(0.0, caps)
            b[rng.random(N) < 0.3] = 0.0
            b[rng.random(N) < 0.3] = caps[0]
            yield np.minimum(b, caps)

    def test_matches_per_carrier_value_and_derivative(self):
        rng = np.random.default_rng(17)
        checked = 0
        for inst in self.cases():
            _, tables = make_tables(inst)
            objective = BudgetObjective(tables)
            for b in self.budget_vectors(inst, rng):
                expected = [fn_left_derivative(t, float(bn)) for t, bn in zip(tables, b)]
                assert np.array_equal(objective.derivatives(b), np.array(expected))
                total = sum(fn_value(t, float(bn)) for t, bn in zip(tables, b))
                assert rel_err(objective.value(b), total) <= 1e-12
                checked += 1
        assert checked == 9 * 8

    def test_derivative_operation_count(self):
        # one lookup per (carrier, candidate), one derivative per carrier
        inst = small_instance(955, users=3, carriers=4, max_mux=2)
        _, tables = make_tables(inst)
        objective = BudgetObjective(tables)
        with count_ops() as counter:
            objective.derivatives(np.array([0.0, 1.0, 0.0, 2.5]))
        assert type(counter.total) is int
        assert counter.total == objective.entry_x[..., 0].size * 6 + 4 * 4


class TestSelectItems:
    def test_empty_when_threshold_exceeds_top_profit(self):
        inst = small_instance(51, users=3, carriers=2, max_mux=2)
        _, tables = make_tables(inst, 2)
        top = fn_value(tables[0], inst.n_power_levels * inst.delta)
        huge = top * 16.0 * inst.n_carriers  # first threshold lands above top
        assert select_items(inst, tables[0], 0, huge, 1.0) == []

    def test_empty_on_nonpositive_estimate(self):
        inst = small_instance(51, users=3, carriers=2, max_mux=2)
        _, tables = make_tables(inst, 2)
        assert select_items(inst, tables[0], 0, 0.0, 0.5) == []

    def test_linear_profits_hit_threshold_multiples(self):
        inst = small_instance(52, users=3, carriers=2, max_mux=2, levels=100)
        _, tables = make_tables(inst, 2)
        # synthetic profits c_l = l; with U = 8 * s the threshold step is s
        # and eps = 1 allows floor(4N/eps) = 8 thresholds
        step = 5
        upper = 8.0 * step
        got = select_items(inst, tables[0], 0, upper, 1.0,
                           profit_fn=lambda l: float(l))
        assert got == [step * k for k in range(1, 9)]
        # a finer eps means more thresholds; crossings are exact ceilings
        got = select_items(inst, tables[0], 0, upper, 0.25,
                           profit_fn=lambda l: float(l))
        fine_step = 0.25 * upper / 8.0
        expect = sorted({math.ceil(k * fine_step) for k in range(1, 33)})
        assert got == expect

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            inst = small_instance(seed + 600, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            upper = estimate_upper_bound(inst, tables)
            eps = float(rng.choice([0.5, 0.2, 0.1]))
            for n in range(2):
                got = select_items(inst, tables[n], n, upper, eps)
                levels = int(class_unit_caps(inst)[n])
                profits = fn_value_many(tables[n],
                                        np.arange(levels + 1) * inst.delta)
                step = eps * upper / (4.0 * inst.n_carriers)
                expect = []
                for t in range(1, int(4.0 * inst.n_carriers / eps) + 1):
                    hits = np.nonzero(profits >= t * step)[0]
                    if hits.size == 0:
                        break
                    if not expect or expect[-1] != int(hits[0]):
                        if hits[0] > 0:
                            expect.append(int(hits[0]))
                assert got == expect

    def test_eval_budget_respected(self):
        inst = small_instance(53, users=4, carriers=2, max_mux=2, levels=512)
        _, tables = make_tables(inst, 2)
        upper = estimate_upper_bound(inst, tables)
        calls = set()

        def counting(l, _real={}):
            calls.add(l)
            if l not in _real:
                _real[l] = float(fn_value_many(tables[0],
                                               np.array([l * inst.delta]))[0])
            return _real[l]

        eps = 0.25
        select_items(inst, tables[0], 0, upper, eps, profit_fn=counting)
        levels = inst.n_power_levels
        bound = min(math.ceil(4 * inst.n_carriers / eps)
                    * math.ceil(math.log2(levels + 1)) + 1, levels)
        assert len(calls - {0}) <= bound


class TestEpsJspa:
    def test_guarantee_on_random_instances(self):
        for seed in range(10):
            inst = small_instance(seed + 700, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            opt = opt_jspa(inst, tables).wsr
            for eps in (0.5, 0.2, 0.1, 0.05):
                sol = eps_jspa(inst, tables, eps)
                assert sol.wsr >= (1 - eps) * opt * (1 - 1e-12)
                assert budget_feasible(inst, sol.budgets)

    def test_fine_epsilon_recovers_exact_optimum(self):
        for seed in range(6):
            inst = small_instance(seed, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            assert eps_jspa(inst, tables, 1e-4).wsr == opt_jspa(inst, tables).wsr

    def test_single_class_returns_best_selected_item(self):
        inst = small_instance(71, users=3, carriers=1, max_mux=2)
        _, tables = make_tables(inst, 2)
        upper = estimate_upper_bound(inst, tables)
        for eps in (0.7, 0.3, 0.05):
            chosen = select_items(inst, tables[0], 0, upper, eps)
            best = max(fn_value(tables[0], l * inst.delta) for l in chosen)
            assert eps_jspa(inst, tables, eps).wsr == pytest.approx(best, rel=1e-12)

    def test_each_profit_is_looked_up_once(self, monkeypatch):
        inst = small_instance(72, users=4, carriers=3, max_mux=2, levels=200)
        _, tables = make_tables(inst, 2)
        real = BudgetObjective.profits
        lookups = []

        def recording(objective, n, budgets):
            lookups.append((id(objective), n, tuple(np.atleast_1d(budgets).tolist())))
            return real(objective, n, budgets)

        monkeypatch.setattr(BudgetObjective, "profits", recording)
        sol = eps_jspa(inst, tables, 0.1)
        assert np.count_nonzero(sol.budgets) > 0
        assert lookups and len(lookups) == len(set(lookups))

    def test_rejects_bad_epsilon(self):
        inst = small_instance(71, users=2, carriers=1, max_mux=1)
        _, tables = make_tables(inst, 1)
        with pytest.raises(ValueError):
            eps_jspa(inst, tables, -0.1)


class TestPerCarrierCaps:
    """Active per-subcarrier power limits exercise every solver's cap path."""

    def capped_instance(self, seed, levels=40):
        cfg = SystemConfig(users=3, subcarriers=3, max_mux=2, p_max_carrier_w=2.5,
                           delta_w=10.0 / levels)
        return generate_instance(cfg, seed)

    def test_grad_respects_caps_and_stays_near_optimal(self):
        inst = self.capped_instance(0, levels=400)
        _, tables = make_tables(inst, 2)
        sol = grad_jspa(inst, tables, 1e-4)
        assert np.all(sol.budgets <= 2.5 + 1e-9)
        assert budget_feasible(inst, sol.budgets)
        assert rel_err(sol.wsr, opt_jspa(inst, tables).wsr) <= 1e-3

    def test_estimate_sandwich_with_active_caps(self):
        # oversized coarse items saturate at the cap; the bracket must survive
        for seed in range(10):
            inst = self.capped_instance(seed)
            _, tables = make_tables(inst, 2)
            upper = estimate_upper_bound(inst, tables)
            opt = opt_jspa(inst, tables).wsr
            assert upper >= opt * (1 - 1e-9)
            assert opt >= upper / 4.0 * (1 - 1e-9)

    def test_eps_guarantee_with_active_caps(self):
        for seed in range(5):
            inst = self.capped_instance(seed)
            _, tables = make_tables(inst, 2)
            opt = opt_jspa(inst, tables).wsr
            for eps in (0.5, 0.1):
                sol = eps_jspa(inst, tables, eps)
                assert np.all(sol.budgets <= 2.5 + 1e-12)
                assert sol.wsr >= (1 - eps) * opt * (1 - 1e-12)


class TestCrossSolverInvariants:
    def test_wsr_non_decreasing_in_multiplex_cap(self):
        for seed in range(5):
            inst = small_instance(seed + 800, users=4, carriers=2, max_mux=3)
            values = []
            for m in (1, 2, 3):
                _, tables = make_tables(inst, m)
                values.append(opt_jspa(inst, tables).wsr)
            assert values[0] <= values[1] * (1 + 1e-9)
            assert values[1] <= values[2] * (1 + 1e-9)

    def test_discretization_gap_bound(self):
        for seed in range(8):
            coarse = small_instance(seed + 900, users=3, carriers=2, max_mux=2,
                                    levels=20)
            fine = small_instance(seed + 900, users=3, carriers=2, max_mux=2,
                                  levels=200)
            assert np.array_equal(coarse.gains, fine.gains)
            _, tab_c = make_tables(coarse, 2)
            order, tab_f = make_tables(fine, 2)
            v_coarse = opt_jspa(coarse, tab_c).wsr
            sol_fine = opt_jspa(fine, tab_f)
            bound = 0.0
            for n in range(2):
                slopes = (fine.bandwidths[n] * fine.weights
                          / ((sol_fine.budgets[n] + fine.eta_tilde[:, n]) * LN2))
                bound += coarse.delta * float(slopes.max())
            assert sol_fine.wsr - v_coarse <= bound + 1e-9 * abs(v_coarse)

    def test_all_solvers_report_recomputable_wsr(self):
        inst = small_instance(88, users=4, carriers=2, max_mux=2)
        order, tables = make_tables(inst, 2)
        for sol in (opt_jspa(inst, tables), brute_force_jspa(inst, tables),
                    eps_jspa(inst, tables, 0.2), grad_jspa(inst, tables, 1e-3)):
            assert rel_err(sol.wsr, wsr_from_x(inst, order, sol.x)) <= 1e-9
            assert budget_feasible(inst, sol.budgets)

    def test_default_iteration_cap_formula(self):
        from nomajspa.jspa import default_grad_iteration_cap
        assert default_grad_iteration_cap(10.0, 1e-4) == \
            10 * math.ceil(math.log2(10.0 / 1e-4)) + 100

    def test_operation_counts_monotone_in_users_and_levels(self):
        def opt_ops(users, levels):
            inst = small_instance(42, users=users, carriers=2, max_mux=2,
                                  levels=levels)
            _, tables = make_tables(inst, 2)
            with count_ops() as counter:
                opt_jspa(inst, tables)
            return counter.total

        assert opt_ops(3, 20) < opt_ops(5, 20)
        assert opt_ops(3, 20) < opt_ops(3, 60)
