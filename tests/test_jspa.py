"""Joint allocators: projection, gradient ascent, knapsack DP, estimation, FPTAS."""

import math
import tracemalloc

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
from nomajspa.single_carrier import (fn_value_many, iscus_precompute, left_derivatives,
                                     stack_candidates)
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


def carried_lo_select_items(instance, n, upper, eps, profit):
    """One threshold at a time, each binary search starting at the last one's index.

    The search `select_items` ran before its lockstep form, kept as its
    oracle; profit maps one grid index to its profit.
    """
    N = instance.n_carriers
    lmax = int(class_unit_caps(instance)[n])
    thresholds = int(math.floor(4.0 * N / eps))
    step = eps * upper / (4.0 * N)
    chosen = []
    lo = 1
    top = profit(lmax) if lmax >= 1 else 0.0
    for t in range(1, thresholds + 1):
        target = t * step
        if target > top:
            break
        # smallest l in [lo, lmax] with profit >= target (profits are monotone)
        hi = lmax
        while lo < hi:
            mid = (lo + hi) // 2
            if profit(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        if not chosen or chosen[-1] != lo:
            chosen.append(lo)
    return chosen


def eps_select_items(instance, n, upper, eps, profit):
    """`select_items` on class n with eps_jspa's thresholds: multiples of eps*U/(4N)."""
    N = instance.n_carriers
    targets = np.arange(1, int(math.floor(4.0 * N / eps)) + 1) * (eps * upper / (4.0 * N))
    return select_items(int(class_unit_caps(instance)[n]), targets, profit)


def class_profit(objective, n, delta):
    """Batch lookup ls -> F_n(ls * delta) of class n: the values eps_jspa gives select_items."""
    return lambda ls: objective.profits(n, np.asarray(ls) * delta)


def lockstep_and_oracle(instance, tables, objective, n, upper, eps):
    """`select_items` on class n and its oracle, both reading one class's profits."""
    profit = class_profit(objective, n, instance.delta)
    scalar = lambda l: float(profit(np.array([l]))[0])
    return (eps_select_items(instance, n, upper, eps, profit),
            carried_lo_select_items(instance, n, upper, eps, scalar))


def index_array_eps_budgets(instance, tables, eps, upper):
    """eps_jspa's budgets by the index-array DP by profits it ran before its slice form.

    Kept as the oracle of that DP: the same item selection, by the lockstep
    search, then every item in turn relaxes `np.arange(q_item, q_cap + 1)`
    by fancy indexing, skipping items of no scaled profit inside the loop.
    """
    N = instance.n_carriers
    if upper <= 0:
        return np.zeros(N)
    objective = BudgetObjective(tables)
    scale = eps * upper / (4.0 * N)
    q_cap = int(math.floor(4.0 * N / eps))
    targets = np.arange(1, q_cap + 1) * scale
    caps = class_unit_caps(instance)
    items = []
    for n in range(N):
        profit = class_profit(objective, n, instance.delta)
        ls = np.array(select_items(int(caps[n]), targets, profit), dtype=np.int64)
        items.append((ls, np.floor(profit(ls) / scale).astype(np.int64)))

    inf = np.iinfo(np.int64).max // 2
    weight = np.full(q_cap + 1, inf, dtype=np.int64)
    weight[0] = 0
    choice = np.full((N, q_cap + 1), -1, dtype=np.int64)
    for n in range(N):
        nxt = weight.copy()
        ls, scaled = items[n]
        for i, (l, q_item) in enumerate(zip(ls.tolist(), scaled.tolist())):
            if q_item <= 0:
                continue
            reach = np.arange(q_item, q_cap + 1)
            cand = weight[reach - q_item] + l
            better = cand < nxt[reach]
            nxt[reach[better]] = cand[better]
            choice[n, reach[better]] = i
        weight = nxt

    units = np.zeros(N, dtype=np.int64)
    q = int(np.nonzero(weight <= instance.n_power_levels)[0][-1])
    for n in range(N - 1, -1, -1):
        i = int(choice[n, q])
        if i >= 0:
            ls, scaled = items[n]
            units[n] = ls[i]
            q -= int(scaled[i])
    return units * instance.delta


def per_level_relaxation(best, cn, lmax):
    """One class of opt's DP by weights, every level scanning every affordable item.

    The relaxation `opt_jspa` ran before its divide and conquer, kept as
    the oracle of `jspa._relax_class`: nxt[l] is the float max of
    best[l - j] + cn[j] over j <= min(l, lmax), choice[l] its smallest j.
    """
    J = best.size - 1
    nxt = np.empty(J + 1)
    choice = np.zeros(J + 1, dtype=np.int64)
    for level in range(J + 1):
        take = min(level, lmax)
        cand = best[level::-1][:take + 1] + cn[:take + 1]
        k = int(np.argmax(cand))
        choice[level] = k
        nxt[level] = cand[k]
    return nxt, choice


DENSE_BUDGETS = (jspa._DENSE_CELLS, 0, 2 ** 62)


def assert_relaxes_like_oracle(profits, caps):
    """`jspa._relax_class` gives the oracle's best and choice, bit for bit, class by class.

    At every cell budget of DENSE_BUDGETS: the default; 0, where the divide
    and conquer goes down to one-row nodes and the dense fallback to one-row
    chunks; and one so large that every class is finished densely at its root.
    """
    for budget in DENSE_BUDGETS:
        best = np.zeros(profits.shape[1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jspa, "_DENSE_CELLS", budget)
            for cn, lmax in zip(profits, caps):
                nxt, choice = jspa._relax_class(best, cn, int(lmax))
                expect_nxt, expect_choice = per_level_relaxation(best, cn, int(lmax))
                assert np.array_equal(nxt, expect_nxt)
                assert np.array_equal(choice, expect_choice)
                best = expect_nxt


def grid_profit(instance, table):
    """`select_items`' profit_fn for one table: grid indices to F_n values."""
    return lambda ls: fn_value_many(table, ls * instance.delta)


def select_rounds_bound(instance, n):
    """Most `profit_fn` calls `select_items` may make on class n."""
    return math.ceil(math.log2(int(class_unit_caps(instance)[n]) + 1)) + 1


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

    def test_iteration_cap_returns_best_iterate_with_flag(self, monkeypatch):
        inst = small_instance(5, users=4, carriers=3, max_mux=2)
        _, tables = make_tables(inst, 2)
        monkeypatch.setattr(jspa, "default_grad_iteration_cap", lambda p_max, xi: 2)
        sol = grad_jspa(inst, tables, 1e-12)
        assert not sol.converged
        assert sol.iterations == 2
        assert budget_feasible(inst, sol.budgets)

    def test_solution_wsr_matches_recomputation(self):
        inst = small_instance(6, users=4, carriers=3, max_mux=2)
        order, tables = make_tables(inst, 2)
        sol = grad_jspa(inst, tables, 1e-4)
        assert rel_err(sol.wsr, wsr_from_x(inst, order, sol.x)) <= 1e-9

    def test_trajectory_is_pinned(self):
        # recorded with F_n valued by the pinned-block kernel and Brent's line search
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        sol = grad_jspa(inst, tables, 1e-4)
        assert sol.wsr.hex() == "0x1.8df3bab5cdd69p+24"
        assert (sol.iterations, sol.converged) == (6, True)
        assert sol.budgets.tobytes().hex() == (
            "463f7258a5d1f13fa6b55b0cc2dbf53f26b4a750ec40f63faee2ac1faa12f53f"
            "bec7977067b8f33fce75f6370080f43f80a26b80c24df43f3894e301d878f03f")

    def test_each_accepted_step_is_projected_once(self, monkeypatch):
        # the step a line search accepts is one of the points it valued, so
        # grad projects nothing else; Brent's search values 94 points over
        # the 6 iterations here, so 20 per iteration leaves room
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        real = jspa.project_simplex
        points = []

        def recording(v, p_max, caps):
            points.append(real(v, p_max, caps))
            return points[-1]

        monkeypatch.setattr(jspa, "project_simplex", recording)
        sol = grad_jspa(inst, tables, 1e-4)
        assert len(points) <= 20 * sol.iterations
        assert any(np.array_equal(sol.budgets, q) for q in points)

    def test_rejects_bad_tolerance(self):
        inst = small_instance(6, users=2, carriers=2, max_mux=1)
        _, tables = make_tables(inst, 1)
        for xi in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(ValueError, match="xi must be positive and finite"):
                grad_jspa(inst, tables, xi)


def recorded(fun):
    """fun, and the (x, f(x)) pairs it was called with, in call order."""
    calls = []

    def wrapped(x):
        calls.append((x, fun(x)))
        return calls[-1][1]
    return wrapped, calls


def golden_evaluations(fun, lo, hi, tol):
    """Evaluations a plain golden search takes to close [lo, hi] to tol, hi included."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = fun(c), fun(d)
    count = 3
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = fun(d)
        count += 1
    return count


class TestBrentMax:
    def test_finds_the_vertex_of_a_parabola(self):
        for c in (0.013, 0.3, 0.77, 0.999):
            x, fx = jspa._brent_max(lambda a: -(a - c) ** 2, 0.0, 1.0, -c * c, 1e-6)
            assert abs(x - c) <= 1e-6
            assert fx == -(x - c) ** 2

    def test_increasing_function_returns_the_far_end(self):
        assert jspa._brent_max(lambda a: a ** 3, 0.0, 2.0, 0.0, 1e-6) == (2.0, 8.0)

    def test_a_best_start_is_kept(self):
        fun, calls = recorded(lambda a: -a)
        assert jspa._brent_max(fun, 0.0, 3.0, 0.0, 1e-6) == (0.0, 0.0)
        assert calls[0] == (3.0, -3.0) and all(f < 0.0 for _, f in calls)

    @pytest.mark.parametrize("lo", [0.0, 0.1, 0.2, 0.25, 0.5])
    def test_two_peaks_never_lose_and_return_a_sample(self, lo):
        # a narrow high peak at 0.2 beside a broad low one at 0.7: the search
        # settles on the low one, so from lo = 0.2 only f(lo) keeps the ascent
        def two_peaks(a):
            return max(1.1 - 60.0 * (a - 0.2) ** 2, 1.0 - 40.0 * (a - 0.7) ** 2)

        f_lo = two_peaks(lo)
        fun, calls = recorded(two_peaks)
        x, fx = jspa._brent_max(fun, lo, 1.0, f_lo, 1e-7)
        assert fx == max([f_lo] + [f for _, f in calls]) >= f_lo
        assert (x, fx) == (lo, f_lo) or (x, fx) in calls

    @pytest.mark.parametrize("tol", [1e-300, 5e-324, 0.0])
    def test_ends_at_a_left_maximum_for_any_tolerance(self, tol):
        # x and tol1 go to 0 here; golden steps reach the subnormals and stop
        fun, calls = recorded(lambda a: -a)
        assert jspa._brent_max(fun, 0.0, 10.0, 0.0, tol) == (0.0, 0.0)
        assert len(calls) < 2000

    def test_fewer_evaluations_than_golden_section(self):
        def smooth(a):
            return math.log1p(a) - 0.3 * a

        for tol in (1e-3, 1e-6, 1e-9):
            fun, calls = recorded(smooth)
            x, _ = jspa._brent_max(fun, 0.0, 10.0, 0.0, tol)
            assert abs(x - (1.0 / 0.3 - 1.0)) <= tol
            assert len(calls) < golden_evaluations(smooth, 0.0, 10.0, tol)


class TestBuildKnapsack:
    def test_zero_item_has_zero_profit(self):
        inst = small_instance(11, users=4, carriers=3, max_mux=2)
        _, tables = make_tables(inst, 2)
        profits = build_knapsack(inst, BudgetObjective(tables))
        assert np.array_equal(profits[:, 0], np.zeros(3))

    def test_profits_non_decreasing(self):
        inst = small_instance(12, users=4, carriers=3, max_mux=2)
        _, tables = make_tables(inst, 2)
        profits = build_knapsack(inst, BudgetObjective(tables))
        scale = profits.max()
        assert np.all(np.diff(profits, axis=1) >= -1e-9 * scale)

    def test_default_grid_has_thousand_levels(self):
        inst = generate_instance(SystemConfig(users=3), 0)
        _, tables = make_tables(inst, 2)
        profits = build_knapsack(inst, BudgetObjective(tables))
        assert inst.n_power_levels == 1000
        assert profits.shape == (20, 1001)
        assert not profits.flags.writeable

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
            a = opt_jspa(inst, tables)
            b = brute_force_jspa(inst, tables)
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
        gridded_value = sum(fn_value_many(tables[n], gridded[n:n + 1])[0] for n in range(2))
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

    def test_fine_grid_solve_memory_is_bounded(self):
        # fine_grid shape: K = 5, N = 20, J = 4000; 11 of its 20 classes have 3 concave pieces
        inst = generate_instance(SystemConfig(users=5, max_mux=2, delta_w=0.0025), 71004)
        _, tables = make_tables(inst)
        assert inst.n_power_levels == 4000
        tracemalloc.start()
        try:
            sol = opt_jspa(inst, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.wsr > 0 and budget_feasible(inst, sol.budgets)
        # the (N, J + 1) profits and choices take 1.3 MB, the dense finish's
        # scratch about 25 bytes per cell of _DENSE_CELLS; one dense block per
        # class would take (J + 1)^2 floats, 128 MB
        assert peak < 3.5e6


class TestRelaxClass:
    """opt's divide and conquer on hand-built classes, held to the per-level oracle."""

    LEVELS = np.arange(201)

    @staticmethod
    def scans(monkeypatch):
        """Count the classes `_relax_class` relaxes densely level by level."""
        calls = []
        dense = jspa._relax_densely

        def counted(best, cn):
            calls.append(cn.size)
            return dense(best, cn)

        monkeypatch.setattr(jspa, "_relax_densely", counted)
        return calls

    @staticmethod
    def finishes(monkeypatch):
        """Record the node tables `jspa._finish` values."""
        calls = []
        finish = jspa._finish

        def recorded(best, cn, node):
            calls.append(np.array(node))
            return finish(best, cn, node)

        monkeypatch.setattr(jspa, "_finish", recorded)
        return calls

    def test_exactly_linear_class_is_one_piece(self, monkeypatch):
        cn = 3.0 * self.LEVELS  # every difference is exactly 3
        assert jspa._concave_pieces(cn)[0].tolist() == [0]
        scans = self.scans(monkeypatch)
        assert_relaxes_like_oracle(np.stack([2.0 * np.sqrt(self.LEVELS), cn]), [200, 200])
        assert scans == []

    def test_identical_classes_tie_exactly(self, monkeypatch):
        cn = 1e6 * np.log2(1.0 + self.LEVELS / 7.0)
        scans = self.scans(monkeypatch)
        assert_relaxes_like_oracle(np.stack([cn, cn, cn]), [200, 200, 200])
        assert scans == []

    def test_noisy_class_scans_every_level(self, monkeypatch):
        # near-linear, so rounding breaks its differences into many pieces
        cn = 1e6 * np.log2(1.0 + 1e-9 * self.LEVELS)
        assert jspa._concave_pieces(cn)[0].size ** 2 * jspa._SCAN_PIECES > cn.size
        scans = self.scans(monkeypatch)
        assert_relaxes_like_oracle(np.stack([np.sqrt(self.LEVELS), cn]), [200, 200])
        assert scans == [201] * len(DENSE_BUDGETS)

    def test_flat_class_scans_every_level(self, monkeypatch):
        # all near ties: the windows never narrow, so the dense relaxation takes over,
        # except at a budget so large that the class is finished at its root
        scans = self.scans(monkeypatch)
        assert_relaxes_like_oracle(np.zeros((2, 501)), [500, 500])
        assert scans == [501, 501] * (len(DENSE_BUDGETS) - 1)

    def test_dense_relaxation_in_one_row_chunks(self, monkeypatch):
        # a budget below one row's cells leaves one level per chunk
        cn = 1e6 * np.log2(1.0 + 1e-9 * self.LEVELS)
        best = np.sqrt(self.LEVELS)
        monkeypatch.setattr(jspa, "_DENSE_CELLS", 100)
        finishes = self.finishes(monkeypatch)
        nxt, choice = jspa._relax_class(best, cn, 200)
        assert [node[:, :2].tolist() for node in finishes] == [[[l, l]] for l in range(201)]
        expect_nxt, expect_choice = per_level_relaxation(best, cn, 200)
        assert np.array_equal(nxt, expect_nxt) and np.array_equal(choice, expect_choice)

    def test_dense_relaxation_chunks_stay_in_the_budget(self, monkeypatch):
        cn = np.zeros(4001)
        cells = []
        real = jspa._row_cells

        def counted(best, cn, rows, lo, width):
            cells.append(int(width.sum()))
            return real(best, cn, rows, lo, width)

        monkeypatch.setattr(jspa, "_row_cells", counted)
        jspa._relax_densely(np.zeros(4001), cn)
        assert max(cells) <= jspa._DENSE_CELLS
        assert sum(cells) == sum(min(l, 4000) + 1 for l in range(4001))

    def test_flat_class_memory_is_bounded(self):
        # J = 4000 flat levels go to the dense relaxation, whose row chunks hold
        # at most _DENSE_CELLS cells; the whole band would take 64 MB of floats
        best, cn = np.zeros(4001), np.zeros(4001)
        tracemalloc.start()
        try:
            nxt, choice = jspa._relax_class(best, cn, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not nxt.any() and not choice.any()
        assert peak < 2e6

    def test_small_grid_is_finished_at_the_root(self, monkeypatch):
        cn = 1e6 * np.log2(1.0 + self.LEVELS[:41] / 7.0)
        scans = self.scans(monkeypatch)
        finishes = self.finishes(monkeypatch)
        nxt, choice = jspa._relax_class(np.sqrt(self.LEVELS[:41]), cn, 40)
        assert scans == []
        # one node per piece, levels s..J over columns 0..J - s: the root
        s, e = jspa._concave_pieces(cn)
        root = np.stack((s, np.full(s.size, 40), 0 * s, 40 - s, s, e), axis=1)
        assert len(finishes) == 1 and np.array_equal(finishes[0], root)
        expect_nxt, expect_choice = per_level_relaxation(np.sqrt(self.LEVELS[:41]), cn, 40)
        assert np.array_equal(nxt, expect_nxt) and np.array_equal(choice, expect_choice)

    @pytest.mark.parametrize("lmax", [0, 1, 5])
    def test_cap_below_the_grid(self, lmax):
        cn = 1e6 * np.log2(1.0 + self.LEVELS / 3.0)
        caps = [lmax, 200, lmax]
        assert_relaxes_like_oracle(np.stack([cn, np.sqrt(self.LEVELS), cn]), caps)


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
        value = sum(fn_value_many(tables[n], flipped[n:n + 1])[0] for n in range(2))
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
        top = fn_value_many(tables[0], [inst.n_power_levels * inst.delta])[0]
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
                sol = eps_jspa(inst, tables, eps)
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
                expected = [left_derivatives(stack_candidates([t]), b[n:n + 1])
                            for n, t in enumerate(tables)]
                assert np.array_equal(objective.derivatives(b), np.concatenate(expected))
                total = sum(fn_value_many(t, [bn])[0] for t, bn in zip(tables, b))
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
        assert counter.total == objective.cands.entry_x[..., 0].size * 6 + 4 * 4


class TestSelectItems:
    def test_empty_when_threshold_exceeds_top_profit(self):
        inst = small_instance(51, users=3, carriers=2, max_mux=2)
        _, tables = make_tables(inst, 2)
        top = fn_value_many(tables[0], [inst.n_power_levels * inst.delta])[0]
        huge = top * 16.0 * inst.n_carriers  # first threshold lands above top
        assert eps_select_items(inst, 0, huge, 1.0, grid_profit(inst, tables[0])) == []

    def test_empty_on_nonpositive_estimate(self, monkeypatch):
        inst = small_instance(51, users=3, carriers=2, max_mux=2)
        _, tables = make_tables(inst, 2)
        monkeypatch.setattr(jspa, "estimate_upper_bound", lambda *args: 0.0)
        sol = eps_jspa(inst, tables, 0.5)
        assert np.array_equal(sol.budgets, np.zeros(inst.n_carriers)) and sol.wsr == 0.0

    def test_linear_profits_hit_threshold_multiples(self):
        # synthetic profits c_l = l on a grid of 100 levels
        linear = lambda ls: ls.astype(float)
        step = 5
        got = select_items(100, np.arange(1, 9) * float(step), linear)
        assert got == [step * k for k in range(1, 9)]
        # finer thresholds: crossings are exact ceilings
        fine_step = 1.25
        got = select_items(100, np.arange(1, 33) * fine_step, linear)
        expect = sorted({math.ceil(k * fine_step) for k in range(1, 33)})
        assert got == expect
        # thresholds past the top profit have no item, and nothing is left at lmax = 0
        assert select_items(100, np.array([50.0, 100.0, 101.0]), linear) == [50, 100]
        assert select_items(0, np.array([0.0]), linear) == []

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            inst = small_instance(seed + 600, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            upper = estimate_upper_bound(inst, tables)
            eps = float(rng.choice([0.5, 0.2, 0.1]))
            for n in range(2):
                got = eps_select_items(inst, n, upper, eps, grid_profit(inst, tables[n]))
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
        calls = []

        def counting(ls):
            calls.append(ls.copy())
            return fn_value_many(tables[0], ls * inst.delta)

        eps = 0.25
        got = eps_select_items(inst, 0, upper, eps, counting)
        assert len(calls) <= select_rounds_bound(inst, 0)
        scalar = lambda l: float(fn_value_many(tables[0], np.array([l * inst.delta]))[0])
        assert got == carried_lo_select_items(inst, 0, upper, eps, scalar)

    def test_matches_carried_lo_oracle(self):
        for seed in range(6):
            inst = small_instance(seed + 650, users=4, carriers=3, max_mux=2, levels=300)
            _, tables = make_tables(inst, 2)
            objective = BudgetObjective(tables)
            upper = estimate_upper_bound(inst, tables)
            for eps in (0.5, 0.1, 0.05):
                for n in range(inst.n_carriers):
                    got, expect = lockstep_and_oracle(inst, tables, objective, n, upper, eps)
                    assert got == expect


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
            chosen = eps_select_items(inst, 0, upper, eps, grid_profit(inst, tables[0]))
            best = fn_value_many(tables[0], np.array(chosen) * inst.delta).max()
            assert eps_jspa(inst, tables, eps).wsr == pytest.approx(best, rel=1e-12)

    def test_each_profit_is_looked_up_once(self, monkeypatch):
        inst = small_instance(72, users=4, carriers=3, max_mux=2, levels=200)
        _, tables = make_tables(inst, 2)
        real = BudgetObjective.profits
        calls, lookups = [], []

        def recording(objective, n, budgets):
            calls.append((id(objective), n))
            units = np.rint(np.atleast_1d(budgets) / inst.delta).astype(int).tolist()
            lookups.extend((id(objective), n, l) for l in units)
            return real(objective, n, budgets)

        monkeypatch.setattr(BudgetObjective, "profits", recording)
        sol = eps_jspa(inst, tables, 0.1)
        assert np.count_nonzero(sol.budgets) > 0
        assert lookups and len(lookups) == len(set(lookups))
        # every call is a threshold search's own: the chosen items' profits come from what it read
        for key in set(calls):
            assert calls.count(key) <= select_rounds_bound(inst, key[1])

    def test_memory_does_not_grow_with_the_grid(self):
        # J = 10^7 levels: any per-class array sized by the grid would take 80 MB
        J = 10 ** 7
        inst = generate_instance(SystemConfig(users=5, subcarriers=8, max_mux=2,
                                              delta_w=10 / J), 3)
        _, tables = make_tables(inst)
        assert inst.n_power_levels == J
        tracemalloc.start()
        try:
            sol = eps_jspa(inst, tables, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.wsr > 0 and budget_feasible(inst, sol.budgets)
        assert peak < 4e6

    def test_desk_solve_reads_each_class_grid_once(self, monkeypatch):
        # desk shape: K = 10, N = 20, J = 1000, eps = 0.1, so every class reads its whole grid
        inst = generate_instance(SystemConfig(users=10, max_mux=2), 5)
        _, tables = make_tables(inst)
        upper = estimate_upper_bound(inst, tables)
        real_profits, real_values = BudgetObjective.profits, jspa.best_values
        classes, reads = [], []

        def profits(objective, n, budgets):
            classes.append(n)
            return real_profits(objective, n, budgets)

        def values(cands, budgets):
            reads.append(np.array(budgets))
            return real_values(cands, budgets)

        monkeypatch.setattr(BudgetObjective, "profits", profits)
        monkeypatch.setattr(jspa, "best_values", values)
        # U is read beforehand, so the estimate's own F_n read is not counted
        monkeypatch.setattr(jspa, "estimate_upper_bound", lambda *args: upper)
        assert eps_jspa(inst, tables, 0.1).wsr > 0
        assert classes == list(range(inst.n_carriers))
        # and no other F_n read: one row per class, its grid 0..lmax
        assert len(reads) == inst.n_carriers
        for budgets, lmax in zip(reads, class_unit_caps(inst)):
            assert np.array_equal(budgets, np.arange(lmax + 1)[None, :] * inst.delta)

    def test_tiny_epsilon_dp_memory_is_bounded(self):
        # eps = 1e-3 on 3 carriers: q_cap = 12000, and a class has over 500 items,
        # so one array of a class's candidate weights would take about 50 MB
        inst = generate_instance(SystemConfig(users=3, subcarriers=3, max_mux=2,
                                              delta_w=0.01), 4)
        _, tables = make_tables(inst)
        eps = 1e-3
        upper = estimate_upper_bound(inst, tables)
        q_cap = int(4 * inst.n_carriers / eps)
        targets = np.arange(1, q_cap + 1) * (eps * upper / (4.0 * inst.n_carriers))
        objective = BudgetObjective(tables)
        caps = class_unit_caps(inst)
        items = max(jspa._class_items(objective, n, int(caps[n]), targets, inst.delta)[0].size
                    for n in range(inst.n_carriers))
        assert items * (q_cap + 1) * 8 > 40e6
        tracemalloc.start()
        try:
            sol = eps_jspa(inst, tables, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.wsr >= (1 - eps) * opt_jspa(inst, tables).wsr * (1 - 1e-12)
        # chunks of _DP_CELLS weights (0.5 MB), their improved columns and a
        # mask, beside the (N, q_cap + 1) choices and a few rows of q_cap + 1
        assert peak < 4e6

    def test_upper_below_the_optimum_is_rejected(self, monkeypatch):
        inst = generate_instance(SystemConfig(users=5, subcarriers=4, delta_w=0.5), 3)
        _, tables = make_tables(inst, 2)
        upper = estimate_upper_bound(inst, tables)
        opt = opt_jspa(inst, tables).wsr
        # 0.3 U used to return a third below opt, 0.1 U to fail inside numpy
        for share in (0.3, 0.1):
            monkeypatch.setattr(jspa, "estimate_upper_bound", lambda *args: share * upper)
            with pytest.raises(ValueError, match="upper = .* class"):
                eps_jspa(inst, tables, 0.1)
        monkeypatch.setattr(jspa, "estimate_upper_bound", lambda *args: 1.001 * opt)
        assert eps_jspa(inst, tables, 0.1).wsr >= 0.9 * opt

    def test_rejects_bad_epsilon(self):
        inst = small_instance(71, users=2, carriers=1, max_mux=1)
        _, tables = make_tables(inst, 1)
        for eps in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                eps_jspa(inst, tables, eps)


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
