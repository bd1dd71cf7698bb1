"""Joint allocators: projection, gradient ascent, knapsack DP, estimation, FPTAS."""

import math
import tracemalloc
import types

import numpy as np
import pytest

from conftest import (knapsack_multiplier, lagrangian_split, rel_err, small_instance,
                      table_incumbent, table_units)
from nomajspa.model import (
    Instance,
    LN2,
    SystemConfig,
    build_decoding_order,
    generate_instance,
    wsr_from_x,
)
from nomajspa.single_carrier import (best_values, fn_value_many, iscus_precompute,
                                     lagrangian_maxima, left_derivatives, stack_candidates)
from nomajspa.jspa import (
    BRUTE_FORCE_LIMIT,
    BudgetObjective,
    brute_force_jspa,
    budget_feasible,
    build_knapsack,
    check_brute_force,
    class_unit_caps,
    dual_upper_bound,
    eps_bracket,
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


def carried_lo_select_items(lmax, targets, profit):
    """One target at a time, each binary search starting at the last one's index.

    The search `select_items` ran before its lockstep form, kept as one of
    its oracles; profit maps one grid index to its profit.
    """
    chosen = []
    lo = 1
    top = profit(lmax) if lmax >= 1 else -math.inf
    for target in targets:
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


def full_scan_select_items(row, lmax, targets):
    """Every target's first index in [1, lmax] whose profit in row reaches it, scanned."""
    chosen = []
    for target in targets:
        hits = np.flatnonzero(row[1:lmax + 1] >= target)
        if hits.size == 0:
            break
        if not chosen or chosen[-1] != hits[0] + 1:
            chosen.append(int(hits[0]) + 1)
    return chosen


def grid_select_items(row, lmax, targets):
    """The crossings np.searchsorted finds on the whole grid row[0..lmax], and their profits.

    eps's whole-grid threshold read, kept as an oracle of `select_items`;
    it needs a non-decreasing row.
    """
    if lmax < 1:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    cn = row[:lmax + 1]
    ls = np.unique(np.searchsorted(cn[1:], targets[targets <= cn[lmax]]) + 1)
    return ls, cn[ls]


def own_bracket(instance, tables):
    """eps_jspa's bracket (lower, upper, units), from the cap reads eps makes."""
    objective = BudgetObjective(tables)
    lmax = class_unit_caps(instance)
    top = best_values(objective.cands, lmax[:, None] * instance.delta)[:, 0]
    return eps_bracket(instance, tables, objective, lmax, top,
                       jspa._certificate(instance, objective))


def eps_dp(instance, tables, eps, bracket=None):
    """The paper's eps-JSPA (`jspa._eps_dp`) as a solution, on eps's own bracket or a given one.

    The DP's seam: eps_jspa runs it only where its bracket's split does not
    already prove the guarantee. The caps are read first, through
    `jspa.best_values`, as eps_jspa reads them.
    """
    objective = BudgetObjective(tables)
    lmax = class_unit_caps(instance)
    top = jspa.best_values(objective.cands, lmax[:, None] * instance.delta)[:, 0]
    lower, upper = (own_bracket(instance, tables) if bracket is None else bracket)[:2]
    units = jspa._eps_dp(instance, objective, lmax, top, lower, upper, eps)
    return jspa._solution(objective, units * instance.delta, f"eps:{eps:g}",
                          jspa._certificate(instance, objective).upper)


def target_count(instance, bracket, eps):
    """T = floor(N * (upper / lower) / eps), eps_jspa's number of targets."""
    lower, upper = bracket[:2]
    return int(math.floor(instance.n_carriers * (upper / lower) / eps))


def eps_targets(instance, bracket, eps):
    """eps_jspa's thresholds: the multiples of eps * lower / N up to `target_count`."""
    scale = eps * bracket[0] / instance.n_carriers
    return np.arange(1, target_count(instance, bracket, eps) + 1) * scale


def stacked_profit(objective, delta):
    """eps_jspa's profit_fn: (N, L) grid indices to F_n(l * delta), row n on class n."""
    return lambda ls: best_values(objective.cands, ls * delta)


def selected(lmax, targets, profit_fn):
    """`select_items` after its round 0, the read of every class's cap."""
    lmax = np.asarray(lmax)
    return select_items(lmax, targets, profit_fn, profit_fn(lmax[:, None])[:, 0])


def eps_select_items(instance, objective, bracket, eps):
    """`select_items` as eps_jspa calls it: per class (ls, profits)."""
    return selected(class_unit_caps(instance), eps_targets(instance, bracket, eps),
                    stacked_profit(objective, instance.delta))


def assert_selects_like_oracles(lmax, targets, profit_fn, rows):
    """`select_items` picks, per class, what each oracle picks, at their grid profits.

    rows[n] holds class n's grid profits 0..lmax_n, as profit_fn reads them.
    """
    picked = selected(lmax, targets, profit_fn)
    assert len(picked) == len(rows)
    for (ls, profits), row, top in zip(picked, rows, lmax):
        top = int(top)
        grid_ls, grid_profits = grid_select_items(row, top, targets)
        assert ls.dtype == np.int64
        assert np.array_equal(ls, grid_ls) and np.array_equal(profits, grid_profits)
        assert ls.tolist() == full_scan_select_items(row, top, targets)
        assert ls.tolist() == carried_lo_select_items(top, targets, lambda l: row[l])


def class_rows(instance, objective):
    """Each class's grid profits 0..lmax_n, cut from the whole grid's (`build_knapsack`)."""
    profits = build_knapsack(instance, objective)
    return [profits[n, :lmax + 1] for n, lmax in enumerate(class_unit_caps(instance))]


def index_array_eps_budgets(instance, tables, eps, lower, upper):
    """eps_jspa's budgets by the index-array DP by profits it ran before its slice form.

    Kept as the oracle of that DP on the bracket lower <= OPT <= upper: the
    same items, read off each class's whole grid (`grid_select_items`),
    then every item in turn relaxes `np.arange(q_item, q_cap + 1)` by fancy
    indexing, skipping items of no scaled profit inside the loop.
    """
    N = instance.n_carriers
    if upper <= 0:
        return np.zeros(N)
    objective = BudgetObjective(tables)
    scale = eps * lower / N
    q_cap = target_count(instance, (lower, upper), eps)
    targets = np.arange(1, q_cap + 1) * scale
    items = []
    for row in class_rows(instance, objective):
        ls, profits = grid_select_items(row, row.size - 1, targets)
        items.append((ls, np.floor(profits / scale).astype(np.int64)))

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


LEVELS = np.arange(201)


def per_level_relaxation(best, cn, lmax):
    """One class of opt's DP by weights, every level scanning every affordable item.

    The relaxation `opt_jspa` ran before its Lagrangian fathoming, kept as
    the oracle of each class `jspa._grid_units` relaxes (`jspa._relax`) and
    of the table DP (`conftest.table_units`): nxt[l] is the float max of
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


def full_dp_units(profits, caps):
    """`per_level_relaxation` chained over the classes and backtracked from J: the paper's DP."""
    J = profits.shape[1] - 1
    best = np.zeros(J + 1)
    choices = []
    for cn, lmax in zip(profits, caps):
        best, choice = per_level_relaxation(best, cn, int(lmax))
        choices.append(choice)
    units = np.zeros(len(choices), dtype=np.int64)
    level = J
    for n in range(len(choices) - 1, -1, -1):
        units[n] = choices[n][level]
        level -= units[n]
    return units


def fixed_units(profits, caps, multiplier=knapsack_multiplier):
    """`jspa._grid_units` over the items reduced-cost fixing keeps from a whole profit table.

    lam, x(lam) and phi(lam) come from `multiplier` and the feasible value
    is `table_incumbent` of x(lam); an item is kept, and a column live, by
    opt's rules, with the table's exact phi and a margin of `jspa._MARGIN`
    times the largest magnitude a sum reaches.
    """
    caps = np.asarray(caps, dtype=np.int64)
    J = profits.shape[1] - 1
    lam, x, phi = multiplier(profits, caps)
    incumbent = table_incumbent(profits, caps, x)
    margin = jspa._MARGIN * (float(np.abs(profits).max(axis=1).sum()) + lam * J)
    thresholds = phi - (lam * J + float(phi.sum()) - incumbent) - margin
    items = []
    for n, lmax in enumerate(caps):
        js = np.flatnonzero(profits[n, :lmax + 1] - lam * np.arange(lmax + 1) >= thresholds[n])
        items.append((js, profits[n, js]))
    return jspa._grid_units(items, caps, J, lam, phi, incumbent - margin)


def lam_0(profits, caps):
    """The multiplier lam = 0, with its split and maxima."""
    return (0.0, *lagrangian_split(profits, caps, 0.0))


# opt's DP as it runs, and with each of its shortcuts forced: lam = 0; and no
# fathoming (margin = inf, so every item is kept and every reachable column
# is live, which needs a profit that is not 0): (patches of jspa, multiplier)
DP_SETTINGS = {
    "default": ({}, knapsack_multiplier),
    "lam_0": ({}, lam_0),
    "margin_inf": ({"_MARGIN": math.inf}, knapsack_multiplier),
}


def band_cells(J, lmax):
    """Cells of the full DP's class: every level l over its items j <= min(l, lmax)."""
    return sum(min(l, lmax) + 1 for l in range(J + 1))


def relax_cells(ks, js, r0, r1):
    """Cells `jspa._relax` values: each kept item j over the columns r0 - j <= k <= r1 - j."""
    js = np.asarray(js)
    return int((np.searchsorted(ks, r1 - js, side="right") - np.searchsorted(ks, r0 - js)).sum())


def assert_relaxes_like_oracle(profits, caps, settings=tuple(DP_SETTINGS)):
    """The table DP (`table_units`) and `jspa._grid_units` over the items reduced-cost
    fixing keeps (`fixed_units`) backtrack the full DP's units, bit for bit, in every setting;
    `jspa._relax` relaxes each class once, valuing no more cells than its full band."""
    profits = np.asarray(profits, dtype=float)
    caps = np.asarray(caps, dtype=np.int64)
    J = profits.shape[1] - 1
    expect = full_dp_units(profits, caps)
    for name in settings:
        patches, multiplier = DP_SETTINGS[name]
        with pytest.MonkeyPatch.context() as patch:
            for attr, value in patches.items():
                patch.setattr(jspa, attr, value)
            relax, lmax = jspa._relax, iter(caps.tolist())

            def in_band(ks, bk, js, cj, r0, r1):
                assert relax_cells(ks, js, r0, r1) <= band_cells(J, next(lmax))
                return relax(ks, bk, js, cj, r0, r1)

            patch.setattr(jspa, "_relax", in_band)
            assert np.array_equal(table_units(profits, caps, multiplier), expect), name
            assert np.array_equal(fixed_units(profits, caps, multiplier), expect), name
            assert next(lmax, None) is None, name


def select_rounds_bound(instance):
    """Most `profit_fn` calls `select_items` may make on the instance's classes."""
    return math.ceil(math.log2(int(class_unit_caps(instance).max()) + 1)) + 1


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


def bit_bisection_multiplier(v, p_max, caps):
    """The smallest float lam whose clipped sum fits p_max, by bisecting all of lam's bits.

    `_budget_multiplier`'s search without its root and gallop, kept as its
    oracle where the breakpoint root lands at or below 0.
    """
    def over(b):
        lam = float(np.int64(b).view(np.float64))
        return float(np.minimum(np.maximum(v - lam, 0.0), caps).sum()) > p_max

    lo, hi = 0, int(np.float64(v.max()).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if over(mid) else (lo, mid)
    return float(np.int64(hi).view(np.float64))


def rounding_overspend_cases(seed=29, draws=300):
    """Seeded (v, p_max, caps) where v's clipped sum overspends p_max by 1 to 4 ulps.

    v is partly negative, some entries tied, tiny (1e-20) or above their
    caps. 296 of the 300 draws give p_max > 0; of these, 79 put the
    breakpoint root at or below 0 and 208 within the walk's rounding above it.
    """
    rng = np.random.default_rng(seed)
    for i in range(draws):
        size = int(rng.integers(1, 41))
        v = rng.uniform(-0.2, 1.0, size) * 10.0 ** rng.uniform(-3.0, 1.0)
        if i % 4 == 1:
            v = rng.choice(v, size)
        if i % 5 == 2:
            v[rng.random(size) < 0.2] = 1e-20
        caps = np.where(rng.random(size) < 0.3, np.abs(v) * 0.5, np.abs(v) + 1.0)
        p_max = float(np.minimum(np.maximum(v, 0.0), caps).sum())
        for _ in range(int(rng.integers(1, 5))):
            p_max = float(np.nextafter(p_max, 0.0))
        if p_max > 0.0:
            yield v, p_max, caps


class TestProjectSimplex:
    # grad's dual starts that overspend p_max by rounding alone: (users, max_mux,
    # delta_w, seed) of many_users seed 41, desk K = 10 seed 43, fine_grid 42 and 43
    ROUNDING_STARTS = [(40, 3, 0.05, 41), (10, 2, 0.01, 43), (5, 2, 0.0025, 42),
                       (5, 2, 0.0025, 43)]

    @pytest.mark.parametrize("users, max_mux, delta_w, seed", ROUNDING_STARTS)
    def test_rounding_overspend_takes_few_clipped_sums(self, users, max_mux, delta_w, seed):
        # these starts bisected all 63 bits of lam; the gallop over multiples
        # of ulp(min v) / 8 takes 8 to 11 clipped sums, the first check's included
        inst = generate_instance(SystemConfig(users=users, max_mux=max_mux,
                                              delta_w=delta_w), seed)
        _, tables = make_tables(inst)
        v = dual_upper_bound(inst, BudgetObjective(tables)).split
        caps = inst.p_max_carrier
        assert jspa._breakpoint_root(v, inst.p_max, caps)[0] <= 0.0
        with count_ops() as counter:
            out = project_simplex(v, inst.p_max, caps)
        assert counter.total <= 12 * jspa._C_PROJ * v.size
        lam = bit_bisection_multiplier(v, inst.p_max, caps)
        assert jspa._budget_multiplier(v, inst.p_max, caps) == lam
        assert np.array_equal(out, np.minimum(np.maximum(v - lam, 0.0), caps))

    def test_rounding_overspend_matches_the_bit_bisection(self):
        # clipped sums on every draw: the root lands at or below 0 (79 draws),
        # a few ulps above it (208: these took 51 to 61 before they galloped
        # from 0 too) or, where g is flat at p_max from 0 up to a kink, far
        # above rounding of 0 (9)
        sums = []
        for v, p_max, caps in rounding_overspend_cases():
            with count_ops() as counter:
                lam = jspa._budget_multiplier(v, p_max, caps)
            assert lam == bit_bisection_multiplier(v, p_max, caps)
            sums.append(counter.total / (jspa._C_PROJ * v.size))
        # 296 draws, a median of 11 sums and at most 21
        assert len(sums) >= 280 and np.median(sums) <= 14 and max(sums) <= 24

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

    def test_step_along_the_arc_never_shrinks_and_ascends(self):
        # the premises of grad's arc halving: ||P(p + alpha g) - p|| is
        # non-decreasing in alpha, and g.(q - p) >= ||q - p||^2 / alpha
        rng = np.random.default_rng(5)
        alphas = np.geomspace(1e-6, 1e2, 60)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            caps = rng.uniform(0.5, 3.0, size)
            p_max = float(rng.uniform(0.5, caps.sum() * 1.2))
            p = project_simplex(rng.uniform(-1.0, 3.0, size), p_max, caps)
            g = rng.normal(0.0, 2.0, size)
            steps, gains = [], []
            for alpha in alphas:
                q = project_simplex(p + alpha * g, p_max, caps)
                steps.append(np.linalg.norm(q - p))
                gains.append(float(g @ (q - p)) - steps[-1] ** 2 / alpha)
            assert np.all(np.diff(steps) >= -1e-12 * max(1.0, p_max))
            assert min(gains) >= -1e-9 * max(1.0, p_max)


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
        # from its dual start this instance takes 3 iterations of the arc
        # halving at xi = 1e-12
        inst = small_instance(6, users=5, carriers=4, max_mux=2)
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
        # recorded with F_n valued by the pinned-block kernel, the start at
        # the continuous dual split and Brent's line search, which the arc
        # halving matches here bit for bit
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        sol = grad_jspa(inst, tables, 1e-4)
        assert sol.wsr.hex() == "0x1.8df3bab5cdd69p+24"
        assert (sol.iterations, sol.converged) == (1, True)
        assert sol.budgets.tobytes().hex() == (
            "66f28756a5d1f13fd80b4a0dc2dbf53ff9bba34eec40f63fec510e20aa12f53f"
            "fd55717167b8f33fa4b3c6380080f43f25d45e81c24df43f1e16e501d878f03f")

    def test_each_accepted_step_is_projected_once(self, monkeypatch):
        # grad projects its start and each trial once, and values the start
        # and each trial that moves p by more than xi once: every projected
        # point but the last trial, in order. Replaying the valued trials
        # against history shows each of them moved p by more than xi and
        # that the last one is within xi of the budgets returned.
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        real_project, real_value = jspa.project_simplex, BudgetObjective.value
        points, valued = [], []

        def recording(v, p_max, caps):
            points.append(real_project(v, p_max, caps))
            return points[-1]

        def valuing(objective, budgets):
            valued.append((budgets.copy(), real_value(objective, budgets)))
            return valued[-1][1]

        xi = 1e-4
        for start in ("dual", "zero"):
            with monkeypatch.context() as m:
                if start == "zero":
                    zero_start(m)
                m.setattr(jspa, "project_simplex", recording)
                m.setattr(BudgetObjective, "value", valuing)
                points.clear()
                valued.clear()
                sol = grad_jspa(inst, tables, xi)
            assert sol.converged
            assert len(valued) == len(points) - 1
            assert all(np.array_equal(q, b) for q, (b, _) in zip(points, valued))
            p, accepted = points[0], 0
            for q, val in valued[1:]:
                assert np.linalg.norm(q - p) > xi
                if val == sol.history[accepted + 1]:
                    p, accepted = q, accepted + 1
            assert np.linalg.norm(points[-1] - p) <= xi
            assert np.array_equal(sol.budgets, p)
            assert accepted == sol.iterations - 1
            assert accepted >= (1 if start == "zero" else 0)

    @pytest.mark.parametrize("start", ["dual", "zero"])
    @pytest.mark.parametrize("xi", [1e-300, 5e-324])
    def test_ends_converged_at_a_subnormal_tolerance(self, monkeypatch, xi, start):
        # each iteration tries at most about log2(p_max / xi) steps plus the
        # few dozen halvings before alpha * g stops moving p in floats
        if start == "zero":
            zero_start(monkeypatch)
        real_project = jspa.project_simplex
        projections = []

        def counting(v, p_max, caps):
            projections.append(None)
            return real_project(v, p_max, caps)

        monkeypatch.setattr(jspa, "project_simplex", counting)
        for seed, carriers in ((42, 8), (6, 4)):
            inst = small_instance(seed, users=5, carriers=carriers, max_mux=2)
            _, tables = make_tables(inst, 2)
            projections.clear()
            sol = grad_jspa(inst, tables, xi)
            assert sol.converged
            trials = math.log2(inst.p_max) - math.log2(xi) + 64
            assert len(projections) <= 1 + sol.iterations * trials
            assert budget_feasible(inst, sol.budgets)

    @pytest.mark.parametrize("mux", [1, 2, 3])
    def test_zero_start_ascends_to_the_optimum(self, monkeypatch, mux):
        # the dual start almost never accepts a step; from zero every
        # iteration but the last does, each gaining value, and the ascent
        # ends within criterion 07's mean loss bound of opt
        zero_start(monkeypatch)
        cfg = SystemConfig(users=10, subcarriers=20, max_mux=3)
        for seed in (0, 1):
            inst = generate_instance(cfg, seed)
            _, tables = make_tables(inst, mux)
            sol = grad_jspa(inst, tables, 1e-4)
            hist = np.asarray(sol.history)
            assert sol.converged and sol.iterations > 1
            assert len(hist) == sol.iterations + 1
            assert np.all(np.diff(hist[:-1]) > 0.0) and hist[-1] == hist[-2]
            opt = opt_jspa(inst, tables).wsr
            assert (opt - sol.wsr) / opt <= 1e-3

    def test_zero_gradient_ends_at_the_start(self, monkeypatch):
        # alpha = 0 tries P(p) itself, which is p bit for bit: the projection
        # returns points whose computed sum refits the budget
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        start = grad_jspa(inst, tables, 1e-4)
        monkeypatch.setattr(BudgetObjective, "derivatives",
                            lambda objective, budgets: np.zeros_like(budgets))
        sol = grad_jspa(inst, tables, 5e-324)
        assert (sol.iterations, sol.converged) == (1, True)
        assert np.array_equal(sol.budgets, start.budgets)
        assert sol.history == [start.wsr, start.wsr]

    def test_rejects_bad_tolerance(self):
        inst = small_instance(6, users=2, carriers=2, max_mux=1)
        _, tables = make_tables(inst, 1)
        for xi in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(ValueError, match="xi must be positive and finite"):
                grad_jspa(inst, tables, xi)


def zero_start(monkeypatch):
    """Start grad from the zero split instead of the continuous dual one."""
    monkeypatch.setattr(jspa, "dual_upper_bound",
                        lambda inst, objective: jspa.DualBound(
                            0.0, 0.0, np.zeros(inst.n_carriers)))


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

    def test_one_carrier_grid_read_memory_is_bounded(self):
        # J = 10^6 on one subcarrier: the table is 8 MB, and a lookup
        # scratch sized by the grid, (E, J + 1) ints or pins, takes 30-240 MB
        J = 10 ** 6
        inst = generate_instance(SystemConfig(users=10, subcarriers=1, max_mux=3,
                                              delta_w=10 / J), 3)
        _, tables = make_tables(inst)
        objective = BudgetObjective(tables)
        tracemalloc.start()
        try:
            profits = build_knapsack(inst, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profits.shape == (1, J + 1)
        # the table, its grid and one read block's scratch: about 17 MB
        assert peak < 3 * profits.nbytes

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
        # fine_grid shape: K = 5, N = 20, J = 4000
        inst = generate_instance(SystemConfig(users=5, max_mux=2, delta_w=0.0025), 71004)
        _, tables = make_tables(inst)
        assert inst.n_power_levels == 4000
        # the first np.unique of a process imports numpy.ma, about 1.1 MB,
        # which is no part of a solve: pay it before tracing
        np.unique(np.zeros(1))
        tracemalloc.start()
        try:
            sol = opt_jspa(inst, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.wsr > 0 and budget_feasible(inst, sol.budgets)
        # the peak, about 0.17 MB (tracemalloc), is the stack, its blocks and
        # the first class's column test over J + 1 levels; the (N, J + 1)
        # profit table alone would take 0.64 MB, and a full DP table of one
        # class (J + 1)^2 floats, 128 MB
        assert peak < 1e6

    def test_one_carrier_solve_memory_is_bounded(self):
        # N = 1, J = 10^6: the columns live before class 0 start at the lowest
        # the backtrack reads, 0 here, and only column 0 is live; a bound
        # tested at every level would hold (J + 1) ints and floats, about 24 MB
        J = 10 ** 6
        inst = generate_instance(SystemConfig(users=10, subcarriers=1, max_mux=3,
                                              delta_w=10 / J), 3)
        _, tables = make_tables(inst)
        assert inst.n_power_levels == J
        np.unique(np.zeros(1))  # numpy.ma's import, as in the fine_grid test
        tracemalloc.start()
        try:
            sol = opt_jspa(inst, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.wsr > 0 and budget_feasible(inst, sol.budgets)
        # about 0.06 MB (tracemalloc), the stack included
        assert peak < 1e6

    def test_never_builds_the_profit_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("opt built the (N, J + 1) profit table")

        inst = generate_instance(SystemConfig(users=5, max_mux=2), 41)
        _, tables = make_tables(inst)
        profits = build_knapsack(inst, BudgetObjective(tables))
        expect = table_units(profits, class_unit_caps(inst)) * inst.delta
        monkeypatch.setattr(jspa, "build_knapsack", no_table)
        monkeypatch.setattr(jspa, "_grid", no_table)
        assert np.array_equal(opt_jspa(inst, tables).budgets, expect)

    def test_too_fine_a_grid_is_refused_before_it_is_built(self, monkeypatch):
        # p_max / delta = 1e9 levels: the 2 x (1e9 + 1) profits would take 16 GB
        def no_grid(levels, delta):
            raise AssertionError(f"opt built a grid of {levels + 1} levels")

        monkeypatch.setattr(jspa, "_grid", no_grid)
        inst = generate_instance(SystemConfig(users=2, subcarriers=2, max_mux=1, delta_w=1e-8), 0)
        objective = BudgetObjective(make_tables(inst)[1])
        with pytest.raises(ValueError, match=r"^delta = 1e-08 gives opt a 2 x "):
            build_knapsack(inst, objective)
        with pytest.raises(ValueError, match=r"^delta = 1e-08 gives opt a 2 x "):
            opt_jspa(inst, make_tables(inst)[1])


class TestGridUnits:
    """opt's DP by weights, class by class, on hand-built profits, held to the full DP."""

    def test_exactly_linear_classes_tie_at_their_multiplier(self):
        # every gain is exactly 3, so lam = 3 and every split ties in the bound
        cn = 3.0 * LEVELS
        assert knapsack_multiplier(np.stack([cn, cn]), np.array([200, 200]))[0] == 3.0
        assert_relaxes_like_oracle(np.stack([2.0 * np.sqrt(LEVELS), cn, cn]), [200] * 3)

    def test_identical_classes_tie_exactly(self):
        cn = 1e6 * np.log2(1.0 + LEVELS / 7.0)
        assert_relaxes_like_oracle(np.stack([cn, cn, cn]), [200, 200, 200])

    def test_noisy_class_matches_the_full_dp(self):
        # near-linear, so rounding makes its gains a random walk around 1.4e-3
        cn = 1e6 * np.log2(1.0 + 1e-9 * LEVELS)
        assert not np.all(np.diff(cn, 2) <= 0.0)
        assert_relaxes_like_oracle(np.stack([np.sqrt(LEVELS), cn, cn]), [200] * 3)

    @pytest.mark.parametrize("lmax", [0, 1, 5])
    def test_cap_below_the_grid(self, lmax):
        cn = 1e6 * np.log2(1.0 + LEVELS / 3.0)
        caps = [lmax, 200, lmax]
        assert_relaxes_like_oracle(np.stack([cn, np.sqrt(LEVELS), cn]), caps)

    def test_overspending_multiplier_fathoms_nothing(self):
        # at lam = 0 every class takes its top item, 600 units past J = 200
        cn = 1e6 * np.log2(1.0 + LEVELS / 3.0)
        profits = np.stack([cn, cn, cn])
        caps = np.array([200, 200, 200])
        assert table_incumbent(profits, caps, lagrangian_split(profits, caps, 0.0)[0]) == -math.inf
        assert_relaxes_like_oracle(profits, caps, ("lam_0",))


class TestRelaxClass:
    """What relaxing one class costs `jspa._relax`: the cells it values, the memory it
    holds and the live columns and kept items it is handed."""

    @staticmethod
    def cells(monkeypatch):
        """Per class, the cells `jspa._relax` values, each tallied at _C_KNAP_W."""
        calls = []
        relax = jspa._relax

        def recorded(ks, bk, js, cj, r0, r1):
            calls.append(relax_cells(ks, js, r0, r1))
            with count_ops() as ops:
                out = relax(ks, bk, js, cj, r0, r1)
            assert ops.total == calls[-1] * jspa._C_KNAP_W
            return out

        monkeypatch.setattr(jspa, "_relax", recorded)
        return calls

    def test_flat_class_scans_every_level(self, monkeypatch):
        # all ties: every item is kept and no column is fathomed, so the first
        # class values its whole band
        cells = self.cells(monkeypatch)
        assert_relaxes_like_oracle(np.zeros((2, 501)), [500, 500], ("default", "lam_0"))
        assert cells == [band_cells(500, 500), 501] * 2

    def test_flat_class_memory_is_bounded(self):
        # J = 4000 flat levels keep every item and leave every column live; each
        # numpy pass holds a few rows of J + 1 cells, where the whole band
        # would take 64 MB of floats
        profits = np.zeros((2, 4001))
        tracemalloc.start()
        try:
            units = fixed_units(profits, [4000, 4000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not units.any()
        assert peak < 2e6

    def test_small_grid_cells_per_class(self, monkeypatch):
        cn = 1e6 * np.log2(1.0 + LEVELS[:41] / 7.0)
        monkeypatch.setattr(jspa, "_MARGIN", math.inf)
        cells = self.cells(monkeypatch)
        profits = np.stack([np.sqrt(LEVELS[:41]), cn, cn])
        units = fixed_units(profits, [40, 40, 40])
        assert np.array_equal(units, full_dp_units(profits, [40, 40, 40]))
        # every item kept and every column live: two whole bands, then row 40 alone
        assert cells == [band_cells(40, 40)] * 2 + [41]

    def test_live_columns_are_few_on_a_desk_instance(self, monkeypatch):
        inst = generate_instance(SystemConfig(users=10), 41)
        _, tables = make_tables(inst, 2)
        profits = build_knapsack(inst, BudgetObjective(tables))
        caps = class_unit_caps(inst)
        sizes = []
        relax = jspa._relax

        def recorded(ks, bk, js, cj, r0, r1):
            sizes.append((len(ks), len(js)))
            return relax(ks, bk, js, cj, r0, r1)

        monkeypatch.setattr(jspa, "_relax", recorded)
        units = opt_jspa(inst, tables).budgets / inst.delta
        assert np.array_equal(units, full_dp_units(profits, caps))
        live, kept = np.array(sizes).T
        assert len(sizes) == inst.n_carriers and live.max() <= 32 and kept.max() <= 4

    # the workload shapes at seed 41: desk (K x M, N = 20, J = 1000), fine_grid
    # (K 5, M 2, J = 4000) and many_users (K 40, M 3, J = 200)
    SHAPES = ([pytest.param({"users": k}, m, id=f"desk-K{k}-M{m}")
               for k in (5, 10, 20) for m in (1, 2, 3)]
              + [pytest.param({"users": 5, "max_mux": 2, "delta_w": 0.0025}, 2, id="fine_grid"),
                 pytest.param({"users": 40, "max_mux": 3, "delta_w": 0.05}, 3, id="many_users")])

    @pytest.mark.parametrize("system, max_active", SHAPES)
    def test_workload_shapes_relax_in_python_floats(self, monkeypatch, system, max_active):
        # every class keeps few items over few live columns, so none takes a
        # numpy pass: at most 26 cells, and 13 per item, in any class here
        # and at seeds 42 to 48, against _PASS_CELLS = 32
        inst = generate_instance(SystemConfig(**system), 41)
        _, tables = make_tables(inst, max_active)
        sizes, passes = [], []
        relax, relax_passes = jspa._relax, jspa._relax_passes

        def recorded(ks, bk, js, cj, r0, r1):
            sizes.append((len(ks), len(js)))
            return relax(ks, bk, js, cj, r0, r1)

        def counted(*args):
            passes.append(args)
            return relax_passes(*args)

        monkeypatch.setattr(jspa, "_relax", recorded)
        monkeypatch.setattr(jspa, "_relax_passes", counted)
        opt_jspa(inst, tables)
        live, kept = np.array(sizes).T
        assert len(sizes) == inst.n_carriers and live.max() <= 32 and kept.max() <= 4
        assert not passes

    def test_flat_class_takes_the_numpy_passes(self, monkeypatch):
        # the flat J = 4000 class of test_flat_class_memory_is_bounded: its
        # first class values about J / 2 cells per item, its last one row
        calls = []
        relax_passes = jspa._relax_passes

        def counted(ks, bk, spans, r0, r1):
            calls.append(len(spans))
            return relax_passes(ks, bk, spans, r0, r1)

        monkeypatch.setattr(jspa, "_relax_passes", counted)
        assert not fixed_units(np.zeros((2, 4001)), [4000, 4000]).any()
        assert calls == [4001]


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

    def test_size_guard_counts_huge_grids_exactly(self):
        # (1e18 + 1)^20 vectors: counting them as a float power raised OverflowError
        inst = generate_instance(SystemConfig(users=2, subcarriers=20, max_mux=1,
                                              delta_w=1e-17), 0)
        with pytest.raises(ValueError, match=r"^brute force would enumerate"):
            brute_force_jspa(inst, [])
        check_brute_force(BRUTE_FORCE_LIMIT - 1, 1, "brute force")
        with pytest.raises(ValueError, match=r"^step would enumerate \(10000001\)\^1 "):
            check_brute_force(BRUTE_FORCE_LIMIT, 1, "step")
        # a grid of one level has one vector, however many carriers
        check_brute_force(0, 10 ** 6, "brute force")


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

    def test_hull_pops_the_points_on_or_below_the_frontier(self):
        # (2, 2.5) lies below the chord from (1, 2) to (3, 4); (2, 1.5) lies
        # below the one from (1, 1) to (3, 3), and (1, 1) on the one from (0, 0)
        w = np.array([1.0, 2.0, 3.0])
        assert jspa._hull_increments(w, np.array([2.0, 2.5, 4.0])) == [(1.0, 2.0), (2.0, 2.0)]
        assert jspa._hull_increments(w, np.array([1.0, 1.5, 3.0])) == [(3.0, 3.0)]

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


class TestDualUpperBound:
    def test_caps_that_fit_the_budget_give_lam_zero(self):
        inst = generate_instance(SystemConfig(users=4, subcarriers=4, max_mux=2,
                                              p_max_carrier_w=2.5), 3)
        _, tables = make_tables(inst)
        bound = dual_upper_bound(inst, BudgetObjective(tables))
        caps = inst.p_max_carrier
        assert bound.lam == 0.0 and np.array_equal(bound.split, caps)
        assert bound.upper == float(best_values(stack_candidates(tables), caps[:, None]).sum())

    def test_no_sampled_lam_lowers_the_bound(self):
        # the search stops once no lam lowers UB by more than (N + 1) ulps
        inst = small_instance(42, users=6, carriers=8, max_mux=3)
        _, tables = make_tables(inst)
        bound = dual_upper_bound(inst, BudgetObjective(tables))
        assert opt_jspa(inst, tables).wsr <= bound.upper
        maxima = lagrangian_maxima(stack_candidates(tables), inst.p_max_carrier)
        tol = 9 * np.finfo(float).eps * bound.upper
        for lam in bound.lam * np.concatenate((np.linspace(0.0, 2.0, 41),
                                               1.0 + np.linspace(-1e-6, 1e-6, 41))):
            phi, _ = maxima(lam)
            assert lam * inst.p_max + float(phi.sum()) >= bound.upper - tol

    def test_split_is_the_continuous_optimum_on_a_desk_instance(self):
        # grad from the split takes one step, which moves it by at most xi
        inst = generate_instance(SystemConfig(users=10, max_mux=3), 7)
        _, tables = make_tables(inst)
        bound = dual_upper_bound(inst, BudgetObjective(tables))
        assert abs(float(bound.split.sum()) - inst.p_max) <= 1e-9 * inst.p_max
        sol = grad_jspa(inst, tables, 1e-4)
        assert (sol.iterations, sol.converged) == (1, True)
        assert np.linalg.norm(sol.budgets - bound.split) <= 1e-4
        assert sol.wsr <= bound.upper * (1 + jspa._MARGIN)
        assert sol.wsr <= sol.upper


def tiny_grid_cases():
    """Tiny grids brute force enumerates: K = 1, M = K, tied weights, binding caps, J < N."""
    yield small_instance(81, users=1, carriers=3, max_mux=1, levels=10)
    yield small_instance(82, users=3, carriers=3, max_mux=3, levels=10)
    inst = small_instance(83, users=3, carriers=2, max_mux=2, levels=12)
    yield Instance(weights=np.full(3, inst.weights[0]), bandwidths=inst.bandwidths,
                   gains=inst.gains, noise=inst.noise, p_max=inst.p_max,
                   p_max_carrier=inst.p_max_carrier, delta=inst.delta, max_mux=inst.max_mux)
    for cap in (2.5, 6.0):  # caps that fit p_max (lam = 0), and caps that bind beside it
        yield generate_instance(SystemConfig(users=3, subcarriers=3, max_mux=2,
                                             p_max_carrier_w=cap, delta_w=0.5), 84)
    yield small_instance(85, users=2, carriers=4, max_mux=1, levels=2)


class TestCertificate:
    """Every solution carries the upper bound its solve certified (`jspa._certificate`)."""

    @pytest.mark.parametrize("inst", list(tiny_grid_cases()),
                             ids=["k1", "m_eq_k", "tied_weights", "caps_fit", "caps_bind",
                                  "j_below_n"])
    def test_upper_bounds_the_grid_optimum_and_every_solver(self, inst):
        _, tables = make_tables(inst)
        cert = jspa._certificate(inst, BudgetObjective(tables))
        brute = brute_force_jspa(inst, tables)
        sols = (opt_jspa(inst, tables), grad_jspa(inst, tables, 1e-4),
                eps_jspa(inst, tables, 0.1), brute)
        assert brute.wsr <= sols[0].upper
        for sol in sols:
            assert sol.upper == cert.upper and sol.wsr <= sol.upper
        assert cert.dual.upper < cert.upper < math.inf

    def test_log_size_is_computed_once_per_solve(self, monkeypatch):
        # opt takes the margin twice, at the dual's lam and at its own price
        # (they differ where the dual's lam is 0, as on `fit`), from one pass
        calls = []
        prop = BudgetObjective.__dict__["log_size"]
        size = prop.func

        def counting(objective):
            calls.append(objective)
            return size(objective)

        monkeypatch.setattr(prop, "func", counting)
        fit = generate_instance(SystemConfig(users=4, subcarriers=4, max_mux=2,
                                             p_max_carrier_w=2.5), 3)
        for inst in (fit, small_instance(42, users=6, carriers=8, max_mux=3)):
            _, tables = make_tables(inst)
            for solve in (opt_jspa, lambda *a: grad_jspa(*a, 1e-4), lambda *a: eps_jspa(*a, 0.1)):
                calls.clear()
                solve(inst, tables)
                assert len(calls) == 1


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
        objective = BudgetObjective(tables)
        top = fn_value_many(tables[0], [inst.n_power_levels * inst.delta])[0]
        huge = top * 16.0 * inst.n_carriers  # first threshold lands above every top
        for ls, profits in eps_select_items(inst, objective, (huge / 4.0, huge), 1.0):
            assert ls.size == 0 and profits.size == 0

    def test_empty_on_nonpositive_estimate(self, monkeypatch):
        inst = small_instance(51, users=3, carriers=2, max_mux=2)
        _, tables = make_tables(inst, 2)
        zero = np.zeros(inst.n_carriers, dtype=np.int64)
        monkeypatch.setattr(jspa, "eps_bracket", lambda *args: jspa.Bracket(0.0, 0.0, zero))
        for sol in (eps_jspa(inst, tables, 0.5), eps_dp(inst, tables, 0.5, (0.0, 0.0))):
            assert np.array_equal(sol.budgets, np.zeros(inst.n_carriers)) and sol.wsr == 0.0

    def test_linear_profits_hit_threshold_multiples(self):
        # synthetic profits c_l = l on a grid of 100 levels, 2 l on a second class
        linear = lambda ls: ls.astype(float)

        def one_class(lmax, targets):
            return selected(np.array([lmax]), targets, linear)[0][0].tolist()

        step = 5
        assert one_class(100, np.arange(1, 9) * float(step)) == [step * k for k in range(1, 9)]
        # finer thresholds: crossings are exact ceilings
        fine_step = 1.25
        expect = sorted({math.ceil(k * fine_step) for k in range(1, 33)})
        assert one_class(100, np.arange(1, 33) * fine_step) == expect
        # thresholds past the top profit have no item, and nothing is left at lmax = 0
        assert one_class(100, np.array([50.0, 100.0, 101.0])) == [50, 100]
        assert one_class(0, np.array([0.0])) == []
        # classes are searched together, each on its own row and cap
        picked = selected(np.array([100, 0, 50]), np.array([20.0, 70.0, 101.0]),
                          lambda ls: ls * np.array([[1.0], [1.0], [2.0]]))
        assert [ls.tolist() for ls, _ in picked] == [[20, 70], [], [10, 35]]
        assert [profits.tolist() for _, profits in picked] == [[20.0, 70.0], [], [20.0, 70.0]]

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            inst = small_instance(seed + 600, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            objective = BudgetObjective(tables)
            bracket = own_bracket(inst, tables)
            eps = float(rng.choice([0.5, 0.2, 0.1]))
            targets = eps_targets(inst, bracket, eps)
            picked = eps_select_items(inst, objective, bracket, eps)
            for n, (ls, _) in enumerate(picked):
                levels = int(class_unit_caps(inst)[n])
                row = fn_value_many(tables[n], np.arange(levels + 1) * inst.delta)
                assert ls.tolist() == full_scan_select_items(row, levels, targets)

    def test_eval_budget_respected(self):
        inst = small_instance(53, users=4, carriers=2, max_mux=2, levels=512)
        _, tables = make_tables(inst, 2)
        objective = BudgetObjective(tables)
        bracket = own_bracket(inst, tables)
        calls = []
        profit = stacked_profit(objective, inst.delta)

        def counting(ls):
            calls.append(ls.copy())
            return profit(ls)

        eps = 0.25
        caps = class_unit_caps(inst)
        picked = selected(caps, eps_targets(inst, bracket, eps), counting)
        assert len(calls) <= select_rounds_bound(inst)
        # one stacked read per round, each row non-decreasing and within its cap
        for ls in calls:
            assert ls.shape[0] == inst.n_carriers and np.all(np.diff(ls, axis=1) >= 0)
            assert np.all((ls >= 1) & (ls <= caps[:, None]))
        for n, (ls, profits) in enumerate(picked):
            scalar = lambda l: float(fn_value_many(tables[n], np.array([l * inst.delta]))[0])
            expect = carried_lo_select_items(int(caps[n]), eps_targets(inst, bracket, eps), scalar)
            assert ls.tolist() == expect
            assert np.array_equal(profits, fn_value_many(tables[n], ls * inst.delta))

    def test_matches_carried_lo_oracle(self):
        for seed in range(6):
            inst = small_instance(seed + 650, users=4, carriers=3, max_mux=2, levels=300)
            _, tables = make_tables(inst, 2)
            objective = BudgetObjective(tables)
            bracket = own_bracket(inst, tables)
            rows = class_rows(inst, objective)
            for eps in (0.5, 0.1, 0.05):
                assert_selects_like_oracles(class_unit_caps(inst), eps_targets(inst, bracket, eps),
                                            stacked_profit(objective, inst.delta), rows)


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

    def test_an_overspending_floored_split_is_no_incumbent(self):
        # floored, the split takes 6 units where the grid has 3: its value is
        # -inf, which fathoms nothing, and nothing of the objective is read
        grid = types.SimpleNamespace(n_power_levels=3, delta=1.0, p_max=10.0)
        value, units = jspa._grid_incumbent(grid, None, np.array([3.0, 3.0]), np.array([5, 5]))
        assert value == -math.inf and units.tolist() == [3, 3]

    def test_best_class_alone_stands_in_for_a_failed_incumbent(self, monkeypatch):
        # with no feasible grid split from the dual, the bracket's lower end is
        # the best class alone at its cap, and eps keeps its guarantee
        cases = []
        for seed in range(4):
            inst = small_instance(seed + 700, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            cases.append((inst, tables, opt_jspa(inst, tables).wsr))
        monkeypatch.setattr(jspa, "_grid_incumbent",
                            lambda instance, objective, split, lmax: (-math.inf, 0 * lmax))
        for inst, tables, opt in cases:
            lower, _, units = own_bracket(inst, tables)
            lmax = class_unit_caps(inst)
            best = int(np.argmax(units))
            assert np.count_nonzero(units) == 1 and units[best] == lmax[best]
            assert lower == fn_value_many(tables[best], [lmax[best] * inst.delta])[0]
            for eps in (0.5, 0.1):
                sol = eps_jspa(inst, tables, eps)
                assert budget_feasible(inst, sol.budgets)
                assert sol.wsr >= (1 - eps) * opt * (1 - 1e-12)

    def test_fine_epsilon_recovers_exact_optimum(self):
        for seed in range(6):
            inst = small_instance(seed, users=3, carriers=2, max_mux=2)
            _, tables = make_tables(inst, 2)
            assert eps_jspa(inst, tables, 1e-4).wsr == opt_jspa(inst, tables).wsr

    def test_single_class_returns_best_selected_item(self):
        inst = small_instance(71, users=3, carriers=1, max_mux=2)
        _, tables = make_tables(inst, 2)
        bracket = own_bracket(inst, tables)
        objective = BudgetObjective(tables)
        for eps in (0.7, 0.3, 0.05):
            [(_, profits)] = eps_select_items(inst, objective, bracket, eps)
            assert eps_dp(inst, tables, eps, bracket).wsr == pytest.approx(profits.max(),
                                                                          rel=1e-12)

    # (users, max_mux, delta_w, eps) of every workload shape: desk K x M, fine_grid, many_users
    WORKLOAD_SHAPES = ([(k, m, 0.01, 0.1) for k in (5, 10, 20) for m in (1, 2, 3)]
                       + [(5, 2, 0.0025, 0.05), (40, 3, 0.05, 0.1)])

    @pytest.mark.parametrize("users, max_mux, delta_w, eps", WORKLOAD_SHAPES)
    def test_stops_at_its_bracket_on_the_workload_shapes(self, monkeypatch, users, max_mux,
                                                         delta_w, eps):
        # the bracket's split proves (1 - eps) UB, so no item is selected
        inst = generate_instance(SystemConfig(users=users, max_mux=max_mux, delta_w=delta_w), 41)
        _, tables = make_tables(inst)
        bracket = own_bracket(inst, tables)
        selections = []
        monkeypatch.setattr(jspa, "select_items", lambda *args: selections.append(args))
        sol = eps_jspa(inst, tables, eps)
        assert not selections
        assert np.array_equal(sol.budgets, bracket.units * inst.delta)
        assert budget_feasible(inst, sol.budgets) and sol.wsr >= (1 - eps) * bracket.upper

    def test_wide_bracket_takes_the_dp(self, monkeypatch):
        # J = 40: these two desk draws bracket OPT only within 1.2e-3 and
        # 1.4e-3, so at eps = 1e-3 their split proves nothing and the DP runs
        dp, runs = jspa._eps_dp, []

        def counting(*args):
            runs.append(args)
            return dp(*args)

        monkeypatch.setattr(jspa, "_eps_dp", counting)
        for users, max_mux, seed in ((5, 1, 43), (10, 2, 44)):
            inst = generate_instance(SystemConfig(users=users, max_mux=max_mux, delta_w=0.25),
                                     seed)
            _, tables = make_tables(inst)
            lower, upper, _ = own_bracket(inst, tables)
            assert upper > lower / (1 - 1e-3)
            sol = eps_jspa(inst, tables, 1e-3)
            assert len(runs) == 1 and runs.pop()[4:] == (lower, upper, 1e-3)
            assert budget_feasible(inst, sol.budgets)
            assert sol.wsr >= (1 - 1e-3) * opt_jspa(inst, tables).wsr

    @staticmethod
    def grid_reads(monkeypatch, inst, tables):
        """eps's bracket, and the (N, L) grid indices of every F_n read its DP makes.

        The bracket is read beforehand, so its own F_n reads are not
        recorded; `eps_dp` reads the caps, then runs the DP.
        """
        bracket = own_bracket(inst, tables)
        real = jspa.best_values
        reads = []

        def values(cands, budgets):
            reads.append(np.rint(budgets / inst.delta).astype(np.int64))
            return real(cands, budgets)

        monkeypatch.setattr(jspa, "best_values", values)
        return bracket, reads

    def test_each_profit_is_looked_up_once(self, monkeypatch):
        inst = small_instance(72, users=4, carriers=3, max_mux=2, levels=200)
        _, tables = make_tables(inst, 2)
        bracket, reads = self.grid_reads(monkeypatch, inst, tables)
        sol = eps_dp(inst, tables, 0.1, bracket)
        assert np.count_nonzero(sol.budgets) > 0
        caps = class_unit_caps(inst)
        # every read is the threshold search's: eps reads each class's cap
        # for the bracket and round 0, and later rounds pad their rows with it
        assert len(reads) <= select_rounds_bound(inst)
        assert np.array_equal(reads[0], caps[:, None])
        lookups = [(n, l) for ls in reads[1:] for n, row in enumerate(ls.tolist())
                   for l in row if l != caps[n]]
        assert lookups and len(lookups) == len(set(lookups))

    def test_desk_solve_reads_in_few_stacked_rounds(self, monkeypatch):
        # desk shape: K = 10, N = 20, J = 1000, eps = 0.1; the whole grid is 20 * 1001 budgets
        inst = generate_instance(SystemConfig(users=10, max_mux=2), 5)
        _, tables = make_tables(inst)
        bracket, reads = self.grid_reads(monkeypatch, inst, tables)
        assert eps_dp(inst, tables, 0.1, bracket).wsr > 0
        assert 1 < len(reads) <= select_rounds_bound(inst)
        caps = class_unit_caps(inst)
        valued = [(n, l) for ls in reads for n, row in enumerate(ls.tolist())
                  for l in row if l != caps[n]]
        assert len(valued) == len(set(valued))
        # far fewer budgets than the whole grid
        assert sum(ls.size for ls in reads) < 0.2 * int((caps + 1).sum())

    def test_memory_does_not_grow_with_the_grid(self):
        # J = 10^7 levels: any per-class array sized by the grid would take 80 MB
        J = 10 ** 7
        inst = generate_instance(SystemConfig(users=5, subcarriers=8, max_mux=2,
                                              delta_w=10 / J), 3)
        _, tables = make_tables(inst)
        assert inst.n_power_levels == J
        bracket = own_bracket(inst, tables)
        # eps as it runs, which stops at its bracket's split here, and its DP
        for solve in (lambda: eps_jspa(inst, tables, 0.1),
                      lambda: eps_dp(inst, tables, 0.1, bracket)):
            tracemalloc.start()
            try:
                sol = solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sol.wsr > 0 and budget_feasible(inst, sol.budgets)
            assert peak < 4e6

    def test_tiny_epsilon_dp_memory_is_bounded(self):
        # eps = 2.5e-4 on 3 carriers: q_cap = 12000, and a class has over 800 items,
        # so one array of a class's candidate weights would take about 80 MB
        inst = generate_instance(SystemConfig(users=3, subcarriers=3, max_mux=2,
                                              delta_w=0.01), 4)
        _, tables = make_tables(inst)
        eps = 2.5e-4
        bracket = own_bracket(inst, tables)
        q_cap = target_count(inst, bracket, eps)
        items = max(ls.size for ls, _ in
                    eps_select_items(inst, BudgetObjective(tables), bracket, eps))
        assert items * (q_cap + 1) * 8 > 40e6
        tracemalloc.start()
        try:
            sol = eps_dp(inst, tables, eps, bracket)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.wsr >= (1 - eps) * opt_jspa(inst, tables).wsr * (1 - 1e-12)
        # three rows of q_cap + 1 weights and a mask, beside the (N, q_cap + 1)
        # choices
        assert peak < 4e6

    def test_upper_below_the_optimum_is_rejected(self, monkeypatch):
        inst = generate_instance(SystemConfig(users=5, subcarriers=4, delta_w=0.5), 3)
        _, tables = make_tables(inst, 2)
        lower, upper, _ = own_bracket(inst, tables)
        opt = opt_jspa(inst, tables).wsr
        # a bracket of 0.3 U used to return a third below opt, of 0.1 U to
        # fail inside numpy
        for share in (0.3, 0.1):
            with pytest.raises(ValueError, match="upper = .* class"):
                eps_dp(inst, tables, 0.1, (share * lower, share * upper))
        assert eps_dp(inst, tables, 0.1, (lower, 1.001 * opt)).wsr >= 0.9 * opt

    def test_bracket_wider_than_four_takes_the_estimate(self, monkeypatch):
        # a dual bound ten times too high leaves a certified bracket wider
        # than 4: eps then scales by the estimate's (U / 4, U), as the paper does
        inst = small_instance(74, users=4, carriers=3, max_mux=2, levels=200)
        _, tables = make_tables(inst, 2)
        certified = own_bracket(inst, tables)
        assert certified[1] <= certified[0] * (1 + 1e-4)
        real_dual, real_estimate = jspa.dual_upper_bound, jspa.estimate_upper_bound
        estimates = []

        def estimate(*args):
            estimates.append(real_estimate(*args))
            return estimates[-1]

        monkeypatch.setattr(jspa, "dual_upper_bound",
                            lambda *args: real_dual(*args)._replace(upper=10 * certified[1]))
        monkeypatch.setattr(jspa, "estimate_upper_bound", estimate)
        upper = estimate_upper_bound(inst, tables)
        assert own_bracket(inst, tables)[:2] == (upper / 4.0, upper)
        real_select, counts = jspa.select_items, []

        def select(lmax, targets, *args):
            counts.append(targets.size)
            return real_select(lmax, targets, *args)

        monkeypatch.setattr(jspa, "select_items", select)
        opt = opt_jspa(inst, tables).wsr
        for eps in (0.5, 0.1):
            sol = eps_jspa(inst, tables, eps)
            assert counts[-1] == math.floor(4 * inst.n_carriers / eps)
            assert sol.wsr >= (1 - eps) * opt * (1 - 1e-12)
        assert estimates == [upper] * 3

    @pytest.mark.parametrize("eps", [1e-12, 5e-324])
    def test_too_large_a_choice_table_is_refused_before_estimating(self, monkeypatch, eps):
        # 1e-12 used to ask numpy for 58 TiB of targets, 5e-324 to overflow int()
        def no_estimate(*args):
            raise AssertionError("eps estimated its bracket")

        monkeypatch.setattr(jspa, "eps_bracket", no_estimate)
        inst = small_instance(71, users=2, carriers=20, max_mux=1)
        _, tables = make_tables(inst, 1)
        with pytest.raises(ValueError, match=rf"^eps = {eps!r} gives eps a 20 x "):
            eps_jspa(inst, tables, eps)

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

    @pytest.mark.parametrize("p_max, xi, cap", [
        (8.0, 2.0 ** -10, 230),     # log2(2^13) = 13 exactly
        (10.0, 5e-324, 10880),      # 10 / 5e-324 overflows; log2(10) + 1074 = 1077.3
        (10.0, 20000.0, 1),         # log2(10 / 20000) = -10.97 gives 0: one iteration stays
        (10.0, 1e300, 1),
    ])
    def test_default_iteration_cap_values(self, p_max, xi, cap):
        from nomajspa.jspa import default_grad_iteration_cap
        assert default_grad_iteration_cap(p_max, xi) == cap

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
