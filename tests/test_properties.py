"""Property tests of the pinned-block F_n kernel over random and degenerate instances.

The decoding order, the stacked subcarrier views and every table's fields
must equal the one-subcarrier-at-a-time oracle's bit for bit. The batched
selection DP must fill every subcarrier's (m, j, i) tables and
backtrack every candidate bit for bit as the per-carrier oracle does, at the
full budget and in `scus` at any budget. The kernel (`pinned_values`) must
agree with the direct candidate form (`candidate_values`) at every budget,
keep the grid profits monotone, give the same values, columns and left
derivatives stacked as one subcarrier at a time, and leave the exact solvers' agreement intact.
The stack of each subcarrier's distinct candidates must answer every F_n
reader as the full stack of all K does, bit for bit, at 0, p_max, random
budgets and every candidate entry and its two float neighbours, read in one
block or in blocks of 7 budgets or of 1, and at several lam for the
Lagrangian maxima. The continuous dual's bound must hold
every solver's wsr up to rounding, every solution's own upper bound must
hold its wsr and lie within the rounding margin of that bound, and brute
force must stay at most opt's upper bound; each Lagrangian maximum must bound
F_n(b) - lam * b on a dense grid and be attained at its own b. eps's
batched item selection must pick, per class, what the one-threshold-at-a-time
search, a full scan and the whole grid's np.searchsorted pick, at the whole
grid's profits, on instances and on synthetic profit families (flat,
steps, a class with lmax = 0 and one with no reachable target); its DP by
profits, in whole or one-item chunks, what the index-array DP picks; and
eps must keep its (1 - eps) guarantee, and stay at most opt, whether it
returns its bracket's split or runs the DP. Gradient ascent must stay
feasible, report the wsr of its own columns, never lose along its history
and converge; from the zero split each accepted step must gain, at any xi.
opt's fathomed DP by weights, on a whole table and on the items
reduced-cost fixing keeps from it, must backtrack the units
of the per-level scan chained over every class, bit for bit, on grids of
up to 400 levels and on synthetic profit families (flat, exactly linear,
noisy, integer steps, kinked, concave, caps below the grid, J < N), as it
runs, at lam = 0 and with nothing fathomed; one class relaxed in plain
Python floats must give the numpy passes' rows, value bits and items, with
exact ties, gaps between live columns, one item, and windows that cut an
item's span. opt itself,
which never builds the table, must pick the table DP's units bit for bit,
also with nothing fathomed and with F_n read a budget at a time, on
instances biased toward J < N, caps that fit p_max and a dead channel; and
its grid block reads must put every grid index in one block per candidate,
reading F_n there bit for bit. The gathered Lagrangian blocks must answer as every
(n, e, l) cell does. Instances
cover K = 1, M = K, tied channels or weights, binding per-carrier caps and
30 dB shadowing; budgets cover 0, one grid step, the
cap, p_max and every candidate kink. The eps properties also draw 2-level grids over three
carriers, so J < N, and one checks both brackets: the estimate's U >= OPT >= U / 4, and
the one eps scales by, LB <= OPT <= UB <= 4 LB, so eps's T <= floor(4N/eps) targets.
"""

import bisect
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (batched_scus_dp, candidate_values, every_cell_lagrangian_maxima,
                      full_stack_candidates, per_carrier_backtrack, per_carrier_offset,
                      per_carrier_order, per_carrier_scus_dp, per_carrier_view, rel_err,
                      table_units)
from test_jspa import (assert_relaxes_like_oracle, assert_selects_like_oracles, class_rows,
                       eps_dp, eps_targets, index_array_eps_budgets, own_bracket,
                       stacked_profit, zero_start)
from nomajspa import jspa, single_carrier
from nomajspa.jspa import (BudgetObjective, brute_force_jspa, budget_feasible, build_knapsack,
                           class_unit_caps, dual_upper_bound, eps_jspa, estimate_upper_bound,
                           grad_jspa, opt_jspa)
from nomajspa.model import (Instance, SystemConfig, build_decoding_order, carrier_view,
                            carrier_views, generate_instance, wsr_from_x)
from nomajspa.single_carrier import (Candidates, best_columns, best_values, block_values,
                                     fn_value_many, grid_blocks, iscus_eval, iscus_precompute,
                                     lagrangian_maxima, left_derivatives, pinned_blocks,
                                     pinned_values, sc_value, scus, stack_candidates)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_carriers=3, levels=(4, 10, 20), min_carriers=1):
    users = draw(st.integers(1, 6))
    max_mux = draw(st.one_of(st.just(users), st.integers(1, users)))
    carriers = draw(st.integers(min_carriers, max_carriers))
    levels = draw(st.sampled_from(levels))
    # a cap under one grid step fails validation
    caps = [cap for cap in (0.0, 2.5, 6.0) if cap == 0.0 or cap >= 10.0 / levels]
    cfg = SystemConfig(users=users, subcarriers=carriers, max_mux=max_mux,
                       delta_w=10.0 / levels,
                       p_max_carrier_w=draw(st.sampled_from(caps)),
                       shadowing_std_db=draw(st.sampled_from([10.0, 30.0])))
    inst = generate_instance(cfg, draw(st.integers(0, 2 ** 16)))
    tie = draw(st.sampled_from(["none", "weights", "channels"]))
    if tie == "none":
        return inst
    weights, gains = inst.weights, inst.gains
    if tie == "weights":
        weights = np.full(users, weights[0])
    else:
        gains = np.broadcast_to(gains[:1], gains.shape)
    return Instance(weights=weights, bandwidths=inst.bandwidths, gains=gains,
                    noise=inst.noise, p_max=inst.p_max, p_max_carrier=inst.p_max_carrier,
                    delta=inst.delta, max_mux=inst.max_mux)


def tables_of(inst):
    order = build_decoding_order(inst)
    return [iscus_precompute(inst, order, n, inst.max_mux) for n in range(inst.n_carriers)]


def probe_budgets(inst, tables, n):
    """0, one grid step, the cap, p_max, every candidate kink, sorted."""
    fixed = [0.0, inst.delta, inst.p_max_carrier[n], inst.p_max]
    return np.unique(np.concatenate([fixed, tables[n].entry_x.ravel()]))


def magnitude(t):
    """Size of the log terms an F_n value sums; their rounding sets the tolerance."""
    logs = np.abs(np.log2(t.ep)) + np.abs(np.log2(t.p_max + t.ep))
    return abs(t.offset) + 2.0 * t.w_n * float(np.sum(t.wp * logs))


def same_bits(got, expect):
    got, expect = np.asarray(got), np.asarray(expect)
    return got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


@PROPERTY
@given(instances(), st.data())
def test_stacked_views_match_per_carrier_oracle(inst, data):
    K = inst.n_users
    m = data.draw(st.integers(1, K + 1), label="max_active")
    order = build_decoding_order(inst)
    oracle = per_carrier_order(inst)
    assert same_bits(order.pi, oracle.pi) and same_bits(order.inv, oracle.inv)
    views = carrier_views(inst, order)
    for n in range(inst.n_carriers):
        expect = per_carrier_view(inst, order, n) + (per_carrier_offset(inst, order, n),)
        t = iscus_precompute(inst, order, n, m)
        for got in (tuple(part[n] for part in views), carrier_view(inst, order, n),
                    (t.w_n, t.wp, t.ep, t.offset)):
            assert all(same_bits(a, b) for a, b in zip(got, expect, strict=True))
        _, xopt, take = per_carrier_scus_dp(inst, order, n, m, inst.p_max)
        entry_x = np.stack([per_carrier_backtrack(xopt, take, m, 0, e, K) for e in range(K)])
        assert same_bits(t.entry_x, entry_x)
        assert t.max_active == m and t.p_max == inst.p_max


@PROPERTY
@given(instances(), st.data())
def test_batched_selection_dp_matches_per_carrier_oracle(inst, data):
    K, N = inst.n_users, inst.n_carriers
    m = data.draw(st.integers(1, K + 1), label="max_active")
    order = build_decoding_order(inst)
    planes = batched_scus_dp(inst, order, m, inst.p_max)
    for n in range(N):
        oracle = per_carrier_scus_dp(inst, order, n, m, inst.p_max)
        for got, expect in zip(planes, oracle):
            assert np.array_equal(got[n], expect)
        _, xopt, take = oracle
        expect = np.stack([per_carrier_backtrack(xopt, take, m, 0, e, K) for e in range(K)])
        assert np.array_equal(iscus_precompute(inst, order, n, m).entry_x, expect)
    budgets = data.draw(st.lists(st.floats(0.0, inst.p_max), min_size=1, max_size=3),
                        label="budgets")
    n = data.draw(st.integers(0, N - 1), label="n")
    for b in budgets + [0.0, inst.p_max]:
        _, xopt, take = per_carrier_scus_dp(inst, order, n, m, b)
        assert np.array_equal(scus(inst, order, n, m, b),
                              per_carrier_backtrack(xopt, take, m, 0, 0, K))


@PROPERTY
@given(instances())
def test_kernel_matches_candidate_values(inst):
    tables = tables_of(inst)
    cands = stack_candidates(tables)
    for n, t in enumerate(tables):
        budgets = probe_budgets(inst, tables, n)
        # the stack holds the table's distinct rows, padded with its last one
        expect = candidate_values(t.w_n, t.wp, t.ep, t.offset, cands.entry_x[n, :, None, :],
                                  budgets[None, :])
        vals = pinned_values(Candidates(*(a[n:n + 1] for a in cands)), budgets[None, :])[0][0]
        assert np.abs(vals - expect).max() <= 1e-12 * magnitude(t)
        assert np.all(vals[:, budgets == 0.0] == 0.0)


@PROPERTY
@given(instances())
def test_grid_profits_are_non_decreasing(inst):
    profits = build_knapsack(inst, BudgetObjective(tables_of(inst)))
    assert np.all(np.diff(profits, axis=1) >= 0.0)
    assert np.all(profits[:, 0] == 0.0)


@PROPERTY
@given(instances(), st.integers(0, 2 ** 16))
def test_stacked_readers_are_bit_equal(inst, seed):
    tables = tables_of(inst)
    order = build_decoding_order(inst)
    objective = BudgetObjective(tables)
    rng = np.random.default_rng(seed)
    N = inst.n_carriers
    kinks = [probe_budgets(inst, tables, n) for n in range(N)]
    # one table's read is its row of the whole stack's, rows padded with their last kink
    width = max(k.size for k in kinks)
    stacked = best_values(objective.cands, np.stack([np.pad(k, (0, width - k.size), "edge")
                                                     for k in kinks]))
    for n, t in enumerate(tables):
        assert np.array_equal(fn_value_many(t, kinks[n]), stacked[n, :kinks[n].size])
    for _ in range(6):
        b = np.array([rng.choice(k[k <= inst.p_max_carrier[n]])
                      for n, k in enumerate(kinks)])
        expect = [left_derivatives(stack_candidates([t]), b[n:n + 1])
                  for n, t in enumerate(tables)]
        assert np.array_equal(objective.derivatives(b), np.concatenate(expect))
        for n, (t, bn) in enumerate(zip(tables, b)):
            x, val = iscus_eval(t, float(bn))
            one_x, one_val = BudgetObjective([t]).columns(b[n:n + 1])
            assert np.array_equal(x, one_x[:, 0]) and val == one_val
            # a zero budget is worth exactly 0, where sc_value keeps rounding residue
            assert abs(val - sc_value(inst, order, n, x)) <= 1e-9 * magnitude(t)


@settings(PROPERTY, max_examples=25)
@given(instances(), st.integers(0, 2 ** 16))
def test_distinct_candidates_answer_like_the_full_stack(inst, seed):
    tables = tables_of(inst)
    cands, oracle = stack_candidates(tables), full_stack_candidates(tables)
    N, K = inst.n_carriers, inst.n_users
    assert cands.entry_x.shape[1] <= K
    rng = np.random.default_rng(seed)
    entries = oracle.entry_x.ravel()
    budgets = np.unique(np.concatenate([
        [0.0, inst.p_max], rng.uniform(0.0, inst.p_max, 4),
        entries, np.nextafter(entries, -np.inf), np.nextafter(entries, np.inf)]))
    budgets = budgets[budgets >= 0.0]
    # sorted or shuffled, in one read block or in blocks of 7 budgets (one
    # row, seven columns) or of one
    for grid in (budgets, rng.permutation(budgets)):
        grid = np.broadcast_to(grid, (N, grid.size))
        expect = best_values(oracle, grid)
        assert same_bits(best_values(cands, grid), expect)
        for read_budgets in (1, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(single_carrier, "_READ_BUDGETS", read_budgets)
                assert same_bits(best_values(cands, grid), expect)
    for b in budgets:
        b = np.full(N, b)
        for got, expect in zip(best_columns(cands, b), best_columns(oracle, b), strict=True):
            assert same_bits(got, expect)
        assert same_bits(left_derivatives(cands, b), left_derivatives(oracle, b))
    # the gathered blocks answer as every (n, e, l) cell of either stack
    lam = dual_upper_bound(inst, BudgetObjective(tables)).lam
    maxima = lagrangian_maxima(pinned_blocks(cands), inst.p_max_carrier)
    for scale in (0.0, 0.5, 1.0, 2.0):
        got = maxima(scale * lam)
        for stack in (cands, oracle):
            expect = every_cell_lagrangian_maxima(stack, inst.p_max_carrier, scale * lam)
            for a, b in zip(got, expect, strict=True):
                assert same_bits(a, b)


@PROPERTY
@given(instances(max_carriers=2))
def test_opt_equals_brute_force(inst):
    tables = tables_of(inst)
    opt, brute = opt_jspa(inst, tables), brute_force_jspa(inst, tables)
    assert rel_err(opt.wsr, brute.wsr) <= 1e-12
    assert rel_err(opt.wsr, wsr_from_x(inst, build_decoding_order(inst), opt.x)) <= 1e-9
    assert brute.wsr <= opt.upper


@PROPERTY
@given(instances())
def test_grad_ascends_to_a_feasible_converged_split(inst):
    sol = grad_jspa(inst, tables_of(inst), 1e-4)
    assert budget_feasible(inst, sol.budgets)
    assert rel_err(sol.wsr, wsr_from_x(inst, build_decoding_order(inst), sol.x)) <= 1e-9
    assert np.all(np.diff(sol.history) >= 0.0)
    assert sol.converged


@PROPERTY
@given(instances(), st.sampled_from([1e-4, 1e-12, 5e-324]))
def test_grad_from_zero_gains_at_every_accepted_step(inst, xi):
    # from the zero split, where grad takes steps the dual start seldom
    # needs, each accepted step gains value, the budgets stay feasible and
    # the halving ends at any tolerance, a subnormal one included
    with pytest.MonkeyPatch.context() as m:
        zero_start(m)
        sol = grad_jspa(inst, tables_of(inst), xi)
    assert sol.converged
    assert budget_feasible(inst, sol.budgets)
    hist = np.asarray(sol.history)
    assert np.all(np.diff(hist[:-1]) > 0.0) and hist[-1] == hist[-2]

@settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)  # half draw J < N
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_lockstep_selection_and_eps_guarantee(inst):
    tables = tables_of(inst)
    objective = BudgetObjective(tables)
    upper = estimate_upper_bound(inst, tables, objective)
    opt = opt_jspa(inst, tables).wsr
    assert upper >= opt * (1 - 1e-12)
    assert opt >= upper / 4.0 * (1 - 1e-12)
    # eps's own bracket, up to the rounding of the log terms its sums add
    bracket = own_bracket(inst, tables)
    tol = jspa._MARGIN * sum(magnitude(t) for t in tables)
    assert bracket.lower <= opt + tol and opt <= bracket.upper <= 4.0 * bracket.lower
    rows = class_rows(inst, objective)
    counts = []  # each DP's T, the targets it hands select_items
    select = jspa.select_items

    def counting(lmax, targets, *args):
        counts.append(targets.size)
        return select(lmax, targets, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(jspa, "select_items", counting)
        for eps in (0.5, 0.1, 0.05):
            assert_selects_like_oracles(class_unit_caps(inst), eps_targets(inst, bracket, eps),
                                        stacked_profit(objective, inst.delta), rows)
            sol = eps_dp(inst, tables, eps, bracket)
            assert budget_feasible(inst, sol.budgets)
            assert sol.wsr >= (1 - eps) * opt * (1 - 1e-12)
            assert counts[-1] == eps_targets(inst, bracket, eps).size
            assert counts[-1] <= np.floor(4.0 * inst.n_carriers / eps)


@settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)  # half draw J < N
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_eps_meets_its_guarantee_on_either_path(inst):
    # eps returns its bracket's split where that proves the guarantee, else
    # runs the DP; either way (1 - eps) opt <= wsr <= opt, up to the rounding
    # of the log terms both sums add, and a stop proves (1 - eps) UB as well
    tables = tables_of(inst)
    opt = opt_jspa(inst, tables).wsr
    upper = own_bracket(inst, tables).upper
    tol = jspa._MARGIN * sum(magnitude(t) for t in tables)
    dp, runs = jspa._eps_dp, []

    def counting(*args):
        runs.append(args[-1])
        return dp(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(jspa, "_eps_dp", counting)
        for eps in (0.5, 0.1, 0.05, 1e-3):
            sol = eps_jspa(inst, tables, eps)
            assert budget_feasible(inst, sol.budgets)
            assert (1 - eps) * opt * (1 - 1e-12) <= sol.wsr <= opt + tol
            if eps not in runs:
                assert sol.wsr >= (1 - eps) * upper


@settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)  # half draw J < N
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_dual_bound_certifies_every_solver(inst):
    tables = tables_of(inst)
    bound = dual_upper_bound(inst, BudgetObjective(tables))
    assert bound.lam >= 0.0
    assert np.all((bound.split >= 0.0) & (bound.split <= inst.p_max_carrier))
    # UB >= every wsr up to the rounding of the log terms both sums add, so
    # the margin is relative to their size, as opt's _MARGIN is: a dual split
    # on the grid closes the gap, where UB has read 1.3e-15 relative below
    # opt, and at 30 dB shadowing the log terms can be 1e9 times the wsr
    scale = sum(magnitude(t) for t in tables)
    # each solution's own upper is one finite bound for every solver, eps's
    # DP path included, at least its wsr, and above UB by no more than the
    # margin's share of those terms and lam * p_max: a bound that is not vacuous
    slack = jspa._MARGIN * (scale + bound.lam * inst.p_max)
    sols = (opt_jspa(inst, tables), grad_jspa(inst, tables, 1e-4),
            eps_jspa(inst, tables, 0.1), eps_jspa(inst, tables, 1e-3))
    assert len({sol.upper for sol in sols}) == 1
    for sol in sols:
        assert sol.wsr <= bound.upper + jspa._MARGIN * scale
        assert math.isfinite(sol.upper) and sol.wsr <= sol.upper
        assert 0.0 <= sol.upper - bound.upper <= slack


@PROPERTY
@given(instances(), st.sampled_from([0.0, 0.1, 1.0, 10.0]))
def test_lagrangian_maxima_bound_a_dense_grid_and_are_attained(inst, scale):
    # lam is the dual search's, scaled; at 0 every b_n is its cap
    tables = tables_of(inst)
    cands = stack_candidates(tables)
    caps = inst.p_max_carrier
    lam = scale * dual_upper_bound(inst, BudgetObjective(tables)).lam
    phi, b = lagrangian_maxima(pinned_blocks(cands), caps)(lam)
    tol = 1e-12 * np.array([magnitude(t) for t in tables])
    # b_n(lam) attains phi_n(lam), valued as best_values values it
    assert np.all((b >= 0.0) & (b <= caps))
    assert np.all(np.abs(best_values(cands, b[:, None])[:, 0] - lam * b - phi) <= tol)
    # no budget of a dense grid up to each cap, its kinks included, beats phi
    grid = np.concatenate([np.linspace(0.0, 1.0, 4001)[None, :] * caps[:, None],
                           np.minimum(cands.entry_x.reshape(len(tables), -1), caps[:, None])],
                          axis=1)
    assert np.all(best_values(cands, grid) - lam * grid <= phi[:, None] + tol[:, None])


@contextmanager
def eps_forced(dp_cells: int):
    """Force the size of eps's DP chunks: dp_cells = 1 relaxes one item per chunk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jspa, "_DP_CELLS", dp_cells)
        yield


@PROPERTY
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_dp_by_profits_matches_index_array_dp(inst):
    tables = tables_of(inst)
    lower, upper, _ = own_bracket(inst, tables)
    for eps in (0.5, 0.1, 0.05):
        expect = index_array_eps_budgets(inst, tables, eps, lower, upper)
        # one item per chunk makes every class fold its chunks in turn
        for dp_cells in (jspa._DP_CELLS, 1):
            with eps_forced(dp_cells):
                budgets = eps_dp(inst, tables, eps, (lower, upper)).budgets
            assert np.array_equal(budgets, expect)


@PROPERTY
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_grid_blocks_read_every_grid_index_once_per_candidate(inst):
    # each grid index l in 1..lmax_n lies in one block of each stacked
    # candidate, and the best of those blocks' reads is F_n(l * delta), bit for bit
    objective = BudgetObjective(tables_of(inst))
    cands, lmax = objective.cands, class_unit_caps(inst)
    grid = grid_blocks(objective.blocks, cands.entry_x[:, 0, 0], lmax, inst.delta)
    profits = build_knapsack(inst, objective)
    for n in range(inst.n_carriers):
        ls = np.arange(1, lmax[n] + 1)
        mine = np.flatnonzero(grid.carrier == n)
        inside = (grid.lo[mine, None] <= ls) & (ls <= grid.hi[mine, None])
        assert np.all(inside.sum(axis=0) == cands.entry_x.shape[1])
        which, at = np.nonzero(inside)
        vals = np.full(inside.shape, -np.inf)
        vals[which, at] = block_values(grid, mine[which], ls[at], inst.delta)
        assert same_bits(vals.max(axis=0, initial=-np.inf), profits[n, 1:lmax[n] + 1])


@st.composite
def degenerate_instances(draw):
    """`instances`, biased toward the cases opt's shortcuts meet: J < N, caps
    that fit p_max (lam = 0), and a subcarrier whose channel is all but dead,
    so its F_n is nearly flat."""
    inst = draw(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
    if draw(st.booleans()):
        return inst
    gains = inst.gains.copy()
    gains[:, 0] *= 1e-30
    return Instance(weights=inst.weights, bandwidths=inst.bandwidths, gains=gains,
                    noise=inst.noise, p_max=inst.p_max, p_max_carrier=inst.p_max_carrier,
                    delta=inst.delta, max_mux=inst.max_mux)


# opt as it runs; with no fathoming (every item kept, every reachable column
# live); and with every F_n read a budget at a time
OPT_SETTINGS = ((), ((jspa, "_MARGIN", np.inf),), ((single_carrier, "_READ_BUDGETS", 1),))


@settings(PROPERTY, max_examples=60)
@given(degenerate_instances())
def test_opt_picks_the_table_dps_units(inst):
    tables = tables_of(inst)
    expect = table_units(build_knapsack(inst, BudgetObjective(tables)), class_unit_caps(inst))
    for patches in OPT_SETTINGS:
        with pytest.MonkeyPatch.context() as patch:
            for module, attr, value in patches:
                patch.setattr(module, attr, value)
            assert same_bits(opt_jspa(inst, tables).budgets, expect * inst.delta), patches


@PROPERTY
@given(instances(levels=(4, 10, 20, 100, 400)))
def test_relaxation_matches_per_level_oracle(inst):
    profits = build_knapsack(inst, BudgetObjective(tables_of(inst)))
    assert_relaxes_like_oracle(profits, class_unit_caps(inst))


@st.composite
def profit_families(draw):
    """Synthetic knapsack classes (profits (N, J + 1), caps), none of them all 0.

    Each class is flat, exactly linear, noisy (near-linear, so its gains
    are rounding noise), integer steps, kinked (two linear branches, the
    second steeper) or concave; caps fall anywhere in 0..J, and J = 1 to 3
    with up to 6 classes gives J < N.
    """
    carriers = draw(st.integers(1, 6))
    J = draw(st.sampled_from([1, 2, 3, 10, 40, 150]))
    levels = np.arange(J + 1, dtype=float)
    rows, caps = [], []
    for _ in range(carriers):
        family = draw(st.sampled_from(["flat", "linear", "noisy", "steps", "kinked", "concave"]))
        scale = draw(st.sampled_from([1.0, 1e6, 3e7]))
        if family == "flat":
            row = np.full(J + 1, scale)
        elif family == "linear":
            row = draw(st.sampled_from([0.5, 3.0, 7.0])) * levels
        elif family == "noisy":
            row = scale * np.log2(1.0 + 1e-9 * levels)
        elif family == "steps":
            row = draw(st.integers(1, 5)) * (1.0 + np.floor(levels / draw(st.integers(1, 7))))
        elif family == "kinked":
            knee = draw(st.integers(0, J))
            steep = draw(st.sampled_from([1e-2, 1.0]))
            row = scale * (1e-3 * levels + steep * np.maximum(levels - knee, 0.0))
        else:
            row = scale * np.log2(1.0 + levels / draw(st.integers(1, 50)))
        rows.append(row)
        caps.append(draw(st.one_of(st.just(J), st.integers(0, J))))
    return np.stack(rows), caps


@settings(PROPERTY, max_examples=100)
@given(profit_families())
def test_relaxation_matches_per_level_oracle_on_profit_families(family):
    assert_relaxes_like_oracle(*family)


# a few dyadic floats, so cells tie exactly, or any finite float
RELAX_VALUES = (st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 1e6])
                | st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def relax_classes(draw):
    """One class as `jspa._relax` is handed it: (ks, bk, js, cj, r0, r1).

    Live columns with gaps between them (-inf in the numpy passes' span);
    one kept item or several; and a window r0..r1 anywhere around the
    cells' rows, so it may cut an item's span of columns.
    """
    ks = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=30)))
    js = sorted(draw(st.sets(st.integers(0, 40), min_size=1,
                             max_size=draw(st.sampled_from([1, 3, 12])))))
    bk = draw(st.lists(RELAX_VALUES, min_size=len(ks), max_size=len(ks)))
    cj = draw(st.lists(RELAX_VALUES, min_size=len(js), max_size=len(js)))
    r0 = draw(st.integers(max(0, ks[0] + js[0] - 3), ks[-1] + js[-1]))
    return ks, bk, js, cj, r0, draw(st.integers(r0, ks[-1] + js[-1] + 3))


@settings(PROPERTY, max_examples=200)
@given(relax_classes())
def test_plain_float_relax_matches_the_numpy_passes(case):
    # rows, the bits of each row's value and its item: in Python floats
    # (every class, and as _relax routes it) as in one numpy pass per item
    ks, bk, js, cj, r0, r1 = case
    spans = [(j, c, bisect.bisect_left(ks, r0 - j), bisect.bisect_right(ks, r1 - j))
             for j, c in zip(js, cj)]
    rows, vals, at = jspa._relax_passes(ks, bk, spans, r0, r1)
    routed = jspa._relax(*case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jspa, "_PASS_CELLS", math.inf)
        plain = jspa._relax(*case)
    for got in (plain, routed):
        assert got[0] == rows and got[2] == at
        assert same_bits(np.array(got[1], dtype=float), np.array(vals, dtype=float))


@settings(PROPERTY, max_examples=100)
@given(profit_families(), st.integers(1, 40), st.sampled_from([0.3, 1.0, 1.5, 4.0]),
       st.sampled_from([1, 2]), st.booleans())
def test_batched_selection_matches_oracles_on_profit_families(family, count, reach, repeat,
                                                              dead):
    # targets up to reach times the largest profit, each repeat times; dead
    # adds a class of no reachable target and one with lmax = 0
    profits, caps = family
    if dead:
        profits = np.vstack((profits, np.zeros((1, profits.shape[1])), profits[:1]))
        caps = caps + [profits.shape[1] - 1, 0]
    step = reach * float(profits.max()) / count
    targets = np.repeat(np.arange(1, count + 1) * step, repeat)
    rows = np.arange(profits.shape[0])[:, None]
    assert_selects_like_oracles(np.array(caps), targets, lambda ls: profits[rows, ls], profits)
