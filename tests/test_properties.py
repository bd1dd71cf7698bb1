"""Property tests of the pinned-block F_n kernel over random and degenerate instances.

The decoding order, the stacked subcarrier views and every table's fields
must equal the one-subcarrier-at-a-time oracle's bit for bit. The batched
selection DP must fill every subcarrier's (m, j, i) tables and
backtrack every candidate bit for bit as the per-carrier oracle does, at the
full budget and in `scus` at any budget. The kernel (`pinned_values`) must
agree with the direct candidate form (`candidate_values`) at every budget,
keep the grid profits monotone, give the same values, columns and left
derivatives stacked as one subcarrier at a time, and leave the exact solvers' agreement intact. eps's lockstep item
selection must pick what the one-threshold-at-a-time search picks, its
whole-grid read the same items and profits as the lockstep search, its
DP by profits, on either threshold path, what the index-array DP picks,
and eps must keep its (1 - eps) guarantee. Gradient ascent must stay
feasible, report the wsr of its own columns, never lose along its history
and converge. opt's divide and conquer must relax every class to the
per-level scan's values and choices, bit for bit, on grids of up to 400
levels, at its own cell budget and at both extremes: down to one-row
nodes and one-row dense chunks, and finished densely at the root. Instances cover K = 1, M = K, tied channels or weights, binding
per-carrier caps and 30 dB shadowing; budgets cover 0, one grid step, the
cap, p_max and every candidate kink. The eps properties also draw 2-level grids over three
carriers, so J < N, and one checks the bracket U >= OPT >= U / 4.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (batched_scus_dp, per_carrier_backtrack, per_carrier_offset,
                      per_carrier_order, per_carrier_scus_dp, per_carrier_view, rel_err)
from test_jspa import assert_relaxes_like_oracle, index_array_eps_budgets, lockstep_and_oracle
from nomajspa import jspa
from nomajspa.jspa import (BudgetObjective, brute_force_jspa, budget_feasible, build_knapsack,
                           class_unit_caps, eps_jspa, estimate_upper_bound, grad_jspa,
                           opt_jspa)
from nomajspa.model import (Instance, SystemConfig, build_decoding_order, carrier_view,
                            carrier_views, generate_instance, wsr_from_x)
from nomajspa.single_carrier import (candidate_values, fn_value_many, iscus_eval,
                                     iscus_precompute, left_derivatives, pinned_values,
                                     sc_value, scus, stack_candidates)

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
        expect = candidate_values(t.w_n, t.wp, t.ep, t.offset, t.entry_x[:, None, :],
                                  budgets[None, :])
        sorted_vals = pinned_values(cands.carrier(n), budgets[None, :])[0][0]
        # one budget at a time takes the position-by-position count
        single = np.stack([pinned_values(cands.carrier(n), np.array([[b]]))[0][0, :, 0]
                           for b in budgets], axis=1)
        assert np.array_equal(single, sorted_vals)
        assert np.abs(sorted_vals - expect).max() <= 1e-12 * magnitude(t)
        assert np.all(sorted_vals[:, budgets == 0.0] == 0.0)


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
    for n, t in enumerate(tables):
        assert np.array_equal(fn_value_many(t, kinks[n]), objective.profits(n, kinks[n]))
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


@PROPERTY
@given(instances(max_carriers=2))
def test_opt_equals_brute_force(inst):
    tables = tables_of(inst)
    opt, brute = opt_jspa(inst, tables), brute_force_jspa(inst, tables)
    assert rel_err(opt.wsr, brute.wsr) <= 1e-12
    assert rel_err(opt.wsr, wsr_from_x(inst, build_decoding_order(inst), opt.x)) <= 1e-9


@PROPERTY
@given(instances())
def test_grad_ascends_to_a_feasible_converged_split(inst):
    sol = grad_jspa(inst, tables_of(inst), 1e-4)
    assert budget_feasible(inst, sol.budgets)
    assert rel_err(sol.wsr, wsr_from_x(inst, build_decoding_order(inst), sol.x)) <= 1e-9
    assert np.all(np.diff(sol.history) >= 0.0)
    assert sol.converged


@settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)  # half draw J < N
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_lockstep_selection_and_eps_guarantee(inst):
    tables = tables_of(inst)
    objective = BudgetObjective(tables)
    upper = estimate_upper_bound(inst, tables, objective)
    opt = opt_jspa(inst, tables).wsr
    assert upper >= opt * (1 - 1e-12)
    assert opt >= upper / 4.0 * (1 - 1e-12)
    for eps in (0.5, 0.1, 0.05):
        for n in range(inst.n_carriers):
            got, expect = lockstep_and_oracle(inst, tables, objective, n, upper, eps)
            assert got == expect
        sol = eps_jspa(inst, tables, eps)
        assert budget_feasible(inst, sol.budgets)
        assert sol.wsr >= (1 - eps) * opt * (1 - 1e-12)


@contextmanager
def eps_forced(grid: bool, dp_cells: int = jspa._DP_CELLS):
    """Force eps's whole-grid threshold read (True) or its lockstep search (False),
    and the size of its DP's chunks: dp_cells = 1 relaxes one item per chunk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jspa, "_GRID_PER_PROBE", math.inf if grid else 0)
        patch.setattr(jspa, "_DP_CELLS", dp_cells)
        yield


@PROPERTY
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_threshold_paths_pick_the_same_items(inst):
    tables = tables_of(inst)
    objective = BudgetObjective(tables)
    upper = estimate_upper_bound(inst, tables, objective)
    caps = class_unit_caps(inst)
    N = inst.n_carriers
    for eps in (0.5, 0.1, 0.05):
        targets = np.arange(1, int(4 * N / eps) + 1) * (eps * upper / (4.0 * N))
        for n in range(N):
            picked = []
            for grid in (True, False):
                with eps_forced(grid):
                    picked.append(jspa._class_items(objective, n, int(caps[n]), targets,
                                                    inst.delta))
            (grid_ls, grid_profits), (lock_ls, lock_profits) = picked
            assert np.array_equal(grid_ls, lock_ls)
            assert np.array_equal(grid_profits, lock_profits)


@PROPERTY
@given(st.one_of(instances(), instances(levels=(2,), min_carriers=3)))
def test_dp_by_profits_matches_index_array_dp(inst):
    tables = tables_of(inst)
    upper = estimate_upper_bound(inst, tables)
    for eps in (0.5, 0.1, 0.05):
        expect = index_array_eps_budgets(inst, tables, eps, upper)
        # one item per chunk makes every class fold its chunks in turn
        for grid, dp_cells in ((True, jspa._DP_CELLS), (False, jspa._DP_CELLS), (True, 1)):
            with eps_forced(grid, dp_cells):
                budgets = eps_jspa(inst, tables, eps).budgets
            assert np.array_equal(budgets, expect)


@PROPERTY
@given(instances(levels=(4, 10, 20, 100, 400)))
def test_relaxation_matches_per_level_oracle(inst):
    profits = build_knapsack(inst, BudgetObjective(tables_of(inst)))
    assert_relaxes_like_oracle(profits, class_unit_caps(inst))
