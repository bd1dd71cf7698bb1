"""Property tests of the pinned-block F_n kernel over random and degenerate instances.

The kernel (`pinned_values`) must agree with the direct candidate form
(`candidate_values`) at every budget, keep the grid profits monotone, give
the same left derivatives stacked as one subcarrier at a time, and leave the
exact solvers' agreement intact. Instances cover K = 1, M = K, tied channels
or weights, binding per-carrier caps and 30 dB shadowing; budgets cover 0,
one grid step, the cap, p_max and every candidate kink.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import rel_err
from nomajspa.jspa import BudgetObjective, brute_force_jspa, build_knapsack, opt_jspa
from nomajspa.model import (Instance, SystemConfig, build_decoding_order, generate_instance,
                            wsr_from_x)
from nomajspa.single_carrier import (candidate_values, fn_left_derivative, iscus_precompute,
                                     pinned_values, stack_candidates)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_carriers=3):
    users = draw(st.integers(1, 6))
    max_mux = draw(st.one_of(st.just(users), st.integers(1, users)))
    carriers = draw(st.integers(1, max_carriers))
    levels = draw(st.sampled_from([4, 10, 20]))
    cfg = SystemConfig(users=users, subcarriers=carriers, max_mux=max_mux,
                       delta_w=10.0 / levels,
                       p_max_carrier_w=draw(st.sampled_from([0.0, 2.5, 6.0])),
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
    profits = build_knapsack(inst, tables_of(inst)).profits
    assert np.all(np.diff(profits, axis=1) >= 0.0)
    assert np.all(profits[:, 0] == 0.0)


@PROPERTY
@given(instances(), st.integers(0, 2 ** 16))
def test_stacked_derivatives_are_bit_equal(inst, seed):
    tables = tables_of(inst)
    objective = BudgetObjective(tables)
    rng = np.random.default_rng(seed)
    N = inst.n_carriers
    kinks = [probe_budgets(inst, tables, n) for n in range(N)]
    for _ in range(6):
        b = np.array([rng.choice(k[k <= inst.p_max_carrier[n]])
                      for n, k in enumerate(kinks)])
        expect = [fn_left_derivative(t, float(bn)) for t, bn in zip(tables, b)]
        assert np.array_equal(objective.derivatives(b), np.array(expect))


@PROPERTY
@given(instances(max_carriers=2))
def test_opt_equals_brute_force(inst):
    tables = tables_of(inst)
    opt, brute = opt_jspa(inst, tables), brute_force_jspa(inst, tables)
    assert rel_err(opt.wsr, brute.wsr) <= 1e-12
    assert rel_err(opt.wsr, wsr_from_x(inst, build_decoding_order(inst), opt.x)) <= 1e-9
