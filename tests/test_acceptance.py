"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion. Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    block_funs,
    ordered_grid_max,
    random_feasible_p,
    rel_err,
    scpc_objective,
    scus_subset_oracle,
    small_instance,
)
from nomajspa.model import (
    LN2,
    SystemConfig,
    build_decoding_order,
    generate_instance,
    wsr_from_rates,
    wsr_from_x,
    x_from_p,
)
from nomajspa.single_carrier import (
    iscpc_eval,
    iscpc_precompute,
    iscus_eval,
    iscus_precompute,
    left_derivatives,
    pinned_values,
    sc_value,
    scpc,
    scus,
    stack_candidates,
)
from nomajspa.jspa import (
    brute_force_jspa,
    budget_feasible,
    eps_jspa,
    estimate_upper_bound,
    grad_jspa,
    opt_jspa,
)
from nomajspa import jspa
from nomajspa.ops import count_ops

REL_TOL = 1e-9


def check(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name:<36s} {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def small_joint_set():
    """100 seeded instances with tables, optimal and brute-force values."""
    start = time.perf_counter()
    entries = []
    seed = 0
    for idx in range(100):
        carriers = (2, 3)[idx % 2]
        users = (3, 4)[(idx // 2) % 2]
        mux = (1, 2)[(idx // 4) % 2]
        inst = small_instance(seed, users=users, carriers=carriers, max_mux=mux,
                              levels=20)
        seed += 1
        order = build_decoding_order(inst)
        tables = [iscus_precompute(inst, order, n, mux)
                  for n in range(inst.n_carriers)]
        opt = opt_jspa(inst, tables)
        brute = brute_force_jspa(inst, tables)
        entries.append(dict(inst=inst, order=order, tables=tables,
                            opt=opt, brute=brute))
    return entries, time.perf_counter() - start


def test_criterion_01_oracle_optimality(small_joint_set):
    entries, build_s = small_joint_set
    start = time.perf_counter()
    worst = 0.0
    for e in entries:
        worst = max(worst, rel_err(e["opt"].wsr, e["brute"].wsr))
        assert budget_feasible(e["inst"], e["opt"].budgets)
    elapsed = build_s + (time.perf_counter() - start)
    check(1, "opt equals brute force", worst <= REL_TOL and elapsed < 60.0,
          f"worst rel err {worst:.2e}, {elapsed:.1f}s over 100 instances")


def test_criterion_02_scus_subset_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        users = int(rng.integers(2, 5))
        mux = int(rng.integers(1, 3))
        inst = small_instance(10_000 + trial, users=users, carriers=1, max_mux=mux)
        order = build_decoding_order(inst)
        p_bar = float(rng.uniform(0.05, inst.p_max))
        got = sc_value(inst, order, 0, scus(inst, order, 0, mux, p_bar))
        oracle = scus_subset_oracle(inst, order, 0, mux, p_bar)
        worst = max(worst, rel_err(got, oracle))
    elapsed = time.perf_counter() - start
    check(2, "scus equals subset enumeration", worst <= REL_TOL and elapsed < 30.0,
          f"worst rel err {worst:.2e}, {elapsed:.1f}s over 200 instances")


def test_criterion_03_scpc_grid_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_gap = -math.inf
    for trial in range(50):
        users = int(rng.integers(3, 6))
        inst = small_instance(20_000 + trial, users=users, carriers=1, max_mux=users)
        order = build_decoding_order(inst)
        size = int(rng.integers(1, 4))
        active = tuple(sorted(rng.choice(users, size=size, replace=False).tolist()))
        p_bar = float(rng.uniform(0.1, inst.p_max))
        x = scpc(inst, order, 0, active, p_bar)
        mine = scpc_objective(inst, order, 0, active, x)
        grid_best = ordered_grid_max(block_funs(inst, order, 0, active), p_bar, 1000)
        worst_gap = max(worst_gap, grid_best - mine)
        assert mine >= grid_best - REL_TOL * max(1.0, abs(grid_best))
    elapsed = time.perf_counter() - start
    check(3, "scpc dominates 1e-3 grid", elapsed < 60.0,
          f"worst grid excess {worst_gap:.2e} bit/s, {elapsed:.1f}s over 50 instances")


def test_criterion_04_precompute_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        users = int(rng.integers(2, 6))
        mux = int(rng.integers(1, 3))
        inst = small_instance(30_000 + trial, users=users, carriers=1, max_mux=mux)
        order = build_decoding_order(inst)
        size = int(rng.integers(1, users + 1))
        active = tuple(sorted(rng.choice(users, size=size, replace=False).tolist()))
        pc_table = iscpc_precompute(inst, order, 0, active)
        us_tables = iscus_precompute(inst, order, 0, mux)
        for _ in range(100):
            p_bar = float(rng.uniform(0.0, inst.p_max))
            fast = iscpc_eval(pc_table, p_bar)
            direct = scpc(inst, order, 0, active, p_bar)
            worst = max(worst, float(np.max(np.abs(fast - direct)))
                        / max(1.0, inst.p_max))
            _, v_fast = iscus_eval(us_tables, p_bar)
            v_direct = sc_value(inst, order, 0, scus(inst, order, 0, mux, p_bar))
            worst = max(worst, rel_err(v_fast, v_direct))
    check(4, "precompute equals direct solvers", worst <= REL_TOL,
          f"worst rel deviation {worst:.2e} over 20x100 budgets x2 solvers")


def test_criterion_05_fptas_guarantee(small_joint_set):
    entries, _ = small_joint_set
    violations = 0
    worst_margin = math.inf
    for e in entries:
        for eps in (0.5, 0.2, 0.1, 0.05):
            sol = eps_jspa(e["inst"], e["tables"], eps)
            floor_value = (1.0 - eps) * e["opt"].wsr
            worst_margin = min(worst_margin,
                               (sol.wsr - floor_value) / max(e["opt"].wsr, 1.0))
            if sol.wsr < floor_value * (1 - 1e-12) or not budget_feasible(
                    e["inst"], sol.budgets):
                violations += 1
    check(5, "FPTAS (1-eps) guarantee", violations == 0,
          f"0 violations required, got {violations}; worst margin {worst_margin:.3f}")


def test_criterion_06_estimation_sandwich(small_joint_set):
    entries, _ = small_joint_set
    violations = 0
    for e in entries:
        upper = estimate_upper_bound(e["inst"], e["tables"])
        opt = e["opt"].wsr
        if not (upper >= opt * (1 - REL_TOL) and opt >= upper / 4.0 * (1 - REL_TOL)):
            violations += 1
    check(6, "estimate brackets optimum (U..U/4)", violations == 0,
          f"{violations} violations over 100 instances")


def test_criterion_07_grad_near_optimality():
    start = time.perf_counter()
    cfg = SystemConfig(users=10, subcarriers=20, max_mux=3)
    losses = []
    for seed in range(50):
        inst = generate_instance(cfg, seed)
        order = build_decoding_order(inst)
        for mux in (1, 2, 3):
            tables = [iscus_precompute(inst, order, n, mux)
                      for n in range(inst.n_carriers)]
            opt = opt_jspa(inst, tables)
            grad = grad_jspa(inst, tables, 1e-4)
            losses.append((opt.wsr - grad.wsr) / opt.wsr)
    elapsed = time.perf_counter() - start
    mean = float(np.mean(losses))
    p90 = float(np.percentile(losses, 90))
    ok = mean <= 1e-3 and p90 <= 5e-3 and elapsed < 900.0
    check(7, "grad loss vs optimum at desk scale", ok,
          f"mean {mean:.2e} (cap 1e-3), p90 {p90:.2e} (cap 5e-3), {elapsed:.0f}s")


def test_criterion_08_multiplex_gain_trend():
    cfg = SystemConfig(users=20, subcarriers=20, max_mux=3)
    gains = []
    monotone = True
    for seed in range(10):
        inst = generate_instance(cfg, 100 + seed)
        order = build_decoding_order(inst)
        values = []
        for mux in (1, 2, 3):
            tables = [iscus_precompute(inst, order, n, mux)
                      for n in range(inst.n_carriers)]
            values.append(opt_jspa(inst, tables).wsr)
        if not (values[0] <= values[1] * (1 + REL_TOL)
                and values[1] <= values[2] * (1 + REL_TOL)):
            monotone = False
        gains.append((values[2] - values[0]) / values[0])
    mean_gain = float(np.mean(gains))
    check(8, "WSR grows with multiplexing cap", monotone and mean_gain > 0.0,
          f"per-seed monotone {monotone}, mean gain M3/M1 {mean_gain:+.2%} at K=20")


def test_criterion_09_left_derivative_finite_difference():
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(20):
        users = int(rng.integers(2, 7))
        mux = int(rng.integers(1, 4))
        inst = small_instance(40_000 + trial, users=users, carriers=1,
                              max_mux=min(mux, users))
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, min(mux, users))
        cands = stack_candidates([tables])
        h = 1e-6 * inst.p_max
        kept = 0
        while kept < 100:
            p_bar = float(rng.uniform(2 * h, inst.p_max))
            # per block, each read at the two budgets; cand names its candidate
            vb, va = pinned_values(cands, np.array([[p_bar - h, p_bar]]))[0].T
            cand = cands.cand[0]
            if cand[np.argmax(va)] != cand[np.argmax(vb)]:
                continue  # candidate switch inside the stencil
            stored = cands.entry_x[0, cand[np.argmax(va)]]
            if np.any((stored > p_bar - 2 * h) & (stored < p_bar + h)):
                continue  # truncation kink inside the stencil
            kept += 1
            fd = (va.max() - vb.max()) / h
            worst = max(worst, rel_err(fd, left_derivatives(cands, np.array([p_bar]))[0]))
    check(9, "left derivative matches backward FD", worst <= 1e-3,
          f"worst rel err {worst:.2e} over 20x100 budgets")


def test_criterion_10_discretization_gap_bound():
    violations = 0
    worst_slack = math.inf
    for trial in range(50):
        carriers = (1, 2, 3)[trial % 3]
        users = (2, 3, 4)[trial % 3]
        coarse = small_instance(50_000 + trial, users=users, carriers=carriers,
                                max_mux=2 if users > 1 else 1, levels=20)
        fine = small_instance(50_000 + trial, users=users, carriers=carriers,
                              max_mux=2 if users > 1 else 1, levels=200)
        order = build_decoding_order(coarse)
        tab_c = [iscus_precompute(coarse, order, n, coarse.max_mux)
                 for n in range(carriers)]
        tab_f = [iscus_precompute(fine, order, n, fine.max_mux)
                 for n in range(carriers)]
        v_coarse = opt_jspa(coarse, tab_c).wsr
        sol_fine = opt_jspa(fine, tab_f)
        bound = 0.0
        for n in range(carriers):
            slopes = (fine.bandwidths[n] * fine.weights
                      / ((sol_fine.budgets[n] + fine.eta_tilde[:, n]) * LN2))
            bound += coarse.delta * float(slopes.max())
        gap = sol_fine.wsr - v_coarse
        worst_slack = min(worst_slack, bound - gap)
        if gap > bound + REL_TOL * max(1.0, abs(v_coarse)):
            violations += 1
    check(10, "nested-grid gap within slope bound", violations == 0,
          f"{violations} violations over 50 instances, min slack {worst_slack:.2e}")


def test_criterion_11_objective_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    done = 0
    while done < 1000:
        users = int(rng.integers(2, 7))
        carriers = int(rng.integers(1, 5))
        inst = small_instance(60_000 + done, users=users, carriers=carriers,
                              max_mux=int(rng.integers(1, users + 1)))
        order = build_decoding_order(inst)
        for _ in range(10):
            p = random_feasible_p(inst, rng, respect_mux=False)
            a = wsr_from_rates(inst, order, p)
            b = wsr_from_x(inst, order, x_from_p(p, order))
            worst = max(worst, rel_err(a, b))
            done += 1
    check(11, "dual-path WSR agreement", worst <= REL_TOL,
          f"worst rel err {worst:.2e} over 1000 allocations")


def test_criterion_12_complexity_scaling(monkeypatch):
    def fit_slope(sizes, counts):
        x = np.log2(np.asarray(sizes, dtype=float))
        y = np.log2(np.asarray(counts, dtype=float))
        x -= x.mean()
        return float(np.sum(x * (y - y.mean())) / np.sum(x * x))

    def scus_cost(users):
        inst = small_instance(7, users=users, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        with count_ops() as counter:
            scus(inst, order, 0, 2, inst.p_max)
        return counter.total

    def opt_cost(levels):
        inst = small_instance(7, users=2, carriers=2, max_mux=2, levels=levels)
        order = build_decoding_order(inst)
        tables = [iscus_precompute(inst, order, n, 2) for n in range(2)]
        with count_ops() as counter:
            opt_jspa(inst, tables)
        return counter.total

    k_sizes = (8, 16, 32, 64)
    scus_slope = fit_slope(k_sizes, [scus_cost(k) for k in k_sizes])
    j_sizes = (50, 100, 200, 400)
    opt_slope = fit_slope(j_sizes, [opt_cost(j) for j in j_sizes])
    with monkeypatch.context() as patch:
        # the paper's DP by weights: no column fathomed, every level scans every item
        patch.setattr(jspa, "_MARGIN", math.inf)
        scan_slope = fit_slope(j_sizes, [opt_cost(j) for j in j_sizes])
    ok = (abs(scus_slope - 2.0) <= 0.3 and abs(scan_slope - 2.0) <= 0.3
          and opt_slope <= 1.5)
    check(12, "op counts scale as K^2 and J^2", ok,
          f"scus slope {scus_slope:.2f}, level-scan opt slope {scan_slope:.2f} "
          f"(target 2 +/- 0.3), opt slope {opt_slope:.2f} (target <= 1.5)")
