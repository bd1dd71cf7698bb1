"""Power control, user selection, their precomputed variants, and F_n."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from conftest import (
    batched_scus_dp,
    block_funs,
    full_stack_candidates,
    ordered_grid_max,
    ordered_grid_max_bruteforce,
    rel_err,
    scpc_objective,
    per_carrier_backtrack,
    per_carrier_scus_dp,
    scus_subset_oracle,
    single_carrier_instance,
    small_instance,
)
from nomajspa.model import (LN2, Instance, active_positions, argmax_f, build_decoding_order,
                            carrier_view, f_eval)
from nomajspa.ops import count_ops
from nomajspa.single_carrier import (
    Candidates,
    best_columns,
    best_values,
    expand_active,
    fn_value_many,
    grid_blocks,
    iscpc_eval,
    iscpc_precompute,
    iscus_eval,
    iscus_precompute,
    left_derivatives,
    pinned_blocks,
    pinned_index,
    sc_value,
    scpc,
    scus,
    stack_candidates,
)


class TestScpc:
    def test_single_active_user_gets_block_argmax(self):
        inst = small_instance(1, users=4, carriers=1, max_mux=1)
        order = build_decoding_order(inst)
        for pos in range(4):
            x = scpc(inst, order, 0, (pos,), 2.5)
            assert x.shape == (1,)
            assert x[0] == argmax_f(inst, order, 0, 0, pos, 2.5)

    def test_two_active_blocks_merge_to_shared_budget(self):
        # second block is increasing on the whole range (stationary point
        # beyond the budget), so both blocks sit at the budget, which is the
        # merged block's maximizer
        inst = single_carrier_instance([4.0, 3.9], [1.0, 0.99], p_max=10.0)
        order = build_decoding_order(inst)
        p_bar = 1.0
        x = scpc(inst, order, 0, (0, 1), p_bar)
        assert x[0] == x[1] == p_bar == argmax_f(inst, order, 0, 0, 1, p_bar)
        # exhaustive 2-variable grid agrees
        funs = block_funs(inst, order, 0, (0, 1))
        grid_best = ordered_grid_max(funs, p_bar, 1000)
        assert scpc_objective(inst, order, 0, (0, 1), x) >= grid_best - 1e-9

    def test_backtracking_merges_middle_blocks(self):
        # weights chosen so block 3's free maximizer exceeds block 2's,
        # forcing the sweep to backtrack and equalize them
        inst = single_carrier_instance([8.0, 4.0, 1.0], [0.3, 1.0, 0.9], p_max=10.0)
        order = build_decoding_order(inst)
        p_bar = 6.0
        x = scpc(inst, order, 0, (0, 1, 2), p_bar)
        assert x[0] >= x[1] >= x[2] >= 0.0
        assert x[0] <= p_bar
        funs = block_funs(inst, order, 0, (0, 1, 2))
        grid_best = ordered_grid_max(funs, p_bar, 6000)
        mine = scpc_objective(inst, order, 0, (0, 1, 2), x)
        assert mine >= grid_best - 1e-9 * abs(grid_best)

    def test_equal_weights_push_everything_to_budget(self):
        inst = single_carrier_instance([5.0, 2.0, 1.0], [0.4, 0.4, 0.4], p_max=10.0)
        order = build_decoding_order(inst)
        x = scpc(inst, order, 0, (0, 1, 2), 3.0)
        assert np.all(x == 3.0)
        funs = block_funs(inst, order, 0, (0, 1, 2))
        grid_best = ordered_grid_max(funs, 3.0, 3000)
        assert scpc_objective(inst, order, 0, (0, 1, 2), x) >= grid_best - 1e-9

    def test_grid_dominance_random_instances(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            users = int(rng.integers(2, 5))
            inst = small_instance(trial + 100, users=users, carriers=1, max_mux=users)
            order = build_decoding_order(inst)
            size = int(rng.integers(1, min(3, users) + 1))
            active = tuple(sorted(rng.choice(users, size=size, replace=False).tolist()))
            p_bar = float(rng.uniform(0.1, inst.p_max))
            x = scpc(inst, order, 0, active, p_bar)
            assert np.all(np.diff(x) <= 0) and x[0] <= p_bar + 1e-15 and x[-1] >= 0
            funs = block_funs(inst, order, 0, active)
            grid_best = ordered_grid_max(funs, p_bar, 1000)
            mine = scpc_objective(inst, order, 0, active, x)
            assert mine >= grid_best - 1e-9 * max(1.0, abs(grid_best))

    def test_rejects_bad_active_sets(self):
        inst = small_instance(0, users=3, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        with pytest.raises(ValueError):
            scpc(inst, order, 0, (), 1.0)
        with pytest.raises(ValueError):
            scpc(inst, order, 0, (2, 1), 1.0)


def test_ordered_grid_oracle_matches_bruteforce():
    # the suffix-max oracle is exact: cross-check against literal enumeration
    inst = small_instance(55, users=3, carriers=1, max_mux=3)
    order = build_decoding_order(inst)
    funs = block_funs(inst, order, 0, (0, 1, 2))
    fast = ordered_grid_max(funs, 2.0, 24)
    slow = ordered_grid_max_bruteforce(funs, 2.0, 24)
    assert fast == pytest.approx(slow, rel=1e-12)


class TestIscpc:
    def test_full_budget_equals_stored_solution(self):
        inst = small_instance(4, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        table = iscpc_precompute(inst, order, 0, (1, 3))
        assert np.array_equal(iscpc_eval(table, inst.p_max), table.x_max)

    def test_zero_budget_all_zero(self):
        inst = small_instance(4, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        table = iscpc_precompute(inst, order, 0, (0, 2))
        assert np.array_equal(iscpc_eval(table, 0.0), np.zeros(2))

    def test_matches_direct_scpc_on_random_budgets(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            users = int(rng.integers(2, 6))
            inst = small_instance(trial + 40, users=users, carriers=1, max_mux=users)
            order = build_decoding_order(inst)
            size = int(rng.integers(1, users + 1))
            active = tuple(sorted(rng.choice(users, size=size, replace=False).tolist()))
            table = iscpc_precompute(inst, order, 0, active)
            for _ in range(100):
                p_bar = float(rng.uniform(0.0, inst.p_max))
                direct = scpc(inst, order, 0, active, p_bar)
                assert np.allclose(iscpc_eval(table, p_bar), direct, rtol=1e-9, atol=0)

    def test_rejects_budget_above_precompute(self):
        inst = small_instance(4, users=3, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        table = iscpc_precompute(inst, order, 0, (0,))
        with pytest.raises(ValueError):
            iscpc_eval(table, inst.p_max * 1.5)


class TestScus:
    def test_single_user_gets_budget(self):
        inst = small_instance(6, users=1, carriers=1, max_mux=1)
        order = build_decoding_order(inst)
        x = scus(inst, order, 0, 1, 4.0)
        assert x.tolist() == [4.0]

    def test_single_slot_equals_best_singleton(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            inst = small_instance(trial + 200, users=3, carriers=1, max_mux=1)
            order = build_decoding_order(inst)
            p_bar = float(rng.uniform(0.2, inst.p_max))
            got = sc_value(inst, order, 0, scus(inst, order, 0, 1, p_bar))
            best = max(
                sc_value(inst, order, 0,
                         expand_active((k,), scpc(inst, order, 0, (k,), p_bar), 3))
                for k in range(3))
            assert rel_err(got, best) <= 1e-9

    def test_matches_subset_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            users = int(rng.integers(2, 5))
            cap = int(rng.integers(1, 3))
            inst = small_instance(trial + 300, users=users, carriers=1, max_mux=cap)
            order = build_decoding_order(inst)
            p_bar = float(rng.uniform(0.1, inst.p_max))
            x = scus(inst, order, 0, cap, p_bar)
            assert len(active_positions(x)) <= cap
            assert np.all(np.diff(x) <= 0) and x[0] <= p_bar + 1e-15
            got = sc_value(inst, order, 0, x)
            oracle = scus_subset_oracle(inst, order, 0, cap, p_bar)
            assert rel_err(got, oracle) <= 1e-9

    def test_rejects_zero_slots(self):
        inst = small_instance(0, users=2, carriers=1, max_mux=1)
        order = build_decoding_order(inst)
        with pytest.raises(ValueError):
            scus(inst, order, 0, 0, 1.0)


class TestIscus:
    def test_full_budget_matches_direct(self):
        inst = small_instance(61, users=5, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        x, val = iscus_eval(tables, inst.p_max)
        direct = scus(inst, order, 0, 2, inst.p_max)
        assert rel_err(val, sc_value(inst, order, 0, direct)) <= 1e-9
        assert rel_err(sc_value(inst, order, 0, x), val) <= 1e-9

    def test_zero_budget(self):
        inst = small_instance(61, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        x, val = iscus_eval(tables, 0.0)
        assert val == 0.0
        assert np.array_equal(x, np.zeros(4))

    def test_random_budgets_match_direct_scus(self):
        rng = np.random.default_rng(10)
        for trial in range(12):
            users = int(rng.integers(2, 6))
            cap = int(rng.integers(1, 3))
            inst = small_instance(trial + 400, users=users, carriers=1, max_mux=cap)
            order = build_decoding_order(inst)
            tables = iscus_precompute(inst, order, 0, cap)
            for _ in range(50):
                p_bar = float(rng.uniform(0.0, inst.p_max))
                _, val = iscus_eval(tables, p_bar)
                direct = sc_value(inst, order, 0, scus(inst, order, 0, cap, p_bar))
                assert rel_err(val, direct) <= 1e-9

    def test_candidates_start_at_full_budget(self):
        inst = small_instance(62, users=5, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        assert tables.entry_x.shape == (5, 5)
        assert np.all(tables.entry_x[:, 0] == inst.p_max)
        # candidate e shares one value over positions 0..e
        for e in range(5):
            assert np.all(tables.entry_x[e, :e + 1] == tables.entry_x[e, 0])
        # DP roots: the zero-slot plane holds zeros and the zero-power tail value
        value, xopt, _ = (plane[0] for plane in batched_scus_dp(inst, order, 2, inst.p_max))
        w_n, wp, ep, _ = carrier_view(inst, order, 0)
        for j in range(5):
            expected = w_n * wp[-1] * math.log2(ep[-1])
            if j > 0:
                expected -= w_n * wp[j - 1] * math.log2(ep[j - 1])
            assert value[0, j, j] == pytest.approx(expected, rel=1e-12)
            assert xopt[0, j, j] == 0.0

    def test_table_footprint_does_not_grow_with_max_active(self):
        inst = small_instance(63, users=6, carriers=1, max_mux=6)
        order = build_decoding_order(inst)

        def footprint(max_active):
            tables = iscus_precompute(inst, order, 0, max_active)
            return sum(field.nbytes for field in vars(tables).values()
                       if isinstance(field, np.ndarray))

        assert footprint(1) == footprint(6)


class TestBudgetValueFunction:
    def test_monotone_over_budget_sweep(self):
        inst = small_instance(71, users=5, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        sweep = fn_value_many(tables, np.linspace(0.0, inst.p_max, 200))
        assert np.all(np.diff(sweep) >= -1e-9 * max(1.0, sweep.max()))

    def test_sublinear(self):
        rng = np.random.default_rng(15)
        inst = small_instance(72, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        for _ in range(100):
            p1 = float(rng.uniform(0.0, inst.p_max / 2))
            p2 = float(rng.uniform(0.0, inst.p_max - p1))
            lhs, v1, v2 = fn_value_many(tables, [p1 + p2, p1, p2])
            rhs = v1 + v2
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    def test_derivative_single_user_closed_form(self):
        inst = single_carrier_instance([0.5], [0.8], w_hz=1e6, p_max=10.0)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 1)
        for p_bar in (1e-3, 0.7, 3.0, 10.0):
            expected = 1e6 * 0.8 / ((p_bar + 0.5) * LN2)
            d = left_derivatives(stack_candidates([tables]), np.array([p_bar]))[0]
            assert d == pytest.approx(expected, rel=1e-12)

    def test_derivative_positive_and_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        inst = small_instance(73, users=5, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        h = 1e-6 * inst.p_max
        kept = 0
        while kept < 50:
            p_bar = float(rng.uniform(2 * h, inst.p_max))
            lo, hi = fn_value_many(tables, [p_bar - h, p_bar])
            d = left_derivatives(stack_candidates([tables]), np.array([p_bar]))[0]
            assert d > 0
            # away from kinks the backward difference pins the left derivative
            stored = tables.entry_x.ravel()
            if np.any((stored > p_bar - 2 * h) & (stored < p_bar + h)):
                continue
            kept += 1
            assert rel_err((hi - lo) / h, d) <= 1e-3

    def test_derivative_at_zero_matches_slope_from_above(self):
        # the budget 0 value resolves selection in the limit from above, so
        # the reported slope must match a forward difference from zero
        inst = small_instance(74, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        d0 = left_derivatives(stack_candidates([tables]), np.array([0.0]))[0]
        eps = 1e-11 * inst.p_max
        assert d0 == pytest.approx(fn_value_many(tables, [eps])[0] / eps, rel=1e-3)


def one_table(eta_tilde, weights):
    inst = single_carrier_instance(eta_tilde, weights)
    return iscus_precompute(inst, build_decoding_order(inst), 0, len(weights))


class TestStackCandidates:
    """The stack keeps each subcarrier's distinct rows and answers as all K do."""

    # equal weights put every position at the full budget: three equal rows
    EQUAL = ([4.0, 3.0, 2.0], [1.0, 1.0, 1.0])
    DISTINCT = ([4.0, 3.9, 0.1], [1.0, 0.99, 0.5])

    def test_all_rows_equal_stack_to_width_one(self):
        t = one_table(*self.EQUAL)
        assert np.all(t.entry_x == t.entry_x[0])
        cands = stack_candidates([t])
        assert cands.entry_x.shape == (1, 1, 3)
        assert np.array_equal(cands.entry_x[0, 0], t.entry_x[0])

    def test_all_rows_distinct_keep_all(self):
        t = one_table(*self.DISTINCT)
        cands, full = stack_candidates([t]), full_stack_candidates([t])
        assert np.array_equal(cands.entry_x, full.entry_x)
        assert cands.pins.tobytes() == full.pins.tobytes()

    def test_zeros_of_either_sign_stay_apart(self):
        t = one_table(*self.DISTINCT)
        signed = dataclasses.replace(t, entry_x=np.array([[10.0, 0.0, 0.0],
                                                          [10.0, 0.0, -0.0],
                                                          [10.0, 0.0, -0.0]]))
        assert stack_candidates([signed]).entry_x.shape == (1, 2, 3)

    def test_mixed_widths_pad_without_changing_ties(self):
        tables = [one_table(*self.EQUAL), one_table(*self.DISTINCT)]
        cands, full = stack_candidates(tables), full_stack_candidates(tables)
        assert cands.entry_x.shape == (2, 3, 3)
        # the one-row carrier is padded with copies of its row, which tie with it
        assert np.array_equal(cands.entry_x[0], tables[0].entry_x)
        entries = full.entry_x.ravel()
        budgets = np.unique(np.concatenate([[0.0], entries, np.nextafter(entries, 0.0),
                                            np.nextafter(entries, np.inf)]))
        grid = np.broadcast_to(budgets, (2, budgets.size))
        assert best_values(cands, grid).tobytes() == best_values(full, grid).tobytes()
        for b in budgets:
            b = np.full(2, b)
            for got, expect in zip(best_columns(cands, b), best_columns(full, b)):
                assert got.tobytes() == expect.tobytes()
            assert left_derivatives(cands, b).tobytes() == left_derivatives(full, b).tobytes()


class TestPinnedBlocks:
    def test_blocks_are_the_non_empty_cells_in_c_order(self):
        # equal neighbours leave a block empty; a pad repeats the row's last block, empty
        x = np.array([[[10.0, 5.0, 5.0, 1.0], [10.0, 10.0, 2.0, 0.0]],
                      [[10.0, 0.0, 0.0, 0.0], [10.0, 0.0, 0.0, 0.0]]])
        pins = np.arange(x.size * 3, dtype=float).reshape(x.shape + (3,))
        blocks = pinned_blocks(Candidates(entry_x=x, pins=pins))
        assert blocks.top.tolist() == [[10.0, 5.0, 1.0, 10.0, 2.0], [10.0, 10.0] + [10.0] * 3]
        assert blocks.low.tolist() == [[5.0, 1.0, 0.0, 2.0, 0.0], [0.0, 0.0] + [10.0] * 3]
        assert np.array_equal(blocks.pins[0, :, 0], pins[0].reshape(-1, 3)[[0, 2, 3, 5, 6], 0])

    @staticmethod
    def assert_places_like_pinned_index(x, lmax, delta):
        """Each grid index 1..lmax lies in one block, the one pinned_index gives
        its budget min(l * delta, full) (pins[..., 2] names each position)."""
        pins = np.zeros(x.shape + (3,))
        pins[..., 2] = np.arange(x.shape[-1])
        full = x[:, 0, 0]
        grid = grid_blocks(pinned_blocks(Candidates(entry_x=x, pins=pins)), full,
                           np.array([lmax]), delta)
        ls = np.arange(1, lmax + 1)
        expect = pinned_index(x, np.minimum(ls * delta, full)[None, :])[0, 0]
        got = np.full(ls.size, -1)
        for lo, hi, t in zip(grid.lo, grid.hi, grid.pins[:, 2]):
            assert np.all(got[lo - 1:hi] == -1)
            got[lo - 1:hi] = t
        assert np.array_equal(got, expect)

    def test_grid_blocks_place_each_grid_index_as_pinned_index_does(self):
        # 1.7 / 0.1 floors to 17, yet 17 * 0.1 > 1.7; 4.3 / 0.1 floors to 42,
        # yet 43 * 0.1 == 4.3: the float products decide, not the quotient.
        # The cap, 97, lies below the full budget
        self.assert_places_like_pinned_index(np.array([[[10.0, 8.1, 4.3, 1.7, 0.3]]]), 97, 0.1)

    def test_a_grid_step_past_the_full_budget_reads_at_it(self):
        # 147 * (10 / 147) rounds above 10: pinned_values clips it to the full budget
        delta = 10.0 / 147
        assert 147 * delta > 10.0
        self.assert_places_like_pinned_index(np.array([[[10.0, 4.0, 0.0]]]), 147, delta)


BUDGET_ENTRY_POINTS = {
    "scpc": lambda inst, order, b: scpc(inst, order, 0, (0, 2), b),
    "scus": lambda inst, order, b: scus(inst, order, 0, 2, b),
    "iscpc_eval": lambda inst, order, b: iscpc_eval(iscpc_precompute(inst, order, 0, (0, 2)), b),
    "iscus_eval": lambda inst, order, b: iscus_eval(iscus_precompute(inst, order, 0, 2), b),
    "fn_value_many":
        lambda inst, order, b: fn_value_many(iscus_precompute(inst, order, 0, 2), [1.0, b]),
}


class TestBudgetRange:
    """Every single-carrier entry point takes budgets in [0, p_max] only."""

    @pytest.mark.parametrize("budget", [-1.0, -1e-300, math.nan])
    @pytest.mark.parametrize("entry", list(BUDGET_ENTRY_POINTS))
    def test_rejects_negative_and_nan_budgets(self, entry, budget):
        inst = small_instance(75, users=3, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        with pytest.raises(ValueError, match=f"budget {budget!r} is outside"):
            BUDGET_ENTRY_POINTS[entry](inst, order, budget)

    @pytest.mark.parametrize("entry", list(BUDGET_ENTRY_POINTS))
    def test_zero_budget_is_valid(self, entry):
        inst = small_instance(75, users=3, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        out = BUDGET_ENTRY_POINTS[entry](inst, order, 0.0)
        x = out[0] if isinstance(out, tuple) else out
        assert np.all(np.asarray(x) >= 0.0)


SUBCARRIER_ENTRY_POINTS = {
    "carrier_view": lambda inst, order, n: carrier_view(inst, order, n),
    "iscus_precompute": lambda inst, order, n: iscus_precompute(inst, order, n, 2),
    "scpc": lambda inst, order, n: scpc(inst, order, n, (0, 2), 1.0),
    "scus": lambda inst, order, n: scus(inst, order, n, 2, 1.0),
    "sc_value": lambda inst, order, n: sc_value(inst, order, n, np.ones(3)),
    "f_eval": lambda inst, order, n: f_eval(inst, order, n, 0, 1, 1.0),
    "argmax_f": lambda inst, order, n: argmax_f(inst, order, n, 0, 1, 1.0),
}


@pytest.mark.parametrize("n", [-1, 3])
@pytest.mark.parametrize("entry", list(SUBCARRIER_ENTRY_POINTS))
def test_rejects_out_of_range_subcarrier(entry, n):
    # -1 used to read subcarrier N - 1 and N to raise a bare IndexError
    inst = small_instance(76, users=3, carriers=3, max_mux=2)
    order = build_decoding_order(inst)
    iscus_precompute(inst, order, 0, 2)  # a built set must not serve -1 either
    with pytest.raises(ValueError, match=rf"subcarrier {n} is outside \[0, 3\)"):
        SUBCARRIER_ENTRY_POINTS[entry](inst, order, n)


class TestTableSet:
    """iscus_precompute builds all N tables of (instance, order, max_active) at
    once and serves the next calls with the same three from that set."""

    @staticmethod
    def assert_matches_oracle(inst, order, m, tables):
        K = inst.n_users
        for n, t in enumerate(tables):
            _, xopt, take = per_carrier_scus_dp(inst, order, n, m, inst.p_max)
            expect = [per_carrier_backtrack(xopt, take, m, 0, e, K) for e in range(K)]
            assert np.array_equal(t.entry_x, np.stack(expect))
            assert t.max_active == m and t.p_max == inst.p_max

    def test_repeated_calls_return_the_same_tables(self):
        inst = small_instance(80, users=4, carriers=3, max_mux=2)
        order = build_decoding_order(inst)
        first = [iscus_precompute(inst, order, n, 2) for n in range(3)]
        for n in (2, 0, 1, 0):
            assert iscus_precompute(inst, order, n, 2) is first[n]
        self.assert_matches_oracle(inst, order, 2, first)

    def test_other_keys_recompute(self):
        inst = small_instance(81, users=4, carriers=3, max_mux=3)
        order = build_decoding_order(inst)
        first = iscus_precompute(inst, order, 1, 2)
        twin = Instance(weights=inst.weights, bandwidths=inst.bandwidths, gains=inst.gains,
                        noise=inst.noise, p_max=inst.p_max, p_max_carrier=inst.p_max_carrier,
                        delta=inst.delta, max_mux=inst.max_mux)
        for other_inst, other_order, m in ((inst, build_decoding_order(inst), 2),
                                           (inst, order, 3), (twin, order, 2)):
            tables = [iscus_precompute(other_inst, other_order, n, m) for n in range(3)]
            assert tables[1] is not first
            self.assert_matches_oracle(other_inst, other_order, m, tables)
        again = iscus_precompute(inst, order, 1, 2)
        assert again is not first and np.array_equal(again.entry_x, first.entry_x)

    def test_keeps_no_instance_alive(self):
        inst = small_instance(82, users=3, carriers=2, max_mux=2)
        order = build_decoding_order(inst)
        tables = iscus_precompute(inst, order, 0, 2)
        refs = weakref.ref(inst), weakref.ref(order)
        del inst, order
        gc.collect()
        assert refs[0]() is None and refs[1]() is None
        assert tables.entry_x.shape == (3, 3)

    def test_first_call_charges_the_whole_set(self):
        inst = small_instance(83, users=5, carriers=3, max_mux=3)
        order = build_decoding_order(inst)
        with count_ops() as oracle:
            for n in range(3):
                per_carrier_scus_dp(inst, order, n, 3, inst.p_max)
        charged = []
        for n in range(3):
            with count_ops() as counter:
                iscus_precompute(inst, order, n, 3)
            charged.append(counter.total)
        assert charged == [oracle.total, 0, 0]
        with count_ops() as one:
            scus(inst, order, 1, 3, inst.p_max)
        with count_ops() as alone:
            per_carrier_scus_dp(inst, order, 1, 3, inst.p_max)
        assert one.total == alone.total > 0
