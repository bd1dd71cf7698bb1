"""Optimal single-carrier power control and user selection.

Everything here works on one subcarrier in cumulative-power coordinates.
`scpc` solves power control for a fixed set of active decoding positions;
`scus` additionally selects which (at most M) positions are active, via a
dynamic program over table cells (m, j, i). Both have precomputed variants
(`iscpc_precompute`/`iscus_precompute`) that solve once at the full power
budget and answer any smaller budget by componentwise truncation, which is
what makes the multi-carrier solvers cheap.

`fn_value` is the resulting budget-value function F_n (optimal weighted
rate on subcarrier n as a function of its power budget); it is
non-decreasing and sublinear, and `fn_left_derivative` evaluates its left
derivative in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (LN2, DecodingOrder, Instance, a_const, argmax_blocks, carrier_view,
                    f_blocks, utility)
from .ops import tally

# per-step tally constants, see ops module docstring
_C_ARGMAX = 6
_C_BLOCK = 6
_C_SWEEP = 6
_C_CELL = 8
_C_LOOKUP = 6
_C_DERIV = 4


def sc_value(instance: Instance, order: DecodingOrder, n: int, x_col: np.ndarray) -> float:
    """Weighted rate achieved on subcarrier n by a cumulative-power column."""
    return float(utility(*carrier_view(instance, order, n), a_const(instance, order, n), x_col))


def expand_active(active: tuple, x_active: np.ndarray, n_users: int) -> np.ndarray:
    """Spread active-position values onto the full cumulative-power column.

    Positions up to and including each active position share its value;
    positions after the last active one are zero.
    """
    x = np.zeros(n_users)
    lo = 0
    for idx, pos in enumerate(active):
        x[lo:pos + 1] = x_active[idx]
        lo = pos + 1
    return x


# ---------------------------------------------------------------------------
# Power control for a fixed active set.


def scpc(instance: Instance, order: DecodingOrder, n: int, active: tuple,
         p_bar: float) -> np.ndarray:
    """Optimal cumulative powers for the given active decoding positions.

    Returns one value per active position, non-increasing and within
    [0, p_bar]. Positions between consecutive active ones are implied equal
    (use expand_active for the full column). The sweep assigns each block
    its closed-form maximizer and, whenever that would break monotonicity,
    backtracks and merges with preceding blocks; the comparison is exact
    floating comparison because both sides come from the same closed forms.
    """
    if any(a >= b for a, b in zip(active, active[1:])) or not active:
        raise ValueError("active positions must be non-empty and strictly increasing")
    K = instance.n_users
    if active[-1] >= K:
        raise ValueError("active position out of range")

    _, wp, ep = carrier_view(instance, order, n)
    # merged block j..i spans underlying positions starts[j] .. active[i]
    starts = (0,) + tuple(a + 1 for a in active[:-1])
    count = len(active)
    x = np.zeros(count)
    for i in range(count):
        by_start = argmax_blocks(wp, ep, active[i], p_bar)
        x_star = by_start[starts[i]]
        tally(_C_ARGMAX)
        j = i - 1
        while j >= 0 and x[j] < x_star:
            x_star = by_start[starts[j]]
            j -= 1
            tally(_C_ARGMAX + _C_SWEEP)
        x[j + 1:i + 1] = x_star
        tally(_C_SWEEP)
    return x


@dataclass(frozen=True)
class IscpcTable:
    """Full-budget power control solution reused for any smaller budget."""

    p_max: float
    x_max: np.ndarray


def iscpc_precompute(instance: Instance, order: DecodingOrder, n: int,
                     active: tuple) -> IscpcTable:
    """Solve power control once at the full budget and keep the solution."""
    x_max = scpc(instance, order, n, active, instance.p_max)
    x_max.flags.writeable = False
    return IscpcTable(p_max=instance.p_max, x_max=x_max)


def iscpc_eval(table: IscpcTable, p_bar: float) -> np.ndarray:
    """Optimal active-position powers for any budget <= the precompute budget.

    Truncating the full-budget solution at p_bar is optimal because every
    block maximizer is itself a clamp of a budget-free stationary point.
    """
    if p_bar > table.p_max * (1 + 1e-12):
        raise ValueError("budget exceeds the precomputed budget")
    tally(len(table.x_max) * _C_SWEEP)
    return np.minimum(table.x_max, p_bar)


# ---------------------------------------------------------------------------
# Joint user selection and power control (dynamic program).


@dataclass(frozen=True)
class ScusTables:
    """Candidate solutions of the selection DP, all F_n needs of a subcarrier.

    entry_x[e] is the full-budget solution forced to share x over positions
    0..e, one candidate per prefix length; every smaller budget is served by
    the best truncated candidate.
    """

    max_active: int
    p_max: float
    w_n: float
    wp: np.ndarray
    ep: np.ndarray
    offset: float  # additive constant turning utilities into weighted rates
    entry_x: np.ndarray

    @property
    def n_users(self) -> int:
        return self.wp.size


def _scus_dp(instance: Instance, order: DecodingOrder, n: int, max_active: int,
             p_bar: float):
    """Fill the (m, j, i) tables bottom-up in i.

    value[m, j, i] is the best utility of positions j..K-1 with at most m
    active, positions j..i forced equal, and xopt[m, j, i] is that shared
    value. take[m, j, i] says whether position i ends an active block: the
    predecessor cell is then (m - 1, i + 1, i + 1), and (m, j, i + 1)
    otherwise. Cells with m = 0 or i = K-1 are roots.
    """
    K = instance.n_users
    M = max_active
    w_n, wp, ep = carrier_view(instance, order, n)
    value = np.zeros((M + 1, K, K))
    xopt = np.zeros((M + 1, K, K))
    take = np.zeros((M + 1, K, K), dtype=bool)

    # m = 0: nothing may be active, every position stays at zero power.
    zero_tail = f_blocks(w_n, wp, ep, K - 1, np.zeros(K))
    tally(K * _C_BLOCK)
    for i in range(K):
        value[0, :i + 1, i] = zero_tail[:i + 1]
    tally(K * K // 2 * _C_CELL)

    # i = K-1: the shared value covers the whole tail, costing one active slot.
    x_last = argmax_blocks(wp, ep, K - 1, p_bar)
    v_last = f_blocks(w_n, wp, ep, K - 1, x_last)
    tally(K * (_C_ARGMAX + _C_BLOCK))
    value[1:, :, K - 1] = v_last
    xopt[1:, :, K - 1] = x_last
    tally(M * K * _C_CELL)

    for i in range(K - 2, -1, -1):
        x_star = argmax_blocks(wp, ep, i, p_bar)
        gain = f_blocks(w_n, wp, ep, i, x_star)
        tally((i + 1) * (_C_ARGMAX + _C_BLOCK))
        for m in range(1, M + 1):
            v_act = gain + value[m - 1, i + 1, i + 1]
            v_inact = value[m, :i + 1, i + 1]
            # activating position i must strictly beat leaving it merged and
            # keep the cumulative powers strictly decreasing across i, i+1
            act = (v_act > v_inact) & (x_star > xopt[m - 1, i + 1, i + 1])
            value[m, :i + 1, i] = np.where(act, v_act, v_inact)
            xopt[m, :i + 1, i] = np.where(act, x_star, xopt[m, :i + 1, i + 1])
            take[m, :i + 1, i] = act
            tally((i + 1) * _C_CELL)
    return value, xopt, take


def _backtrack(xopt, take, m: int, j: int, i: int, n_users: int) -> np.ndarray:
    """Recover the full solution column from a starting cell."""
    x = np.zeros(n_users)
    while True:
        x[j:i + 1] = xopt[m, j, i]
        if i == n_users - 1 or m == 0:
            return x
        if take[m, j, i]:
            m, j = m - 1, i + 1
        i += 1


def scus(instance: Instance, order: DecodingOrder, n: int, max_active: int,
         p_bar: float) -> np.ndarray:
    """Optimal cumulative-power column with at most max_active positions on.

    The value it achieves is sc_value of the returned column; feasibility
    means non-increasing entries within [0, p_bar] and at most max_active
    strict drops.
    """
    if max_active < 1:
        raise ValueError("max_active must be >= 1")
    _, xopt, take = _scus_dp(instance, order, n, max_active, p_bar)
    return _backtrack(xopt, take, max_active, 0, 0, instance.n_users)


def iscus_precompute(instance: Instance, order: DecodingOrder, n: int,
                     max_active: int) -> ScusTables:
    """Run the selection DP once at the full budget and collect candidates.

    Candidate e is the optimal solution forced to share one value over
    positions 0..e; by the structure of the increasing first block that
    shared value is always the full budget, so truncating candidates covers
    every smaller budget exactly.
    """
    if max_active < 1:
        raise ValueError("max_active must be >= 1")
    K = instance.n_users
    _, xopt, take = _scus_dp(instance, order, n, max_active, instance.p_max)
    entry_x = np.empty((K, K))
    for e in range(K):
        entry_x[e] = _backtrack(xopt, take, max_active, 0, e, K)
    entry_x.flags.writeable = False
    w_n, wp, ep = carrier_view(instance, order, n)
    return ScusTables(max_active=max_active, p_max=instance.p_max, w_n=w_n, wp=wp, ep=ep,
                      offset=a_const(instance, order, n), entry_x=entry_x)


def candidate_values(w_n, wp, ep, offset, entry_x: np.ndarray,
                     budgets: np.ndarray) -> np.ndarray:
    """Weighted rate of candidate columns entry_x truncated at budgets.

    budgets broadcasts against entry_x without its position axis. Every F_n
    evaluator looks its candidates up here.
    """
    clipped = np.minimum(entry_x, budgets[..., None])
    vals = utility(w_n, wp, ep, offset, clipped)
    tally(clipped.size * _C_LOOKUP)
    # no power, no rate: avoid cancellation residue
    return np.where(budgets <= 0.0, 0.0, vals)


def _entry_values(tables: ScusTables, budgets: np.ndarray) -> np.ndarray:
    """Weighted rate of every truncated candidate at every budget, (E, L)."""
    return candidate_values(tables.w_n, tables.wp, tables.ep, tables.offset,
                            tables.entry_x[:, None, :], budgets[None, :])


def iscus_eval(tables: ScusTables, p_bar: float):
    """Best truncated candidate at the given budget: (column x, value).

    Matches scus at the same budget in value; ties between candidates go to
    the shorter shared prefix.
    """
    if p_bar > tables.p_max * (1 + 1e-12):
        raise ValueError("budget exceeds the precomputed budget")
    vals = _entry_values(tables, np.array([float(p_bar)]))[:, 0]
    e = int(np.argmax(vals))
    return np.minimum(tables.entry_x[e], p_bar), float(vals[e])


def fn_value(tables: ScusTables, p_bar: float) -> float:
    """Budget-value function F_n: optimal weighted rate at budget p_bar."""
    vals = _entry_values(tables, np.array([float(p_bar)]))
    return float(vals.max())


def fn_value_many(tables: ScusTables, budgets: np.ndarray) -> np.ndarray:
    """F_n on a whole vector of budgets in one pass."""
    vals = _entry_values(tables, np.asarray(budgets, dtype=float))
    return vals.max(axis=0)


def left_derivatives(w_n: np.ndarray, wp: np.ndarray, ep: np.ndarray, entry_x: np.ndarray,
                     vals: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Left derivative of F_n at its budget, for N stacked subcarriers.

    entry_x (N, E, K) holds the candidates and vals (N, E) their values at
    the budgets (N,). In a candidate, let l be the last powered position
    still pinned at the budget; only that leading merged block moves with
    the budget, so the slope is the first-block marginal rate at l. The
    selected candidate gives the derivative; at a zero budget the selection
    is resolved in the limit from above, by the steepest candidate.
    """
    # position 0 of every candidate holds the full budget, so l always exists
    moving = (entry_x >= budgets[:, None, None]) & (entry_x > 0.0)
    last = entry_x.shape[-1] - 1 - np.argmax(moving[..., ::-1], axis=2)     # (N, E)
    rows = np.arange(entry_x.shape[0])
    r = rows[:, None]
    slopes = w_n[:, None] * wp[r, last] / ((budgets[:, None] + ep[r, last]) * LN2)
    zero = budgets <= 0.0
    tally(budgets.size * _C_DERIV)
    return np.where(zero, slopes.max(axis=1), slopes[rows, np.argmax(vals, axis=1)])


def fn_left_derivative(tables: ScusTables, p_bar: float) -> float:
    """Left derivative of F_n at p_bar (see left_derivatives)."""
    if p_bar < 0 or p_bar > tables.p_max * (1 + 1e-12):
        raise ValueError("budget out of range")
    budgets = np.array([min(p_bar, tables.p_max)], dtype=float)
    vals = np.zeros((1, tables.n_users))  # a zero budget needs no lookup
    if p_bar > 0.0:
        vals = _entry_values(tables, budgets).T
    return float(left_derivatives(np.array([tables.w_n]), tables.wp[None], tables.ep[None],
                                  tables.entry_x[None], vals, budgets)[0])
