"""Optimal single-carrier power control and user selection.

Everything here works on one subcarrier in cumulative-power coordinates.
`scpc` solves power control for a fixed set of active decoding positions;
`scus` additionally selects which (at most M) positions are active, via a
dynamic program over table cells (m, j, i). Both have precomputed variants
(`iscpc_precompute`/`iscus_precompute`) that solve once at the full power
budget and answer any smaller budget by componentwise truncation, which is
what makes the multi-carrier solvers cheap. The selection DP (`_scus_dp`)
and its backtrack (`_entry_columns`) run over a stack of subcarriers: the
first `iscus_precompute` call of an (instance, order, max_active) fills the
tables of all N subcarriers in one batched pass, and that call and the next
ones with the same three are served from it, one subcarrier's table each.
`scus` runs the same DP on its one subcarrier.

F_n is the resulting budget-value function (optimal weighted rate on
subcarrier n as a function of its power budget); it is non-decreasing and
sublinear. Every question about it is answered here over a stack of
subcarriers (`stack_candidates`): `best_values` gives F_n at budgets,
`best_columns` the column that attains it and `left_derivatives` its left
derivative in closed form. All three read F_n through one kernel,
`pinned_values`: a candidate truncated at a budget pins a leading block,
which contributes one log, and the rest is a tail constant built once per
stack. `fn_value_many` and `iscus_eval` ask the first two of one table.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (LN2, DecodingOrder, Instance, argmax_blocks, carrier_view, carrier_views,
                    check_carrier, f_blocks, utility)
from .ops import tally

# per-step tally constants, see ops module docstring
_C_ARGMAX = 6
_C_BLOCK = 6
_C_SWEEP = 6
_C_CELL = 8
_C_LOOKUP = 6
_C_TAIL = 6
_C_DERIV = 4

_SMALLEST = np.nextafter(0.0, 1.0)  # x >= _SMALLEST means x > 0 for x >= 0


def sc_value(instance: Instance, order: DecodingOrder, n: int, x_col: np.ndarray) -> float:
    """Weighted rate achieved on subcarrier n by a cumulative-power column."""
    return float(utility(*carrier_view(instance, order, n), x_col))


def _check_budget(budgets, p_max: float = np.inf) -> None:
    """Reject a negative or NaN budget, and one above a precomputed budget p_max.

    budgets is one budget or a vector of them; the first bad one is named.
    """
    b = np.atleast_1d(budgets)
    bad = ~((b >= 0.0) & (b <= p_max * (1 + 1e-12)))
    if bad.any():
        raise ValueError(f"budget {float(b[bad][0])!r} is outside [0, {p_max!r}]")


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
    _check_budget(p_bar)
    K = instance.n_users
    if active[-1] >= K:
        raise ValueError("active position out of range")

    wp, ep = carrier_view(instance, order, n)[1:3]
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
    _check_budget(p_bar, table.p_max)
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


def _scus_dp(w_n: np.ndarray, wp: np.ndarray, ep: np.ndarray, max_active: int,
             p_bar: float):
    """Fill the (m, j, i) tables of N subcarriers at once, bottom-up in i.

    w_n is (N, 1), wp and ep (N, K); the tables are (N, M + 1, K, K).
    value[n, m, j, i] is the best utility of positions j..K-1 of subcarrier
    n with at most m active, positions j..i forced equal, and xopt[n, m, j, i]
    is that shared value. take[n, m, j, i] says whether position i ends an
    active block: the predecessor cell is then (m - 1, i + 1, i + 1), and
    (m, j, i + 1) otherwise. Cells with m = 0 or i = K-1 are roots. Only i
    is a Python loop; every cell of a column i is filled in one step for all
    n, m and j, with the same float operations as one cell at a time.
    """
    N, K = wp.shape
    M = max_active
    value = np.zeros((N, M + 1, K, K))
    xopt = np.zeros((N, M + 1, K, K))
    take = np.zeros((N, M + 1, K, K), dtype=bool)

    # m = 0: nothing may be active, every position stays at zero power.
    zero_tail = f_blocks(w_n, wp, ep, K - 1, np.zeros((N, K)))
    tally(N * K * _C_BLOCK)
    upper = np.arange(K)[:, None] <= np.arange(K)                      # j <= i
    value[:, 0] = np.where(upper, zero_tail[:, :, None], 0.0)
    tally(N * (K * K // 2) * _C_CELL)

    # i = K-1: the shared value covers the whole tail, costing one active slot.
    x_last = argmax_blocks(wp, ep, K - 1, p_bar)
    v_last = f_blocks(w_n, wp, ep, K - 1, x_last)
    tally(N * K * (_C_ARGMAX + _C_BLOCK))
    value[:, 1:, :, K - 1] = v_last[:, None, :]
    xopt[:, 1:, :, K - 1] = x_last[:, None, :]
    tally(N * M * K * _C_CELL)

    for i in range(K - 2, -1, -1):
        x_star = argmax_blocks(wp, ep, i, p_bar)
        gain = f_blocks(w_n, wp, ep, i, x_star)
        tally(N * (i + 1) * (_C_ARGMAX + _C_BLOCK))
        # every m = 1..M at once, against cell (m - 1, i + 1, i + 1):
        # activating position i must strictly beat leaving it merged and
        # keep the cumulative powers strictly decreasing across i, i+1
        x_star, gain = x_star[:, None, :], gain[:, None, :]             # (N, 1, i + 1)
        v_act = gain + value[:, :M, i + 1, i + 1, None]
        v_inact = value[:, 1:, :i + 1, i + 1]
        act = (v_act > v_inact) & (x_star > xopt[:, :M, i + 1, i + 1, None])
        value[:, 1:, :i + 1, i] = np.where(act, v_act, v_inact)
        xopt[:, 1:, :i + 1, i] = np.where(act, x_star, xopt[:, 1:, :i + 1, i + 1])
        take[:, 1:, :i + 1, i] = act
        tally(N * M * (i + 1) * _C_CELL)
    return value, xopt, take


def _entry_columns(xopt: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Backtrack every subcarrier from every cell (M, 0, e): entry_x (N, K, K).

    The walk from (M, 0, e) sets positions 0..e to xopt[M, 0, e], then
    steps i = e+1, e+2, ... through cells (m, j, i), moving to
    (m - 1, i + 1) whenever take[m, j, i]. A cell that does not take i
    copies xopt from cell i + 1, so xopt[m, j, .] is constant along a block
    and position p > e ends at xopt[m_p, j_p, p], (m_p, j_p) being the walk's
    cell at i = p. All N K walks advance in lockstep over p. The m = 0 plane
    is all zeros and never takes, so a walk that runs out of slots needs no
    early exit.
    """
    N, M1, K, _ = xopt.shape
    e = np.arange(K)
    m = np.full((N, K), M1 - 1)
    j = np.zeros((N, K), dtype=np.int64)
    planes = np.arange(N)[:, None] * M1
    xs, takes = xopt.reshape(-1), take.reshape(-1)
    walked = np.empty((N, K, K))
    for p in range(K):
        cell = ((planes + m) * K + j) * K + p
        walked[:, :, p] = xs[cell]
        step = takes[cell] & (e <= p)                                  # walks under way
        m = m - step
        j = np.where(step, p + 1, j)
    return np.where(e[:, None] >= e, xopt[:, M1 - 1, 0, :, None], walked)


def scus(instance: Instance, order: DecodingOrder, n: int, max_active: int,
         p_bar: float) -> np.ndarray:
    """Optimal cumulative-power column with at most max_active positions on.

    The value it achieves is sc_value of the returned column; feasibility
    means non-increasing entries within [0, p_bar] and at most max_active
    strict drops.
    """
    if max_active < 1:
        raise ValueError("max_active must be >= 1")
    _check_budget(p_bar)
    w_n, wp, ep, _ = carrier_view(instance, order, n)
    _, xopt, take = _scus_dp(np.array([[w_n]]), wp[None], ep[None], max_active, p_bar)
    return _entry_columns(xopt, take)[0, 0]


def _table_set(instance: Instance, order: DecodingOrder, max_active: int) -> tuple:
    """The ScusTables of every subcarrier, from one batched DP and backtrack."""
    w_n, wp, ep, offset = carrier_views(instance, order)
    _, xopt, take = _scus_dp(w_n[:, None], wp, ep, max_active, instance.p_max)
    entry_x = _entry_columns(xopt, take)
    entry_x.flags.writeable = False
    return tuple(map(functools.partial(ScusTables, max_active, instance.p_max),
                     w_n, wp, ep, offset, entry_x))


# The last table set built: weak references to its instance and order, its
# max_active and its tables. Instance and DecodingOrder are frozen with
# read-only arrays, so their identity fixes what the tables hold.
_last_set = (lambda: None, lambda: None, 0, ())


def iscus_precompute(instance: Instance, order: DecodingOrder, n: int,
                     max_active: int) -> ScusTables:
    """Run the selection DP once at the full budget and collect candidates.

    Candidate e is the optimal solution forced to share one value over
    positions 0..e; by the structure of the increasing first block that
    shared value is always the full budget, so truncating candidates covers
    every smaller budget exactly.

    Callers ask for one subcarrier's tables at a time, but the DP runs for
    all N of (instance, order, max_active) in one batched pass, on the first
    call, which also charges the whole set's ops. The next calls with the
    same three return that set's tables, the same objects, until another
    set is built. The set refers to its instance and order weakly, so it
    keeps neither alive.
    """
    global _last_set
    if max_active < 1:
        raise ValueError("max_active must be >= 1")
    check_carrier(instance, n)
    inst_ref, order_ref, last_active, tables = _last_set
    if inst_ref() is not instance or order_ref() is not order or last_active != max_active:
        tables = _table_set(instance, order, max_active)
        _last_set = (weakref.ref(instance), weakref.ref(order), max_active, tables)
    return tables[n]


def candidate_values(w_n, wp, ep, offset, entry_x: np.ndarray,
                     budgets: np.ndarray) -> np.ndarray:
    """Weighted rate of candidate columns entry_x truncated at budgets.

    budgets broadcasts against entry_x without its position axis. This is
    the direct form, 2 K logs per candidate and budget; the solvers use
    `pinned_values`, and the tests hold it to this one.
    """
    vals = utility(w_n, wp, ep, offset, np.minimum(entry_x, budgets[..., None]))
    # no power, no rate: avoid cancellation residue
    return np.where(budgets <= 0.0, 0.0, vals)


class Candidates(NamedTuple):
    """F_n inputs of N stacked subcarriers: E candidates of K positions each.

    Once its positions 0..l are pinned at a budget b, candidate e of
    subcarrier n is worth pins[n, e, l] = (s, c, t) as s * log2(b + c) + t:
    s = w_n * wp[l], c = ep[l] and t = w_n * tails[e, l] + offset.
    """

    entry_x: np.ndarray  # (N, E, K)
    pins: np.ndarray     # (N, E, K, 3)

    def carrier(self, n: int) -> "Candidates":
        """Subcarrier n alone, still stacked (views, no copies)."""
        return Candidates(*(a[n:n + 1] for a in self))


def pinned_tails(wp: np.ndarray, ep: np.ndarray, entry_x: np.ndarray) -> np.ndarray:
    """Utility of each candidate after its pinned block: tails[n, e, l].

    Truncating candidate e at a budget b pins its positions 0..l to b. In
    `utility` the t1 and t2 terms of the pinned block cancel but for
    wp[l] * log2(b + ep[l]); what is left is one term per later position i,
    wp[i] * log2(x[i] + ep[i]) - wp[i-1] * log2(x[i] + ep[i-1]), and
    tails[n, e, l] sums them over i > l. wp and ep are (N, K).
    """
    x = entry_x[..., 1:]
    wp, ep = wp[:, None, :], ep[:, None, :]
    terms = wp[..., 1:] * np.log2(x + ep[..., 1:]) - wp[..., :-1] * np.log2(x + ep[..., :-1])
    tally(terms.size * _C_TAIL)
    tails = np.zeros(entry_x.shape)
    tails[..., :-1] = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
    return tails


def stack_candidates(tables: list) -> Candidates:
    """Stack the tables of N subcarriers and build their tails in one pass."""
    wp = np.stack([t.wp for t in tables])
    ep = np.stack([t.ep for t in tables])
    entry_x = np.stack([t.entry_x for t in tables])
    w_n = np.array([t.w_n for t in tables])[:, None, None]
    offset = np.array([t.offset for t in tables])[:, None, None]
    pins = np.empty(entry_x.shape + (3,))
    pins[..., 0] = w_n * wp[:, None, :]
    pins[..., 1] = ep[:, None, :]
    pins[..., 2] = w_n * pinned_tails(wp, ep, entry_x) + offset
    return Candidates(entry_x=entry_x, pins=pins)


def pinned_index(entry_x: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Last pinned position l = count(entry_x[n, e] >= b) - 1, (N, E, L).

    entry_x is (N, E, K) with non-increasing rows, budgets (N, L) positive
    and at most each row's first entry, so l >= 0. Budgets sorted along L
    are counted from how many of them each position reaches, in
    O(E (K log L + L)); others are compared position by position. Both
    give the same index.
    """
    N, E, K = entry_x.shape
    L = budgets.shape[1]
    if L > 1 and np.all(budgets[:, 1:] >= budgets[:, :-1]):
        # reach[n, e, i] budgets are <= entry_x[n, e, i]; count(g) = #{i: reach > g}
        reach = np.stack([np.searchsorted(bn, xn, side="right")
                          for bn, xn in zip(budgets, entry_x)])
        rows = np.arange(N * E).reshape(N, E, 1) * (L + 1)
        hist = np.bincount((reach + rows).ravel(), minlength=N * E * (L + 1))
        return K - 1 - np.cumsum(hist.reshape(N, E, L + 1)[..., :L], axis=-1)
    reached = entry_x[:, :, None, :] >= budgets[:, None, :, None]
    # rows are non-increasing: the count is the first position not reached
    return np.where(reached[..., -1], K, np.argmin(reached, axis=-1)) - 1


def pinned_values(cands: Candidates, budgets: np.ndarray):
    """Weighted rate of every candidate truncated at every budget, one log each.

    budgets is (N, L). Candidate e pins positions 0..l at budget b (see
    pinned_index) and is worth pins[e, l] at b (see Candidates). Returns
    the values (N, E, L) and the pins they used (N, E, L, 3). A budget above
    the full one truncates nothing; one at or below zero is worth 0 and
    pins the powered positions, as the limit from above does. Every F_n
    evaluator looks its candidates up here.
    """
    N, E, K = cands.entry_x.shape
    b = np.minimum(budgets, cands.entry_x[:, 0, :1])                     # (N, L)
    last = pinned_index(cands.entry_x, np.maximum(b, _SMALLEST))
    rows = np.arange(0, N * E * K, K).reshape(N, E, 1)
    pins = np.take(cands.pins.reshape(-1, 3), last + rows, axis=0)
    b = b[:, None, :]
    vals = pins[..., 0] * np.log2(b + pins[..., 1]) + pins[..., 2]
    tally(last.size * _C_LOOKUP)
    # no power, no rate: avoid cancellation residue
    return np.where(b <= 0.0, 0.0, vals), pins


def best_values(cands: Candidates, budgets: np.ndarray) -> np.ndarray:
    """F_n of every stacked subcarrier at every budget: budgets and result (N, L)."""
    return pinned_values(cands, budgets)[0].max(axis=1)


def best_columns(cands: Candidates, budgets: np.ndarray):
    """Best truncated candidate of every subcarrier at its budget (N,).

    Returns the columns (N, K) and their values (N,); ties between
    candidates go to the shorter shared prefix.
    """
    vals = pinned_values(cands, budgets[:, None])[0][..., 0]            # (N, E)
    rows = np.arange(vals.shape[0])
    best = np.argmax(vals, axis=1)
    return np.minimum(cands.entry_x[rows, best], budgets[:, None]), vals[rows, best]


def left_derivatives(cands: Candidates, budgets: np.ndarray) -> np.ndarray:
    """Left derivative of F_n at its budget, for N stacked subcarriers.

    budgets is (N,). Only the pinned block of a candidate moves with the
    budget, so its slope is the first-block marginal rate at its last
    position l. The selected candidate gives the derivative; at a zero
    budget the selection is resolved in the limit from above, by the
    steepest candidate.
    """
    vals, pins = pinned_values(cands, budgets[:, None])
    vals, pins = vals[..., 0], pins[..., 0, :]                          # (N, E), (N, E, 3)
    rows = np.arange(vals.shape[0])
    slopes = pins[..., 0] / ((budgets[:, None] + pins[..., 1]) * LN2)
    zero = budgets <= 0.0
    tally(budgets.size * _C_DERIV)
    return np.where(zero, slopes.max(axis=1), slopes[rows, np.argmax(vals, axis=1)])


def fn_value_many(tables: ScusTables, budgets: np.ndarray) -> np.ndarray:
    """F_n of one subcarrier on a whole vector of budgets in one pass."""
    budgets = np.asarray(budgets, dtype=float)
    _check_budget(budgets, tables.p_max)
    return best_values(stack_candidates([tables]), budgets[None, :])[0]


def iscus_eval(tables: ScusTables, p_bar: float):
    """Best truncated candidate at the given budget: (column x, value).

    Matches scus at the same budget in value; ties between candidates go to
    the shorter shared prefix.
    """
    _check_budget(p_bar, tables.p_max)
    x, vals = best_columns(stack_candidates([tables]), np.array([float(p_bar)]))
    return x[0], float(vals[0])
