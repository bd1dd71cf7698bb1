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
`best_columns` the column that attains it, `left_derivatives` its left
derivative in closed form and `lagrangian_maxima` the max of
F_n(b) - lam * b over b, block by block in closed form. The stack holds
each subcarrier's distinct candidates only, E' <= K of them, which answer
as all K do, bit for bit.
The first three read F_n through one kernel, `pinned_values`: a candidate
truncated at a budget pins a leading block, which contributes one log, and
the rest is a tail constant built once per stack, so a budget costs E'
logs per subcarrier. `pinned_index` finds it by one comparison, for
every read; `best_values` reads at most _READ_BUDGETS budgets at a time, a
whole grid included. The blocks that hold some budget are gathered once
per stack (`pinned_blocks`) for `lagrangian_maxima` and for opt's grid
reads: `grid_blocks` gives each block's grid indices, and `block_values`
reads a block's candidate at them, bit for bit as pinned_values does, since
both value a pin by `_pin_value`. `fn_value_many` and `iscus_eval` ask the
first two of one table.
"""

from __future__ import annotations

import functools
import itertools
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
_C_DUAL = 8
_C_GATHER = 2

_SMALLEST = np.nextafter(0.0, 1.0)  # x >= _SMALLEST means x > 0 for x >= 0
# best_values reads at most _READ_BUDGETS budgets at a time (one at least)
_READ_BUDGETS = 2 ** 12


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


class Candidates(NamedTuple):
    """F_n inputs of N stacked subcarriers: E candidates of K positions each.

    Each subcarrier holds its distinct candidates, in their order, padded
    to E with copies of its last one (see stack_candidates). Once its
    positions 0..l are pinned at a budget b, candidate e of subcarrier n is
    worth pins[n, e, l] = (s, c, t) as s * log2(b + c) + t: s = w_n * wp[l],
    c = ep[l] and t = w_n * tails[e, l] + offset.
    """

    entry_x: np.ndarray  # (N, E, K)
    pins: np.ndarray     # (N, E, K, 3)


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
    """Stack the distinct candidates of N subcarriers and build their tails in one pass.

    Each subcarrier keeps the entry_x rows that differ from the row before
    them, in their order, and is padded to the stack's width E with copies
    of its last row, which equals its last kept row. Rows are compared as
    float64 bit patterns, so 0.0 and -0.0 stay apart. A row's slot is the
    number of kept rows up to it, less one, so a copy writes the bits of
    the row it copies to that row's slot.

    Every F_n reader answers as over all K rows, bit for bit. Equal rows
    have equal pins, since the tails are an elementwise log2 and a per-row
    cumsum. Among equal values argmax takes the first row; the first of a
    run of copies is kept, and kept rows keep their order, so best_columns
    and left_derivatives pick the same row. A padded row repeats an earlier
    one, so it is never picked first. The zero-budget derivative is a max,
    which copies do not change.
    """
    wp = np.stack([t.wp for t in tables])
    ep = np.stack([t.ep for t in tables])
    full = np.stack([t.entry_x for t in tables])
    bits = full.view(np.int64)
    slot = np.zeros(full.shape[:2], dtype=np.int64)
    np.cumsum(np.any(bits[:, 1:] != bits[:, :-1], axis=-1), axis=1, out=slot[:, 1:])
    entry_x = np.repeat(full[:, -1:], slot[:, -1].max() + 1, axis=1)
    entry_x[np.arange(len(tables))[:, None], slot] = full
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
    and at most each row's first entry, so l >= 0. Budgets go in any order;
    `best_values` bounds the (N, E, L, K) comparison.
    """
    reached = entry_x[:, :, None, :] >= budgets[:, None, :, None]
    # rows are non-increasing: the count is the first position not reached
    return np.where(reached[..., -1], entry_x.shape[2], np.argmin(reached, axis=-1)) - 1


def _pin_value(s, c, t, b):
    """A pin (s, c, t) at budget b (see Candidates): every F_n read's one formula."""
    return s * np.log2(b + c) + t


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
    vals = _pin_value(*pins.transpose(3, 0, 1, 2), b)
    tally(last.size * _C_LOOKUP)
    # no power, no rate: avoid cancellation residue
    return np.where(b <= 0.0, 0.0, vals), pins


def best_values(cands: Candidates, budgets: np.ndarray) -> np.ndarray:
    """F_n of every stacked subcarrier at every budget: budgets and result (N, L).

    Reads blocks of at most _READ_BUDGETS budgets (whole rows, or spans of
    one row), each cell on its own, so its scratch is bounded and its bits
    are one read's.
    """
    N, L = budgets.shape
    cols = max(1, min(L, _READ_BUDGETS))
    rows = max(1, _READ_BUDGETS // cols)
    out = np.empty((N, L))
    for n, l in itertools.product(range(0, N, rows), range(0, L, cols)):
        block = Candidates(cands.entry_x[n:n + rows], cands.pins[n:n + rows])
        vals = pinned_values(block, budgets[n:n + rows, l:l + cols])[0]
        vals.max(axis=1, out=out[n:n + rows, l:l + cols])
    return out


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


class Blocks(NamedTuple):
    """The non-empty pinned blocks of N stacked subcarriers, padded to a common width B.

    Row n holds, in C order of (e, l), every block entry_x[n, e, l + 1] < b <=
    entry_x[n, e, l] of subcarrier n, entry_x[n, e, K] being 0: there
    candidate e pins positions 0..l (see pinned_index) and is worth
    s * log2(b + c) + t (see Candidates), which is concave in b. A pad repeats
    its row's last block with low = top, an empty block.
    """

    low: np.ndarray   # (N, B)
    top: np.ndarray   # (N, B)
    pins: np.ndarray  # (N, B, 3)


def pinned_blocks(cands: Candidates) -> Blocks:
    """Gather the non-empty blocks of a stack once, for every lam and grid read that follows.

    They are 4 to 26 % of the (n, e, l) cells on the workload shapes; the
    rest hold no budget, so no F_n reader lands there.
    """
    x = cands.entry_x
    N = x.shape[0]
    low = np.zeros_like(x)
    low[..., :-1] = x[..., 1:]
    rows, cells = np.nonzero((low < x).reshape(N, -1))
    tally(x.size * _C_GATHER)
    count = np.bincount(rows, minlength=N)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    at = np.repeat(cells[np.cumsum(count) - 1][:, None], count.max(), axis=1)
    at[rows, slot] = cells
    flat = np.arange(N)[:, None]
    top = x.reshape(N, -1)[flat, at]
    pad = np.arange(at.shape[1]) >= count[:, None]
    return Blocks(low=np.where(pad, top, low.reshape(N, -1)[flat, at]), top=top,
                  pins=cands.pins.reshape(N, -1, 3)[flat, at])


def lagrangian_maxima(blocks: Blocks, caps: np.ndarray):
    """The function lam -> (phi_n(lam), b_n(lam)), (N,) each.

    phi_n(lam) is the max of F_n(b) - lam * b over 0 <= b <= cap_n and
    b_n(lam) its maximizer. On block (e, l) of `pinned_blocks`, below cap_n,
    candidate e is worth s * log2(b + c) + t, concave in b, so its best b
    there is the stationary point s / (lam ln 2) - c clipped to the block,
    and phi_n is the best of these over every block and of b = 0, worth 0
    (pinned_values' rule for a zero budget). At lam = 0, or one so small
    that s / lam overflows, every stationary point is +inf and clips to the
    top of its block. Ties go to b = 0, then to the first (e, l). The cells
    that hold no block are -inf in a reading over every (n, e, l), so
    dropping them changes no value and no tie. What does not depend on lam
    (the capped tops, the blocks left below their caps and the pins' three
    planes) is laid out once here, for every lam of a search.
    """
    low = blocks.low
    top = np.minimum(blocks.top, caps[:, None])
    live = low < top
    s, c, t = blocks.pins.transpose(2, 0, 1).copy()
    rows = np.arange(low.shape[0])

    def at(lam: float):
        with np.errstate(divide="ignore", over="ignore"):
            b = np.minimum(np.maximum(s / (lam * LN2) - c, low), top)
        vals = np.where(live & (b > 0.0), _pin_value(s, c, t, b) - lam * b, -np.inf)
        tally(low.size * _C_DUAL)
        best = vals.argmax(axis=1)
        phi = vals[rows, best]
        return np.maximum(phi, 0.0), np.where(phi > 0.0, b[rows, best], 0.0)

    return at


class GridBlocks(NamedTuple):
    """The pinned blocks that hold grid budgets, flat: grid indices lo..hi lie in block g.

    carrier[g] is its subcarrier n and full[g] that subcarrier's full budget
    entry_x[n, 0, 0], which clips every budget pinned_values reads.
    """

    carrier: np.ndarray  # (G,)
    lo: np.ndarray       # (G,)
    hi: np.ndarray       # (G,)
    pins: np.ndarray     # (G, 3)
    full: np.ndarray     # (G,)


def grid_blocks(blocks: Blocks, full: np.ndarray, lmax: np.ndarray, delta: float) -> GridBlocks:
    """The blocks holding some grid budget l * delta, 1 <= l <= lmax_n, with their grid ranges.

    pinned_values reads index l at b = min(l * delta, full_n), as float
    products, and puts it in the block low < b <= top. So block g holds
    the l from last(low) + 1 to last(top), last(v) being the largest l <=
    lmax_n with min(l * delta, full_n) <= v. Floor(v / delta) is within one
    of it, and a comparison of the float products on each side places it
    exactly, so every grid index lands in the block pinned_index gives it.
    """
    v = np.stack((blocks.low, blocks.top))
    cap = lmax[:, None]
    last = np.floor(np.minimum(v / delta, cap)).astype(np.int64)
    last -= last * delta > v
    last += (last < cap) & ((last + 1) * delta <= v)
    last = np.where(v >= full[:, None], cap, last)
    tally(v.size * _C_LOOKUP)
    n, g = np.nonzero(last[0] < last[1])
    return GridBlocks(carrier=n, lo=last[0, n, g] + 1, hi=last[1, n, g],
                      pins=blocks.pins[n, g], full=full[n])


def block_values(grid: GridBlocks, which: np.ndarray, ls: np.ndarray, delta: float) -> np.ndarray:
    """Candidate values on grid blocks `which` at grid indices ls in them, like shapes.

    Each is s * log2(min(l * delta, full) + c) + t, the read pinned_values
    makes of that candidate at l, through the same `_pin_value`.
    """
    tally(ls.size * _C_LOOKUP)
    return _pin_value(*grid.pins.T[:, which], np.minimum(ls * delta, grid.full[which]))


def fn_value_many(tables: ScusTables, budgets: np.ndarray) -> np.ndarray:
    """F_n of one subcarrier on a vector of budgets, in any order, in bounded scratch."""
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
