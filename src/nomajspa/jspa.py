"""Joint subcarrier and power allocation over per-subcarrier budget vectors.

With the single-carrier budget-value functions F_n precomputed, the joint
problem reduces to splitting the cellular power budget across subcarriers:
maximize sum_n F_n(b_n) subject to sum_n b_n <= p_max and 0 <= b_n <= cap_n.

Four solvers are provided:

* `grad_jspa`        projected gradient ascent with a bounded Brent line search,
* `opt_jspa`         exact optimum on the delta grid (knapsack DP by weights),
* `eps_jspa`         (1 - eps)-approximation (profit scaling + DP by profits),
* `brute_force_jspa` exhaustive grid enumeration, used as a test oracle.

The discretized split is a multiple-choice knapsack: class n holds items
(weight l*delta, profit F_n(l*delta)) for l = 0..J, at most one item per
class, knapsack capacity p_max. opt's DP by weights relaxes a class by
divide and conquer over monotone argmaxes on each concave piece of its
profits, O(J log J) cells per piece, until the open nodes fit a fixed cell
budget; then one pass values every level of them over its window. A small
grid fits at the root. Only a class of many pieces, or one whose near ties
keep the windows wide, values every level over every item, O(J^2), in row
chunks. All make the same choices bit for bit: a pivot level bounds the
others by its near ties, never by one argmax.

eps keeps, per class, the first grid item reaching each multiple of its
profit scale. It reads them off the whole grid in one F_n call where that
values few enough budgets, and otherwise by a lockstep binary search that
keeps only what it probed; grid profits are non-decreasing, so both pick
the same items. Its DP by profits relaxes a class's items a chunk at a
time, in integer arithmetic, with the per-item loop's tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Instance, grid_levels
from .ops import tally
# fn_value_many and iscus_eval are no solver's path any more, but they stay
# names of this module: perfbench traces each layer at the name it is called by
from .single_carrier import (fn_value_many, iscus_eval,  # noqa: F401
                             best_columns, best_values, left_derivatives, stack_candidates)

_C_KNAP_W = 2   # DP by weights, per (level, item) cell inspected
_C_KNAP_P = 3   # DP by profits, per candidate item
_C_PROJ = 3     # projection, per coordinate per clipped-sum evaluation
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step, of the larger part
_NEAR_TIE = 8.0 * 2.0 ** -53  # a pivot row's near-tie band, relative to its max
# opt stops dividing a class once its open nodes span at most _DENSE_CELLS cells
# (rows times window columns) and values every row of them: nodes of about 100
# rows on J = 200, 30 on J = 1000 and 7 on J = 4000. Budgets of 2^14 and 2^15
# timed best on J = 1000 and 4000, and 2^15 lets J = 200 finish after one depth;
# the scratch is about 25 bytes per cell. It values every level of a class over
# every item, in _finish's slices, when _SCAN_PIECES * pieces^2 > J + 1, or
# when one depth's windows pass _MAX_WIDTH * (J + 1) cells per piece
_DENSE_CELLS = 2 ** 15
_SCAN_PIECES = 4
_MAX_WIDTH = 4
# eps reads a class's whole grid where that values at most _GRID_PER_PROBE times
# as many budgets as its lockstep search may; one whole-grid call was measured
# faster up to about 1.4 times as many (K = 40, 1600 targets) and past 16 times
# (K = 5, 64 targets). Its DP by profits relaxes items in chunks of at most
# _DP_CELLS candidate weights (one item at least), so its scratch is O(T) cells
# for T targets, not O(items * T); chunks of 10 to 300 items timed alike on
# every workload shape
_GRID_PER_PROBE = 1.5
_DP_CELLS = 2 ** 16

BRUTE_FORCE_LIMIT = 10 ** 7


@dataclass
class JspaSolution:
    """Result of one joint allocation solve.

    budgets is the per-subcarrier power split (watts), x the cumulative-power
    matrix (K, N) realizing it, wsr the achieved weighted sum-rate in bits/s.
    converged is False only when gradient ascent hit its iteration cap.
    """

    solver: str
    budgets: np.ndarray
    x: np.ndarray
    wsr: float
    converged: bool = True
    iterations: int = 0
    history: list = field(default_factory=list)


def _solution(objective: "BudgetObjective", budgets: np.ndarray, solver: str,
              **kw) -> JspaSolution:
    budgets = np.asarray(budgets, dtype=float)
    x, total = objective.columns(budgets)
    return JspaSolution(solver=solver, budgets=budgets, x=x, wsr=total, **kw)


def budget_feasible(instance: Instance, budgets: np.ndarray) -> bool:
    budgets = np.asarray(budgets, dtype=float)
    slack = 1e-9 * instance.p_max
    return (
        budgets.min() >= -slack
        and float(budgets.sum()) <= instance.p_max + slack
        and bool(np.all(budgets <= instance.p_max_carrier + slack))
    )


# ---------------------------------------------------------------------------
# Projection onto the capped budget simplex.


def _float_bits(x: float) -> int:
    """Bit pattern of a float as an int; monotone in x for x >= 0."""
    return int(np.float64(x).view(np.int64))


def _bits_float(b: int) -> float:
    return float(np.int64(b).view(np.float64))


def _breakpoint_root(v: np.ndarray, p_max: float, caps: np.ndarray) -> tuple[float, float]:
    """Closed-form root of g(lam) = sum clip(v - lam, 0, caps) = p_max.

    g is piecewise linear with kinks at v - caps (a coordinate leaves its
    cap) and v (it reaches zero). Walking the sorted kinks with a running
    count of free coordinates gives g at every kink; the root lies on the
    first piece where g drops to p_max. Returns the root, which carries the
    walk's rounding, and the free count (-slope of g) on its piece. Assumes
    g at the smallest kink, sum caps, exceeds p_max.
    """
    kinks = np.concatenate((v - caps, v))
    order = np.argsort(kinks, kind="stable")
    t = kinks[order]
    free = np.cumsum(np.where(order < v.size, 1.0, -1.0))  # free coordinates above t[k]
    g = float(caps.sum()) - np.concatenate(([0.0], np.cumsum(free[:-1] * np.diff(t))))
    k = max(1, int(np.argmax(g <= p_max)))
    return float(t[k - 1] + (g[k - 1] - p_max) / free[k - 1]), float(free[k - 1])


def _budget_multiplier(v: np.ndarray, p_max: float, caps: np.ndarray) -> float:
    """Smallest float lam whose computed sum(clip(v - lam, 0, caps)) is <= p_max.

    Float rounding keeps that computed sum monotone in lam, so the float is
    unique; the caller has checked that lam = 0 does not fit. The
    breakpoint root places lam up to rounding, and a search on the float's
    bit pattern finishes it: gallop outward from the root, doubling the
    step until the sum crosses p_max, then bisect until the bracket holds
    two adjacent floats. The first step is the lam spacing over which the
    sum moves by its residual at the root or by one ulp of p_max, whichever
    is larger, and at least one ulp of lam.
    """
    def clipped_sum(lam: float) -> float:
        tally(v.size * _C_PROJ)
        return float(np.minimum(np.maximum(v - lam, 0.0), caps).sum())

    def over(b: int) -> bool:
        return clipped_sum(_bits_float(b)) > p_max

    # over(lo) holds (lam = 0 does not fit), over(hi) does not (all zero)
    lo, hi = 0, _float_bits(float(v.max()))
    root, free = _breakpoint_root(v, p_max, caps)
    if lo < root < _bits_float(hi):
        residual = clipped_sum(root) - p_max
        up = residual > 0.0
        lo, hi = (_float_bits(root), hi) if up else (lo, _float_bits(root))
        step = max(1, int(max(abs(residual), math.ulp(p_max)) / (free * math.ulp(root))))
        while hi - lo > step:
            probe = lo + step if up else hi - step
            past = over(probe)
            lo, hi = (probe, hi) if past else (lo, probe)
            if past != up:
                break
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if over(mid) else (lo, mid)
    return _bits_float(hi)


def project_simplex(v: np.ndarray, p_max: float, caps: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : sum x <= p_max, 0 <= x <= caps}.

    The KKT conditions give x = clip(v - lam, 0, caps) with lam = 0 if the
    clipped point already fits the budget, otherwise the unique lam > 0
    that makes the budget tight, found exactly by `_budget_multiplier` in
    O(N log N) plus a few clipped sums.
    """
    v = np.asarray(v, dtype=float)
    base = np.minimum(np.maximum(v, 0.0), caps)
    tally(v.size * _C_PROJ)
    if float(base.sum()) <= p_max:
        return base
    return np.minimum(np.maximum(v - _budget_multiplier(v, p_max, caps), 0.0), caps)


# ---------------------------------------------------------------------------
# Every F_n of one solve (hot path of every solver).


class BudgetObjective:
    """sum_n F_n, its per-subcarrier derivatives and each F_n on its own.

    Made once per solve: it stacks every subcarrier's distinct candidate
    solutions and builds their pinned-block tails in one pass, so each
    budget then costs one log per distinct candidate. Every solver values
    F_n through it; the F_n readers themselves live in `single_carrier`.
    """

    def __init__(self, tables: list):
        self.cands = stack_candidates(tables)

    def profits(self, n: int, budgets: np.ndarray) -> np.ndarray:
        """F_n of subcarrier n on a vector of budgets."""
        return best_values(self.cands.carrier(n), budgets[None, :])[0]

    def value(self, budgets: np.ndarray) -> float:
        return float(best_values(self.cands, budgets[:, None]).sum())

    def derivatives(self, budgets: np.ndarray) -> np.ndarray:
        """Left derivative of every F_n at its budget, as one vector."""
        return left_derivatives(self.cands, budgets)

    def columns(self, budgets: np.ndarray):
        """Best truncated candidate of every subcarrier: x (K, N) and sum_n F_n."""
        x, vals = best_columns(self.cands, budgets)
        return x.T, float(vals.sum())


# ---------------------------------------------------------------------------
# Gradient ascent on the budget split.


def _brent_max(fun, lo: float, hi: float, f_lo: float, tol: float):
    """Bounded Brent maximizer on [lo, hi] returning the best point it sampled.

    FMIN of Forsythe, Malcolm and Moler (1977), after Brent (1973, ch. 5),
    with its comparisons turned to maximize: golden-section steps, replaced
    by the vertex of the parabola through the three best points whenever
    that vertex lies inside [a, b] and moves less than half the step before
    last. It is seeded with both endpoints, f(lo) = f_lo given and f(hi)
    valued first, and returns the best (x, f) among lo, hi and its own
    samples, earliest on ties: never below f(lo), so on a merely
    piecewise-unimodal objective the search stays an ascent.

    It stops once the best interior point x lies within 2 * tol1 of both
    ends of the bracket [a, b], tol1 = sqrt(eps_mach) * |x| + tol / 3:
    tol / 3 is the caller's resolution, sqrt(eps_mach) * |x| the finest
    that float values of a smooth f can tell apart near an extremum. No
    sample falls within tol1 of x, and none of a parabolic step within
    2 * tol1 of an end.

    Why the loop ends. Every sample lies strictly inside [a, b] and moves
    a or b to itself or to the old x, so the bracket shrinks at every
    step: geometrically on golden steps, and a parabolic step is taken
    only while it is shorter than half the step before last. The test
    holds once both sides of x are at most 2 * tol1. For a tiny tol the
    sqrt(eps_mach) * |x| term keeps tol1 at the float resolution of x, so
    the bracket stops there instead of shrinking toward tol. Only a
    maximum at lo = 0, where grad's search starts, lets x and with it tol1
    go to 0. The bracket then closes on 0 mostly by golden steps, up to
    about log_phi((hi - lo) / tol) of them, and where tol / 3 underflows
    to 0 the search returns once a step no longer moves x, which happens
    only among subnormal floats.
    """
    best_x, best_f = lo, f_lo

    def sample(u: float) -> float:
        nonlocal best_x, best_f
        fu = fun(u)
        if fu > best_f:
            best_x, best_f = u, fu
        return fu

    sample(hi)
    root_eps = math.sqrt(math.ulp(1.0))
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = sample(x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = root_eps * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return best_x, best_f
        golden = True
        if abs(e) > tol1:  # try the parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
                golden = False
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        if u == x:  # tol1 and d have underflowed at a subnormal x
            return best_x, best_f
        fu = sample(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def default_grad_iteration_cap(p_max: float, xi: float) -> int:
    ratio = p_max / xi  # inf at a subnormal xi, where the log is taken apart
    bits = math.log2(ratio) if ratio < math.inf else math.log2(p_max) - math.log2(xi)
    return 10 * math.ceil(bits) + 100


def grad_jspa(instance: Instance, tables: list, xi: float) -> JspaSolution:
    """Projected gradient ascent on the budget vector, starting from zero.

    Each step moves along the per-subcarrier left derivatives g of F_n,
    to the point P(p + alpha * g) of the projected arc that Brent's bounded
    search (`_brent_max`) picks for alpha in [0, p_max / ||g||], and the
    ascent stops once the iterate moves by at most xi. The search closes
    its alpha bracket to tol = xi / ||g||, the resolution the stopping rule
    asks for: the projection P is nonexpansive, so
    ||P(p + alpha g) - P(p + alpha' g)|| <= |alpha - alpha'| * ||g||, and
    alpha within tol places the step within xi. The objective is only
    piecewise concave, so a global optimum is not guaranteed. The line
    search never accepts a loss, so the last iterate is the best; an
    iteration cap returns it with converged=False instead of looping
    forever. xi must be positive and finite.
    """
    if not 0.0 < xi < math.inf:
        raise ValueError("xi must be positive and finite")
    N = instance.n_carriers
    caps = instance.p_max_carrier
    objective = BudgetObjective(tables)

    p = np.zeros(N)
    cur = objective.value(p)
    history = [cur]
    converged = False
    iterations = 0
    for iterations in range(1, default_grad_iteration_cap(instance.p_max, xi) + 1):
        grad = objective.derivatives(p)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            converged = True
            break
        alpha_max = instance.p_max / norm

        projected = {}  # alpha -> the projected point the line search valued

        def along(alpha: float) -> float:
            projected[alpha] = project_simplex(p + alpha * grad, instance.p_max, caps)
            return objective.value(projected[alpha])

        alpha, val = _brent_max(along, 0.0, alpha_max, cur, xi / norm)
        new_p = projected.get(alpha, p)  # alpha = 0 keeps p, its own projection
        step = float(np.linalg.norm(new_p - p))
        p, cur = new_p, val
        history.append(cur)
        if step <= xi:
            converged = True
            break
    return _solution(objective, p, "grad", converged=converged,
                     iterations=iterations, history=history)


# ---------------------------------------------------------------------------
# Discretization to a multiple-choice knapsack.


def class_unit_caps(instance: Instance) -> np.ndarray:
    """Largest selectable grid index per subcarrier (cap and budget aware)."""
    return np.minimum(instance.n_power_levels, grid_levels(instance.p_max_carrier, instance.delta))


def _grid(levels: int, delta: float) -> np.ndarray:
    """Budgets l * delta of the grid indices l = 0..levels."""
    return np.arange(levels + 1) * delta


def build_knapsack(instance: Instance, objective: BudgetObjective) -> np.ndarray:
    """Grid profits profits[n, l] = F_n(l * delta), read-only, (N, J + 1).

    One subcarrier at a time keeps the kernel's temporaries to one class.
    """
    grid = _grid(instance.n_power_levels, instance.delta)
    profits = np.stack([objective.profits(n, grid) for n in range(instance.n_carriers)])
    profits.flags.writeable = False
    return profits


def _backtracked_budgets(choice: np.ndarray, end_units: int, delta: float) -> np.ndarray:
    N = choice.shape[0]
    units = np.zeros(N, dtype=np.int64)
    level = end_units
    for n in range(N - 1, -1, -1):
        units[n] = choice[n, level]
        level -= units[n]
    return units * delta


def _concave_pieces(cn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last item of each maximal run of items on which cn is concave.

    The test is on the floats cn[j] read as reals. A strict decrease of the
    computed differences proves one of the exact ones, since rounding is
    monotone; equal computed differences prove equality only where both
    are exact (Sterbenz: neighbours within a factor of two, or a zero).
    Runs are cut everywhere else, and neighbouring runs share an end item.
    """
    d = np.diff(cn)
    a, b = cn[:-1], cn[1:]
    exact = ((a <= 2.0 * b) & (b <= 2.0 * a)) | (a == 0.0) | (b == 0.0)
    concave = (d[1:] < d[:-1]) | ((d[1:] == d[:-1]) & exact[1:] & exact[:-1])
    cuts = np.flatnonzero(~concave) + 1
    return np.concatenate(([0], cuts)), np.concatenate((cuts, [cn.size - 1]))


def _row_cells(best: np.ndarray, cn: np.ndarray, rows: np.ndarray, lo: np.ndarray,
               width: np.ndarray):
    """Cells best[k] + cn[l - k] of each row l over its window lo <= k < lo + width.

    One ragged gather. Returns every cell's k and value, each row's first
    cell, each row's float max and the smallest item j = l - k among its
    exact ties with that max.
    """
    seg = np.cumsum(width)
    total = int(seg[-1])
    tally(total * _C_KNAP_W)
    seg -= width
    k = np.arange(total)
    k -= np.repeat(seg - lo, width)
    vals = cn[np.repeat(rows, width) - k]
    vals += best[k]
    top = np.maximum.reduceat(vals, seg)
    j = rows - np.maximum.reduceat(np.where(vals == np.repeat(top, width), k, -1), seg)
    return k, vals, seg, top, j


def _finish(best: np.ndarray, cn: np.ndarray, node: np.ndarray):
    """Every row of every node over its window: the rows, their float max and smallest-j tie.

    A node (r0, r1, c0, c1, s, e) holds levels r0..r1, columns c0..c1 and
    items s..e; row l's window is max(c0, l - e) <= k <= min(c1, l - s).
    Rows are valued in slices of at most _DENSE_CELLS cells: the whole table
    when it fits, else max(1, _DENSE_CELLS // widest row) rows per slice.
    """
    count = node[:, 1] - node[:, 0] + 1
    r0, _, c0, c1, s, e = np.repeat(node, count, axis=0).T
    rows = np.arange(int(count.sum()))
    rows -= np.repeat(np.cumsum(count) - count, count)
    rows += r0
    lo = np.maximum(c0, rows - e)
    width = np.minimum(c1, rows - s) - lo + 1
    if int(width.sum()) <= _DENSE_CELLS:
        return rows, *_row_cells(best, cn, rows, lo, width)[3:]
    step = max(1, _DENSE_CELLS // int(width.max()))
    top = np.empty(rows.size)
    j = np.empty(rows.size, dtype=np.int64)
    for a in range(0, rows.size, step):
        b = a + step
        _, _, _, top[a:b], j[a:b] = _row_cells(best, cn, rows[a:b], lo[a:b], width[a:b])
    return rows, top, j


def _fold(nxt: np.ndarray, choice: np.ndarray, rows: np.ndarray, top: np.ndarray,
          j: np.ndarray, shared: bool) -> None:
    """Write rows into nxt and choice: the larger value wins, the smaller j on ties."""
    if shared:  # rows shared by pieces: keep each row's best, then fold
        order = np.lexsort((j, -top, rows))
        rows, top, j = rows[order], top[order], j[order]
        first = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        rows, top, j = rows[first], top[first], j[first]
        held = nxt[rows]
        better = (top > held) | ((top == held) & (j < choice[rows]))
        rows, top, j = rows[better], top[better], j[better]
    nxt[rows] = top
    choice[rows] = j


def _relax_class(best: np.ndarray, cn: np.ndarray, lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """One class of the DP by weights: nxt[l] = max over j <= min(l, lmax) of best[l - j] + cn[j].

    Returns nxt and choice[l], the smallest j attaining the float max (the
    one `np.argmax` picks over j), bit for bit what scanning every level
    returns. On each concave piece [s, e] of cn (`_concave_pieces`) it
    finds every level's best item by divide and conquer over monotone
    argmaxes: rows are the levels l, columns k = l - j index best, and all
    pieces advance one recursion depth at a time. A depth values each
    piece's pivot rows over their column windows in one ragged gather,
    about (J + 1) cells per piece, and folds them into nxt and choice: the
    larger value wins, the smaller j on ties. Once the open nodes span at
    most _DENSE_CELLS cells, counting a node's rows times the most columns
    a row's window has, one last gather values every row of them over its
    window (`_finish`) and folds them the same way. A piece so costs
    O(J log J) cells in place of the O(J * lmax) of scanning every level,
    and the small nodes of the deep depths, or a small grid whole, take
    one numpy pass instead of a few dozen calls per depth.

    Why the choices are the loop's. Read the floats as reals. On its band
    l - e <= k <= l - s, A[l, k] = best[k] + cn[l - k] is inverse-Monge,
    A[l, k] + A[l', k'] >= A[l, k'] + A[l', k] for l < l' and k < k',
    because cn is concave there; the loop computes fl(A), and rounding is
    monotone. Let M be a pivot row m's float max, k* its pick and T its
    near-tie set {k : fl(A[m, k]) >= M - 8u M}, u = 2^-53. A row l > m
    never picks a column k < min T: fl(A[m, k]) < M gives A[m, k] < A[m, k*],
    so A[l, k] < A[l, k*] and fl(A[l, k]) <= fl(A[l, k*]), and k* has the
    smaller j. A row l < m never picks a column k > max T: A[m, k] trails
    A[m, k*] by more than 5u M, so A[l, k] trails A[l, k*] as much, while
    rounding moves row l's values by at most u M each (they lie in [0, M]
    because best is non-decreasing and grid profits are non-negative), so
    fl(A[l, k]) < fl(A[l, k*]) strictly although k has the smaller j. So
    every row's float max and its smallest-j tie stay inside the window
    that T bounds. A node's columns are bounded only by its ancestors'
    pivots, each on the side where this holds, so every row of it, pivot
    or not, finds the loop's max and smallest-j tie within its window, and
    the dense finish, which values the whole window, picks them; no
    rounding case needs a fallback. Pieces share end items, so each item
    lies in one; the max over pieces, smaller j first, is the loop's.

    A class of more than sqrt((J + 1) / _SCAN_PIECES) pieces (rounding
    noise on a near-linear class), or whose near ties (flat profits) widen a
    depth's windows past _MAX_WIDTH * (J + 1) cells per piece, is finished
    as one node of levels 0..J over items 0..lmax, whose fold overwrites
    every row.
    """
    J = best.size - 1
    cn = cn[:lmax + 1]
    s, e = _concave_pieces(cn)
    pieces = s.size
    nxt = np.full(J + 1, -np.inf)
    choice = np.full(J + 1, J + 1, dtype=np.int64)
    # one row per open node: levels r0..r1 and columns c0..c1 of piece s..e;
    # int32, since at the last depths the node table outweighs the cells
    node = np.stack((s, np.full(pieces, J), np.zeros(pieces, dtype=np.int64), J - s, s, e),
                    axis=1).astype(np.int32)
    dense = _SCAN_PIECES * pieces * pieces > J + 1
    while not dense:
        span = np.subtract(node[:, 1::2], node[:, 0::2], dtype=np.int64)  # r1-r0, c1-c0, e-s
        if int(np.dot(span[:, 0] + 1, np.minimum(span[:, 1], span[:, 2]) + 1)) <= _DENSE_CELLS:
            break
        r0, r1, c0, c1, s, e = node.T
        m = (r0 + r1) // 2
        lo = np.maximum(c0, m - e)
        width = np.minimum(c1, m - s) - lo + 1
        if int(width.sum()) > _MAX_WIDTH * pieces * (J + 1):
            dense = True
            break
        k, vals, seg, top, j = _row_cells(best, cn, m, lo, width)
        near = vals >= np.repeat(top - _NEAR_TIE * top, width)
        t_min = np.minimum.reduceat(np.where(near, k, J + 1), seg)
        t_max = np.maximum.reduceat(np.where(near, k, -1), seg)
        del k, vals, near  # the cells go before the node table doubles
        _fold(nxt, choice, m, top, j, pieces > 1)
        # children: levels r0..m-1 over columns c0..max T, m+1..r1 over min T..c1
        node = np.repeat(node, 2, axis=0)
        node[0::2, 1] = m - 1
        node[0::2, 3] = t_max
        node[1::2, 0] = m + 1
        node[1::2, 2] = t_min
        node = node[node[:, 0] <= node[:, 1]]
    if dense:
        node, pieces = np.array([[0, J, 0, J, 0, cn.size - 1]]), 1
    if node.size:  # pivots may have valued every row
        _fold(nxt, choice, *_finish(best, cn, node), pieces > 1)
    return nxt, choice


def opt_jspa(instance: Instance, tables: list) -> JspaSolution:
    """Exact optimum of the grid-discretized split via DP by weights.

    best[l] after class n is the best profit of the first n classes within
    capacity l; `_relax_class` relaxes it with each class's affordable
    items. A class costs O(J log J) cells per concave piece of its grid
    profits, or O(J * lmax) when it is relaxed densely level by level,
    plus the profit-table construction. The backtrack starts at level J,
    so the last class values that level alone, O(lmax) cells. The choices
    are bit for bit those of scanning every level, by the inverse-Monge
    and rounding argument in `_relax_class`.
    """
    objective = BudgetObjective(tables)
    profits = build_knapsack(instance, objective)
    caps = class_unit_caps(instance)
    J = instance.n_power_levels
    N = instance.n_carriers
    best = np.zeros(J + 1)
    choice = np.zeros((N, J + 1), dtype=np.int64)
    for n in range(N - 1):
        best, choice[n] = _relax_class(best, profits[n], int(caps[n]))
    # the backtrack starts at level J, so the last class values that level alone
    last = np.array([[J, J, 0, J, 0, int(caps[N - 1])]])
    choice[N - 1, J] = _finish(best, profits[N - 1], last)[2][0]
    budgets = _backtracked_budgets(choice, J, instance.delta)
    return _solution(objective, budgets, "opt")


def brute_force_jspa(instance: Instance, tables: list) -> JspaSolution:
    """Exhaustive enumeration of every grid budget vector (test oracle).

    Guarded: refuses instances with more than BRUTE_FORCE_LIMIT candidate
    vectors before pruning.
    """
    J = instance.n_power_levels
    N = instance.n_carriers
    if float(J + 1) ** N > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force would enumerate ({J + 1})^{N} vectors; "
            f"limit is {BRUTE_FORCE_LIMIT}")
    objective = BudgetObjective(tables)
    profits = build_knapsack(instance, objective)
    caps = class_unit_caps(instance)
    best_val = -math.inf
    best_units = None
    units = np.zeros(N, dtype=np.int64)

    def enumerate_class(n: int, used: int, acc: float):
        nonlocal best_val, best_units
        if n == N:
            if acc > best_val:
                best_val = acc
                best_units = units.copy()
            return
        cn = profits[n]
        for l in range(min(J - used, int(caps[n])) + 1):
            units[n] = l
            enumerate_class(n + 1, used + l, acc + cn[l])
        units[n] = 0

    enumerate_class(0, 0, 0.0)
    return _solution(objective, best_units * instance.delta, "brute")


# ---------------------------------------------------------------------------
# Optimum estimation and the approximation scheme.


def _hull_increments(weights: np.ndarray, profits: np.ndarray):
    """Undominated items of one class as (d_weight, d_profit) hull increments.

    Keeps the concave frontier of (weight, profit) starting from (0, 0), so
    marginal efficiencies are decreasing along the class.
    """
    hull = [(0.0, 0.0)]
    for a, c in zip(weights, profits):
        if c <= hull[-1][1]:
            continue
        while len(hull) >= 2:
            a0, c0 = hull[-2]
            a1, c1 = hull[-1]
            # pop the middle point if the new item restores concavity without it
            if (c1 - c0) * (a - a1) <= (c - c1) * (a1 - a0):
                hull.pop()
            else:
                break
        hull.append((a, c))
    return [(hull[t + 1][0] - hull[t][0], hull[t + 1][1] - hull[t][1])
            for t in range(len(hull) - 1)]


def estimate_upper_bound(instance: Instance, tables: list,
                         objective: BudgetObjective | None = None) -> float:
    """Bracket the optimal grid value: returns U with U >= OPT >= U / 4.

    Works on a coarse side problem with 2N + 1 items per class (grid stride
    max(1, floor(J/N)), doubled capacity) so its cost does not grow with J.
    A greedy half-approximation of that problem, doubled, upper-bounds the
    true optimum, while the true optimum stays above a quarter of it by
    monotonicity and sublinearity of the budget-value functions. Oversized
    items keep their coarse weight but their profit saturates at the
    subcarrier's own power cap, which preserves both sides of the bracket.
    """
    if objective is None:
        objective = BudgetObjective(tables)
    N = instance.n_carriers
    coarse = np.arange(1, 2 * N + 1) * max(1, instance.n_power_levels // N)
    weights = coarse * instance.delta
    # every class's coarse points in one kernel call, (N, 2N)
    units = np.minimum(coarse, class_unit_caps(instance)[:, None])
    profits = best_values(objective.cands, units * instance.delta)
    increments = sorted((inc for row in profits for inc in _hull_increments(weights, row)),
                        key=lambda inc: -inc[1] / inc[0])

    room = 2.0 * instance.p_max
    greedy = 0.0
    for dw, dc in increments:
        if dw > room:
            break  # fractional break item; its profit is covered by the best single item
        room -= dw
        greedy += dc
    return 2.0 * max(greedy, float(profits.max(initial=0.0)))


def select_items(lmax: int, targets: np.ndarray, profit_fn) -> list:
    """Smallest grid index in [1, lmax] whose profit reaches each target.

    targets is ascending; a target above the profit of lmax has no item.
    The binary searches of all targets run in lockstep: each round looks
    up the unique midpoints of the open searches in one `profit_fn` call
    (int index array in, float array out) and narrows every search with
    one comparison. With the lookup of the top profit first, that is at
    most ceil(log2(lmax + 1)) + 1 calls. A search finds the first crossing,
    as a one-target-at-a-time search does, only because grid profits are
    non-decreasing (`test_grid_profits_are_non_decreasing` checks this).
    The open searches sit at one depth of one search tree over [1, lmax],
    so no index is probed twice, and each returned index (lmax or a
    midpoint that reached its target) was probed. Returns sorted unique
    indices. Nothing it keeps is sized by lmax.
    """
    if lmax < 1:
        return []
    targets = targets[targets <= profit_fn(np.array([lmax]))[0]]
    lo = np.ones(targets.size, dtype=np.int64)
    hi = np.full(targets.size, lmax, dtype=np.int64)
    open_ = lo < hi
    while open_.any():
        mid = (lo[open_] + hi[open_]) // 2
        probes = np.unique(mid)
        reached = profit_fn(probes)[np.searchsorted(probes, mid)] >= targets[open_]
        hi[open_] = np.where(reached, mid, hi[open_])
        lo[open_] = np.where(reached, lo[open_], mid + 1)
        open_ = lo < hi
    return np.unique(lo).tolist()


def _lockstep_probes(lmax: int, targets: int) -> int:
    """Most budgets `select_items` values on [1, lmax] for that many targets.

    The top, then at each depth d of its search tree, d < ceil(log2(lmax + 1)),
    one midpoint per open search but at most one per node: min(2^d, targets).
    """
    return 1 + sum(min(2 ** d, targets) for d in range(lmax.bit_length()))


def _class_items(objective: BudgetObjective, n: int, lmax: int, targets: np.ndarray,
                 delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices of class n's items, the first crossings of targets, and their profits.

    Reads the whole grid 0..lmax in one `profits` call and finds every
    crossing by np.searchsorted where that values at most _GRID_PER_PROBE
    times as many budgets as the lockstep search may (`_lockstep_probes`);
    it then holds lmax + 1 floats. Elsewhere, at a tiny eps or on a huge
    grid, `select_items` searches and keeps only the profits it probed,
    O(T) floats for T targets. Both find the same indices: grid profits are
    non-decreasing, so the first crossing in the sorted grid is the binary
    search's answer.
    """
    if lmax + 1 <= _GRID_PER_PROBE * _lockstep_probes(lmax, targets.size):
        cn = objective.profits(n, _grid(lmax, delta))
        ls = np.unique(np.searchsorted(cn[1:], targets[targets <= cn[lmax]]) + 1)
        return ls, cn[ls]
    probed = {}  # grid index -> F_n(l * delta), for the indices select_items probes

    def profit(ls: np.ndarray) -> np.ndarray:
        vals = objective.profits(n, ls * delta)
        probed.update(zip(ls.tolist(), vals.tolist()))
        return vals

    ls = select_items(lmax, targets, profit)
    return np.array(ls, dtype=np.int64), np.array([probed[l] for l in ls], dtype=float)


def eps_jspa(instance: Instance, tables: list, eps: float) -> JspaSolution:
    """Approximation scheme: value within a factor (1 - eps) of the grid optimum.

    Profits are scaled by eps*U/(4N) and floored to small integers. Each
    class keeps the grid items that first reach the multiples of that scale
    up to floor(4N/eps) (`_class_items`), then a DP by profits finds, for
    every reachable scaled profit q, the least total weight (in exact grid
    units) achieving it; the answer is the largest q whose weight fits the
    budget. The reported value re-evaluates the recovered items unscaled,
    since scaling is only a search device.

    Time and memory, per class, with T = floor(4N/eps) targets: the
    thresholds cost whichever is cheaper of the lockstep search, O(T log J)
    budgets valued and the O(T) profits it probed kept, and one read of the
    whole grid, lmax + 1 budgets and floats, taken only where that is at
    most _GRID_PER_PROBE times the search's count (`_class_items`). The DP
    relaxes a class's items a chunk at a time, one shifted copy of the
    weights per item, so beside its (N, T + 1) int32 choices and a few rows of
    T + 1 cells it holds a few arrays of at most max(_DP_CELLS, T + 1)
    cells.

    eps must be positive and finite. U comes from `estimate_upper_bound`,
    which bounds the optimum; were U below it, a feasible split could carry
    the DP past its top scaled profit, and eps raises ValueError instead of
    dropping that split.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    N = instance.n_carriers
    J = instance.n_power_levels
    objective = BudgetObjective(tables)
    upper = estimate_upper_bound(instance, tables, objective)
    if upper <= 0:
        return _solution(objective, np.zeros(N), f"eps:{eps:g}")
    scale = eps * upper / (4.0 * N)
    q_cap = int(math.floor(4.0 * N / eps))
    targets = np.arange(1, q_cap + 1) * scale
    caps = class_unit_caps(instance)

    items = []  # per class: (grid indices, scaled profits) of its selected items
    for n in range(N):
        ls, profits = _class_items(objective, n, int(caps[n]), targets, instance.delta)
        scaled = np.floor(profits / scale).astype(np.int64)
        # an item of no scaled profit never beats skipping its class
        items.append((ls[scaled > 0], scaled[scaled > 0]))

    inf = np.iinfo(np.int64).max // 2
    weight = np.full(q_cap + 1, inf, dtype=np.int64)  # least units to reach profit q
    weight[0] = 0
    choice = np.full((N, q_cap + 1), -1, dtype=np.int32)  # item taken, by position
    rows = max(1, _DP_CELLS // (q_cap + 1))  # items relaxed per chunk
    for n, (ls, scaled) in enumerate(items):
        # least units reaching a profit of q or more: an item that takes a
        # feasible total past q_cap proves upper below the optimum
        reach = np.minimum.accumulate(weight[::-1])[::-1]
        if np.any(reach[np.maximum(q_cap + 1 - scaled, 0)] + ls <= J):
            raise ValueError(
                f"upper = {upper:g} is below the value of a feasible split: class {n}'s "
                f"items take the scaled profit past the DP's top, {q_cap}")
        # row top - q of the windows is weight shifted right by q, inf-padded;
        # weight itself holds the skip, always allowed, and is relaxed in place
        top = int(scaled.max(initial=0))
        pad = np.concatenate((np.full(top, inf, dtype=np.int64), weight))
        windows = np.lib.stride_tricks.sliding_window_view(pad, q_cap + 1)
        for i0 in range(0, ls.size, rows):
            cand = windows[top - scaled[i0:i0 + rows]]
            cand += ls[i0:i0 + rows, None]
            tally(cand.size * _C_KNAP_P)
            low = cand.min(axis=0)
            # strict: ties keep the skip or an earlier chunk's item
            cols = np.flatnonzero(low < weight)
            low = low[cols]
            weight[cols] = low
            # and within the chunk the earliest item of the least weight
            choice[n, cols] = (cand[:, cols] == low).argmax(axis=0) + i0

    q_best = int(np.nonzero(weight <= J)[0][-1])
    # walk the layers back, peeling one item (or a skip) per class
    units = np.zeros(N, dtype=np.int64)
    q = q_best
    for n in range(N - 1, -1, -1):
        i = int(choice[n, q])
        if i >= 0:
            ls, scaled = items[n]
            units[n] = ls[i]
            q -= int(scaled[i])
    return _solution(objective, units * instance.delta, f"eps:{eps:g}")
