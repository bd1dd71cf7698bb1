"""Joint subcarrier and power allocation over per-subcarrier budget vectors.

With the single-carrier budget-value functions F_n precomputed, the joint
problem reduces to splitting the cellular power budget across subcarriers:
maximize sum_n F_n(b_n) subject to sum_n b_n <= p_max and 0 <= b_n <= cap_n.

Four solvers are provided:

* `grad_jspa`        projected gradient ascent, halving its step along the
                     projection arc (the Armijo rule), started at the
                     continuous dual split (`dual_upper_bound`),
* `opt_jspa`         exact optimum on the delta grid (knapsack DP by weights),
* `eps_jspa`         (1 - eps)-approximation (profit scaling + DP by profits),
* `brute_force_jspa` exhaustive grid enumeration, used as a test oracle.

The discretized split is a multiple-choice knapsack: class n holds items
(weight l*delta, profit F_n(l*delta)) for l = 0..J, at most one item per
class, knapsack capacity p_max. opt runs the paper's DP by weights over it
without building the (N, J + 1) table of profits. Priced at the
continuous dual's lam, each class's best reduced profit lies at the floor
or ceiling of a pinned block's stationary point, a few reads per block;
reduced-cost fixing then keeps only the items within the duality gap of
it, one to three per class on the workload shapes, and the DP values
those items on the columns its Lagrangian bound cannot fathom, a few
dozen at most. So opt's cost barely grows with J. Such a class relaxes
in plain Python floats, a shift where it keeps one item. Flat or tied
profits keep every item and column and pay the full O(J^2) band, one
numpy pass per item with O(J) scratch. The choices are bit for bit those
of the full DP.

eps brackets the optimum between a feasible grid split's value and the
continuous dual's bound. Where that split already proves the (1 - eps)
guarantee, eps returns it. Elsewhere it scales profits by the bracket's
lower end and runs as many targets as the bound over it allows, about
N/eps where the paper's estimate needs 4N/eps. It keeps, per class, the
first grid item reaching each multiple of its profit scale. One binary
search finds them for every class at once, one stacked F_n read per depth
of the classes' search trees, so its cost grows with log J, not J, and it
keeps only what it probed. Its DP by profits relaxes a class's items in
integer arithmetic, one numpy pass per item.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import LN2, Instance, check_eps_cells, check_grid_cells, grid_levels
from .ops import tally
# fn_value_many and iscus_eval are no solver's path any more, but they stay
# names of this module: perfbench traces each layer at the name it is called by
from .single_carrier import (fn_value_many, iscus_eval,  # noqa: F401
                             GridBlocks, best_columns, best_values, block_values, grid_blocks,
                             lagrangian_maxima, left_derivatives, table_stack)

_C_KNAP_W = 2   # DP by weights, per (column, item) cell relaxed or column bound tested
_C_KNAP_P = 3   # DP by profits, per candidate item
_C_PROJ = 3     # projection, per coordinate per clipped-sum evaluation
_GALLOPS = 8    # doublings of the projection's gallop from lam = 0 before it bisects bits
_ARMIJO = 1e-4  # grad accepts a step that gains this share of its first-order gain
# the rounding margin (`_margin`) is _MARGIN times the largest magnitude the
# sums of a solve reach, the log terms F_n adds up included: far above their
# rounding. opt fathoms by it, and every solution's upper bound includes it
_MARGIN = 1e-9
# opt's DP by weights relaxes a class of several items in Python floats when
# it has at most _PASS_CELLS cells per item, else by one numpy pass per item:
# a pass costs about what 25 to 40 cells cost in Python floats, the measured
# crossover at 2 to 16 items
_PASS_CELLS = 32

BRUTE_FORCE_LIMIT = 10 ** 7


def check_brute_force(levels: int, carriers: int, name: str) -> None:
    """Raise ValueError, naming the step as `name`, if brute force would enumerate
    more than BRUTE_FORCE_LIMIT grid vectors, (levels + 1) ** carriers.

    Counted in integers, exactly; past 64 carriers a grid with a second level is over.
    """
    if levels and (carriers > 64 or (levels + 1) ** carriers > BRUTE_FORCE_LIMIT):
        raise ValueError(f"{name} would enumerate ({levels + 1})^{carriers} vectors; "
                         f"limit is {BRUTE_FORCE_LIMIT}")


@dataclass
class JspaSolution:
    """Result of one joint allocation solve.

    budgets is the per-subcarrier power split (watts), x the cumulative-power
    matrix (K, N) realizing it, wsr the achieved weighted sum-rate in bits/s.
    upper is the solve's certificate (`_certificate`): no feasible split,
    on the grid or off it, is worth more, the rounding of both sides
    included, so upper - wsr bounds how far wsr may be from the optimum.
    converged is False only when gradient ascent hit its iteration cap.
    """

    solver: str
    budgets: np.ndarray
    x: np.ndarray
    wsr: float
    upper: float
    converged: bool = True
    iterations: int = 0
    history: list = field(default_factory=list)


def _solution(objective: "BudgetObjective", budgets: np.ndarray, solver: str, upper: float,
              **kw) -> JspaSolution:
    budgets = np.asarray(budgets, dtype=float)
    x, total = objective.columns(budgets)
    return JspaSolution(solver=solver, budgets=budgets, x=x, wsr=total, upper=upper, **kw)


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


def _clipped_sum(v: np.ndarray, lam: float, caps: np.ndarray) -> float:
    """sum(clip(v - lam, 0, caps)), the sum whose crossing of p_max defines lam."""
    tally(v.size * _C_PROJ)
    return float(np.minimum(np.maximum(v - lam, 0.0), caps).sum())


def _breakpoint_root(v: np.ndarray, p_max: float, caps: np.ndarray) -> tuple[float, float]:
    """Closed-form root of g(lam) = sum clip(v - lam, 0, caps) = p_max.

    g is piecewise linear with kinks at v - caps (a coordinate leaves its
    cap) and v (it reaches zero). Walking the sorted kinks with a running
    count of free coordinates gives g at every kink; the root lies on the
    first piece where g drops to p_max. Returns the root, which carries the
    walk's rounding, and the free count (-slope of g) on its piece. Assumes
    g at the smallest kink, sum caps, exceeds p_max.

    Where g stays flat after that kink (no coordinate free), the walk's g
    there may sit within its rounding below p_max while the clipped sum,
    the caps of the coordinates still capped, is above it; then lam lies
    past the flat run. So one clipped sum at the kink decides, and where it
    exceeds p_max the root is placed on the first sloped piece after the
    run, from that sum.
    """
    kinks = np.concatenate((v - caps, v))
    order = np.argsort(kinks, kind="stable")
    t = kinks[order]
    free = np.cumsum(np.where(order < v.size, 1.0, -1.0))  # free coordinates above t[k]
    g = float(caps.sum()) - np.concatenate(([0.0], np.cumsum(free[:-1] * np.diff(t))))
    k = max(1, int(np.argmax(g <= p_max)))
    if free[k] == 0.0:
        flat = _clipped_sum(v, float(t[k]), caps)
        if flat > p_max:  # g is flat up to the next kink, where a coordinate leaves its cap
            return float(t[k + 1] + (flat - p_max) / free[k + 1]), float(free[k + 1])
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

    Where v overspends p_max only by rounding, the root lands at or below 0,
    or above it by no more than the walk's rounding, and lam is a few ulps
    of the v_i; 2 (N + 1) ulps of sum caps + max |v| bound that rounding
    (of the kinks, the 2N - 1 terms the walk sums, and its division).
    There the computed sum moves only where some fl(v_i - lam) does: for
    v_i far above lam, at a multiple d of g = ulp(v_i) / 8 or at d's
    successor (a rounding tie), d being v_i less a midpoint of two floats
    below it. So, with g taken from the
    least v_i over twice the gallop's reach, the gallop runs up from 0
    over the multiples of g, its first step by the same rule, and a
    bisection closes on two adjacent multiples; their inner neighbours are
    probed first, which ends the search where the sum moves there and only
    narrows the bracket where it does not. A gallop still short of p_max
    after _GALLOPS doublings (the walk's rounding put the root below a
    kink) leaves the rest to the bisection on bits.
    """
    def clipped_sum(lam: float) -> float:
        return _clipped_sum(v, lam, caps)

    def over(b: int) -> bool:
        return clipped_sum(_bits_float(b)) > p_max

    # over(lo) holds (lam = 0 does not fit), over(hi) does not (all zero)
    lo, hi = 0, _float_bits(float(v.max()))
    root, free = _breakpoint_root(v, p_max, caps)
    rounding = 2 * (v.size + 1) * math.ulp(float(caps.sum()) + float(np.abs(v).max()))
    if not root > rounding:
        spacing = max(clipped_sum(0.0) - p_max, math.ulp(p_max)) / max(free, 1.0)
        big = v[v > 2.0 ** (_GALLOPS + 1) * spacing]  # twice the gallop's reach
        g = math.ulp(float(big.min() if big.size else v.max())) / 8.0
        m_lo, step = 0, max(1, int(spacing / g))
        for _ in range(_GALLOPS):
            if clipped_sum((m_lo + step) * g) <= p_max:
                m_hi = m_lo + step
                while m_hi - m_lo > 1:
                    mid = (m_lo + m_hi) // 2
                    m_lo, m_hi = (mid, m_hi) if clipped_sum(mid * g) > p_max else (m_lo, mid)
                lo, hi = _float_bits(m_lo * g), _float_bits(m_hi * g)
                for probe in (lo + 1, hi - 1):
                    if lo < probe < hi:
                        lo, hi = (probe, hi) if over(probe) else (lo, probe)
                break
            m_lo, step = m_lo + step, 2 * step
        else:
            lo = _float_bits(m_lo * g)
    elif root < _bits_float(hi):
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
    O(N log N) plus a few clipped sums, or about ten where v overspends
    p_max only by rounding.
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

    Made once per solve, on the stack of every subcarrier's distinct
    candidate solutions and their pinned blocks, so each budget then costs
    one log per block. The stack of a table set `iscus_precompute` holds is
    built once and shared by every solve of that set; any other list of
    tables is stacked anew (`single_carrier.table_stack`). Every solver
    values F_n through it; the F_n readers themselves live in
    `single_carrier`.
    """

    def __init__(self, tables: list):
        self.cands = table_stack(tables)

    @functools.cached_property
    def log_size(self) -> float:
        """The size of the log terms any F_n read sums, per subcarrier at its largest, summed.

        A block's pin (s, c, t) reads s * log2(b + c) + t at a budget b up
        to the subcarrier's full one, so its size is |t| + s * (|log2 c| +
        |log2(full + c)|), the scale of the rounding in any value read
        there; `_margin` is relative to it.
        """
        s, c, t = self.cands.pins.T
        full = self.cands.entry_x[:, 0, 0]
        terms = np.abs(t) + s * (np.abs(np.log2(c)) + np.abs(np.log2(full + c)))
        return float(terms.max(axis=0).sum())

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
# The Lagrangian dual of the continuous split.


class DualBound(NamedTuple):
    """UB(lam) = lam * p_max + sum_n phi_n(lam) at the lam found, and its split b(lam)."""

    upper: float
    lam: float
    split: np.ndarray


def dual_upper_bound(instance: Instance, objective: BudgetObjective) -> DualBound:
    """An upper bound on every split's value, grid or not, and a near-optimal split.

    Weak duality: for any lam >= 0 and any split b with sum b <= p_max and
    0 <= b_n <= cap_n, sum_n F_n(b_n) <= lam * p_max + sum_n (F_n(b_n) - lam * b_n)
    <= UB(lam) = lam * p_max + sum_n phi_n(lam), phi_n(lam) being the max of
    F_n(b) - lam * b over [0, cap_n] (`single_carrier.lagrangian_maxima`).
    F_n need not be concave. So UB(lam) bounds opt's, grad's and eps's wsr
    alike, up to the rounding of the log terms both sides sum; each
    solution's `JspaSolution.upper` is this UB plus the margin that covers
    it (`_certificate`). The UB returned here carries no margin.

    UB is convex in lam, with slope g(lam) = p_max - sum_n b_n(lam). If g(0)
    >= 0, as when the caps fit p_max, lam = 0 is the minimum. Otherwise the
    search keeps a bracket lo < hi with g(lo) < 0 <= g(hi), from lo = 0 and
    hi = max s / (c ln 2) over the pins, the steepest slope of any F_n, where
    every b_n is 0. Where each b_n is an unclipped stationary point,
    sum_n b_n = A / lam - B, linear in 1 / lam, so a secant in 1 / lam
    through the bracket's ends lands on the root of g exactly once both ends
    share their pieces. Where g jumps, as a b_n moves to another piece, the
    secant keeps landing on the same side; then the next lam is where the
    tangents of UB at lo and hi meet, which closes on a kink quadratically.
    So a step is the secant once the last two steps landed on opposite
    sides, else the tangent point.

    The gap is the best UB sampled less the value where the tangents meet:
    by convexity no lam in the bracket has a lower UB than that. The search
    stops once the gap is at most (N + 1) * eps_mach of the best UB, the
    rounding of the sum of N + 1 terms that evaluates UB, or once the next
    lam is no float inside the bracket. Why it ends: each step lands
    strictly inside the bracket and shrinks it, and a step after two that
    did not halve the gap is the midpoint, so steps either halve the gap,
    which the stopping rule bounds below, or halve the bracket, which
    floats bound. Returns the best sampled lam, its UB and its split
    b(lam), within the caps but not always within p_max.
    """
    cands, caps, p_max = objective.cands, instance.p_max_carrier, instance.p_max

    maxima = lagrangian_maxima(cands, caps)

    def at(lam: float) -> DualBound:
        phi, split = maxima(lam)
        return DualBound(lam * p_max + float(phi.sum()), lam, split)

    def slope(point: DualBound) -> float:
        return p_max - float(point.split.sum())

    lo = at(0.0)
    if slope(lo) >= 0.0:
        return lo
    hi = at(float((cands.pins[..., 0] / cands.pins[..., 1]).max()) / LN2)
    best = hi if hi.upper < lo.upper else lo
    tol = (instance.n_carriers + 1) * np.finfo(float).eps
    sides = (0, 0)  # where the last two steps landed: -1 on lo, 1 on hi
    gaps = (math.inf, math.inf)  # the certified gap before each of them
    while True:
        g_lo, g_hi = slope(lo), slope(hi)
        meet = (hi.upper - lo.upper + g_lo * lo.lam - g_hi * hi.lam) / (g_lo - g_hi)
        gap = best.upper - (lo.upper + g_lo * (meet - lo.lam))
        if gap <= tol * abs(best.upper):
            return best
        if gap > 0.5 * gaps[0]:
            lam = 0.5 * (lo.lam + hi.lam)
        elif lo.lam > 0.0 and sides[0] != sides[1]:
            lam = 1.0 / (1.0 / hi.lam + (1.0 / lo.lam - 1.0 / hi.lam) * g_hi / (g_hi - g_lo))
        else:
            lam = meet
        if not lo.lam < lam < hi.lam:
            return best
        point = at(lam)
        best = point if point.upper < best.upper else best
        side = 1 if slope(point) >= 0.0 else -1
        lo, hi = (lo, point) if side > 0 else (point, hi)
        sides, gaps = (sides[1], side), (gaps[1], gap)


def _margin(instance: Instance, objective: BudgetObjective, lam: float) -> float:
    """The rounding margin at a price lam per watt: `_MARGIN` times the sums' largest magnitude.

    That magnitude is the log terms' size (`BudgetObjective.log_size`) and
    lam * p_max. It covers the rounding both sides of UB(lam) >= a split's
    value sum, and opt's fathoming takes it at its own price.
    """
    return _MARGIN * (objective.log_size + lam * instance.p_max)


class Certificate(NamedTuple):
    """A solve's dual bound and upper = dual.upper plus the margin, >= every split's value."""

    dual: DualBound
    upper: float


def _certificate(instance: Instance, objective: BudgetObjective) -> Certificate:
    """The continuous dual (`dual_upper_bound`) and the upper bound it certifies.

    UB bounds every feasible split's value, grid or not, and the margin at
    the dual's lam (`_margin`) covers the rounding of both sides. Every
    solver calls it once per solve and reports upper on its solution. A
    feasible grid split (`_grid_incumbent`) stays out of it: grad needs
    none, and opt and eps build theirs on dual.split.
    """
    dual = dual_upper_bound(instance, objective)
    return Certificate(dual, dual.upper + _margin(instance, objective, dual.lam))


# ---------------------------------------------------------------------------
# Gradient ascent on the budget split.


def default_grad_iteration_cap(p_max: float, xi: float) -> int:
    """10 * ceil(log2(p_max / xi)) + 100, and at least one iteration at a huge xi."""
    ratio = p_max / xi  # inf at a subnormal xi, where the log is taken apart
    bits = math.log2(ratio) if ratio < math.inf else math.log2(p_max) - math.log2(xi)
    return max(1, 10 * math.ceil(bits) + 100)


def grad_jspa(instance: Instance, tables: list, xi: float) -> JspaSolution:
    """Projected gradient ascent on the budget vector, from the continuous dual split.

    It starts at the dual split b(lam) of `_certificate`, projected onto the
    budget simplex: the Lagrangian's maximizer at the best lam found, which
    on the workload shapes is at or near the continuous optimum, so the
    ascent mostly ends at its first trial. Each iteration takes the
    per-subcarrier left derivatives g of F_n at p and tries the points
    q = P(p + alpha * g) of the projection arc at alpha = alpha_max * 2^-m,
    m = 0, 1, ..., with alpha_max = p_max / ||g||: the Armijo rule along
    the projection arc (Bertsekas 1976). A trial with ||q - p|| <= xi ends
    the ascent as converged, without valuing q; otherwise the first q with
    F(q) > F(p) + _ARMIJO * g.(q - p) becomes the next iterate.

    (a) The stopping rule. ||P(p + alpha g) - p|| is non-decreasing in alpha
    (Bertsekas, Nonlinear Programming, 2.3), so once a trial moves p by at
    most xi, no smaller step on that arc moves it by more: no point left
    to try could pass the rule that stops the ascent.
    (b) An accepted step strictly increases F. p lies in the simplex, so
    the projection's variational inequality gives (p + alpha g - q).(p - q)
    <= 0, that is g.(q - p) >= ||q - p||^2 / alpha >= 0, and F(q) exceeds
    F(p) by at least _ARMIJO times that. The test takes the gain as at
    least 0, so rounding in g.(q - p) cannot admit a loss either: the last
    iterate is the best, and `history` is non-decreasing.
    (c) The halving ends. P is nonexpansive, so ||q - p|| <= alpha ||g||,
    which is at most xi after about log2(p_max / xi) halvings, up to the
    projection's rounding. Where xi is below that rounding, as a subnormal
    xi is, the halving goes on until alpha * g stops moving p in floats,
    a few dozen halvings more (at most 56 trials in an iteration of the
    tests' subnormal cases): q is then P(p), which is p bit for bit, since p is the
    projection's own output and its computed sum refits the budget, so the
    step is 0. At the latest alpha itself halves to 0, with the same q; a
    zero g tries alpha = 0 at once.

    The objective is only piecewise concave, so a global optimum is not
    guaranteed. An iteration cap returns the last iterate with
    converged=False instead of looping forever. xi must be positive and
    finite.
    """
    if not 0.0 < xi < math.inf:
        raise ValueError("xi must be positive and finite")
    caps = instance.p_max_carrier
    objective = BudgetObjective(tables)
    cert = _certificate(instance, objective)
    p = project_simplex(cert.dual.split, instance.p_max, caps)
    cur = objective.value(p)
    history = [cur]
    converged = False
    iterations = 0
    for iterations in range(1, default_grad_iteration_cap(instance.p_max, xi) + 1):
        grad = objective.derivatives(p)
        norm = float(np.linalg.norm(grad))
        alpha = instance.p_max / norm if norm else 0.0
        while True:
            q = project_simplex(p + alpha * grad, instance.p_max, caps)
            if float(np.linalg.norm(q - p)) <= xi:
                converged = True
                break
            val = objective.value(q)
            if val > cur + _ARMIJO * max(float(grad @ (q - p)), 0.0):
                p, cur = q, val
                break
            alpha *= 0.5
        history.append(cur)
        if converged:
            break
    return _solution(objective, p, "grad", cert.upper, converged=converged,
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

    Brute force's knapsack, and the tests' oracle of opt; opt itself reads
    only the few grid profits it keeps. One bounded `best_values` read. A
    grid over `model.GRID_CELLS` cells raises ValueError before any of it
    is allocated.
    """
    N = instance.n_carriers
    check_grid_cells(N, instance.p_max, instance.delta, "delta")
    grid = _grid(instance.n_power_levels, instance.delta)
    profits = best_values(objective.cands, np.broadcast_to(grid, (N, grid.size)))
    profits.flags.writeable = False
    return profits


def _grid_incumbent(instance: Instance, objective: BudgetObjective, split: np.ndarray,
                    lmax: np.ndarray) -> tuple[float, np.ndarray]:
    """A feasible grid split: the dual split, floored, its spare units filled greedily.

    The split lies within the caps; scaled down to p_max where it overspends
    (a projection costs a multiplier search there), it is floored to the
    grid. Each spare unit then goes to the class whose next unit gains
    most, while some gain is positive; every profit it needs is read in one
    stacked read. Returns the split's value and its units per class; the
    value is -inf, which fathoms nothing, if the floored split still
    overspends.
    """
    J, delta = instance.n_power_levels, instance.delta
    total = float(split.sum())
    if total > instance.p_max:
        split = split * (instance.p_max / total)
    x = np.minimum(np.floor(split / delta).astype(np.int64), lmax)
    spare = J - int(x.sum())
    if spare < 0:
        return -np.inf, x
    ls = np.minimum(x[:, None] + np.arange(min(spare, int((lmax - x).max())) + 1), lmax[:, None])
    profits = best_values(objective.cands, ls * delta)
    # a unit past the read, or past a class's cap, gains -inf or 0 and is never taken
    gains = np.diff(profits, axis=1, append=-np.inf).tolist()
    heads = [(-row[0], n) for n, row in enumerate(gains)]
    heapq.heapify(heads)
    at = [0] * x.size
    for _ in range(spare):
        gain, n = heads[0]
        if not -gain > 0.0:
            break
        at[n] += 1
        heapq.heapreplace(heads, (-gains[n][at[n]], n))
    tally(ls.size * _C_KNAP_W)
    rows = np.arange(x.size)
    return float(profits[rows, at].sum()), ls[rows, at]


def _kept_items(grid: GridBlocks, peaks: np.ndarray, reduced: np.ndarray, thresholds: np.ndarray,
                lam: float, delta: float) -> tuple:
    """Per class, the sorted grid indices whose reduced profit reaches its threshold.

    peaks holds each block's first index, the floor and ceiling of its
    stationary point (clipped to the block) and its last index, and reduced
    their reduced profits s * log2(b + c) + t - lam * l. That is concave in
    l as a real function, so the indices of a block that reach a threshold
    are an interval around its floor and ceiling. From each of the two that
    reaches it a lane runs outward: to the block's end if the end reaches
    it too, else by galloping (steps 1, 2, 4, ... until one falls short,
    then bisection between the last step that reached it and the first that
    did not), every lane in step, one stacked block read per round. Item 0,
    worth 0, is kept where 0 reaches the threshold. Returns the classes and
    indices of the union, sorted by class and index.

    Why an item that reaches the threshold by more than rounding is kept.
    Its read is some block's; the block's floor and ceiling lie within
    rounding of the real stationary point, so the one on the item's side
    reads at least the item's value less rounding, and its lane runs. Past
    that anchor the real function does not increase, so every step up to
    the item reads at least the item's value less rounding too, and the
    lane stops short of the item only at a step that fell short of the
    threshold, which none of them does. Reads are each block candidate's
    alone; a kept index is then valued as F_n, the best candidate there.
    """
    reach = reduced >= thresholds[grid.carrier, None]
    right, left = np.flatnonzero(reach[:, 2]), np.flatnonzero(reach[:, 1])
    lane = np.concatenate((right, left))
    way = np.repeat((1, -1), (right.size, left.size))
    anchor = np.concatenate((peaks[right, 2], peaks[left, 1]))
    end = way * (np.concatenate((peaks[right, 3], peaks[left, 0])) - anchor)  # steps to the end
    whole = np.concatenate((reach[right, 3], reach[left, 0]))
    good = np.where(whole, end, 0)  # the last step known to reach the threshold
    bad = end + whole  # the first known to fall short, or one past the end
    step = np.ones(lane.size, dtype=np.int64)
    thr = thresholds[grid.carrier[lane]]
    while True:
        act = np.flatnonzero(bad - good > 1)
        if not act.size:
            break
        g, b = good[act], bad[act]
        probe = np.minimum(g + step[act], (g + b) // 2)
        ls = anchor[act] + way[act] * probe
        ok = block_values(grid, lane[act], ls, delta) - lam * ls >= thr[act]
        good[act], bad[act] = np.where(ok, probe, g), np.where(ok, b, probe)
        step[act] <<= ok
    zero = np.flatnonzero(thresholds <= 0.0)
    cls = np.concatenate((grid.carrier[lane], zero))
    start = np.concatenate((np.where(way > 0, anchor, anchor - good), np.zeros_like(zero)))
    length = np.concatenate((good + 1, np.ones_like(zero)))
    width = int(grid.hi.max(initial=0)) + 1
    first = np.cumsum(length) - length
    keys = np.repeat(cls * width + start - first, length) + np.arange(int(length.sum()))
    keys = np.unique(keys)
    return keys // width, keys % width


def _relax(ks: list, bk: list, js: list, cj: list, r0: int, r1: int) -> tuple:
    """Rows r0..r1 of one class from live columns ks (ascending, worth bk) and kept items js.

    Returns the rows some cell reaches, ascending, each with its float max
    and the smallest j that attains it, as lists; bk and cj are finite. A
    cell is one (column, item) pair, worth bk + c. One kept item shifts the
    columns: row k + j takes cell (k, j). Several items with at most
    _PASS_CELLS cells per item go cell by cell in Python floats, items in
    ascending order, and a row takes a cell only if it is strictly larger,
    so an exact tie keeps the smaller j, the one the full DP's argmax over
    j picks. More cells go to `_relax_passes`, which makes the same float
    adds and keeps the same ties, so every path gives the same bits.
    """
    # item j feeds the window from the columns r0 - j <= k <= r1 - j
    spans = [(j, c, bisect.bisect_left(ks, r0 - j), bisect.bisect_right(ks, r1 - j))
             for j, c in zip(js, cj)]
    cells = sum(hi - lo for _, _, lo, hi in spans)
    tally(cells * _C_KNAP_W)
    if len(spans) == 1:
        j, c, lo, hi = spans[0]
        return [k + j for k in ks[lo:hi]], [b + c for b in bk[lo:hi]], [j] * (hi - lo)
    if cells > _PASS_CELLS * len(spans):
        return _relax_passes(ks, bk, spans, r0, r1)
    top, at = {}, {}
    for j, c, lo, hi in spans:
        for k, b in zip(ks[lo:hi], bk[lo:hi]):
            r, v = k + j, b + c
            if v > top.get(r, -math.inf):
                top[r] = v
                at[r] = j
    rows = sorted(top)
    return rows, [top[r] for r in rows], [at[r] for r in rows]


def _relax_passes(ks: list, bk: list, spans: list, r0: int, r1: int) -> tuple:
    """`_relax` by one numpy pass per item (j, c, lo, hi), valuing ks[lo:hi].

    Each pass spans the item's live columns, -inf where a column is not
    live, and a row takes a cell only if it is strictly larger. The flat
    or tied class that keeps every item takes this path; scratch is O(J).
    """
    k0 = ks[0]
    cols = np.full(ks[-1] - k0 + 1, -np.inf)  # best over the live span, -inf between
    cols[np.asarray(ks) - k0] = bk
    top = np.full(r1 - r0 + 1, -np.inf)
    at = np.zeros(r1 - r0 + 1, dtype=np.int64)
    for j, c, lo, hi in spans:
        if lo < hi:
            a, b = ks[lo], ks[hi - 1]  # the item's first and last column
            vals = cols[a - k0:b - k0 + 1] + c
            rows = slice(a + j - r0, b + j - r0 + 1)
            win = vals > top[rows]
            np.copyto(top[rows], vals, where=win)
            np.copyto(at[rows], j, where=win)
    rows = np.flatnonzero(top > -np.inf)
    return (rows + r0).tolist(), top[rows].tolist(), at[rows].tolist()


def _last_live(lo: int, J: int, lam: float, rest: float, floor: float) -> int:
    """The last column k of lo..J whose bound lam * (J - k) + rest reaches floor; lo - 1 if none.

    The bound, and its float, fall as k grows (lam >= 0), so the live
    columns are lo..top, and a bisection on the float test finds top in
    about log2(J) tests.
    """
    a, b = lo - 1, J + 1  # live(a) is taken as true, live(b) as false
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (mid, b) if lam * (J - mid) + rest >= floor else (a, mid)
    return a


def _grid_units(items: list, lmax: np.ndarray, J: int, lam: float, phi: np.ndarray,
                floor: float) -> np.ndarray:
    """Units per class of the DP by weights' optimum, backtracked from level J.

    items[n] is class n's kept grid indices, ascending, and their profits
    c_n[j]; phi_n bounds its reduced profits c_n[l] - lam * l over l <=
    lmax_n, and floor is a feasible split's value less a margin.

    The DP: best[k] after classes 0..n-1 is their best profit within k
    units, and class n relaxes it to nxt[l] = max over j <= min(l, lmax_n)
    of best[l - j] + c_n[j], picking the smallest j among exact float ties.
    This returns, bit for bit, what that DP over every level and item
    backtracks from J, but values only the kept items of the columns a
    Lagrangian bound cannot fathom.

    The bound. With Phi_n = sum_{m >= n} phi_m, any completion of column k
    by classes n..N-1 within J - k units is worth at most best[k] +
    lam * (J - k) + Phi_n (weak duality of the multiple-choice knapsack;
    Sinha and Zoltners 1979, Pisinger 1995). Before class n a column is
    live when its bound reaches floor and when k >= J - sum_{m >= n} lmax_m:
    the backtrack descends from J by at most lmax_m per class. Before
    class 0 every column is worth 0, so the bound falls as k grows and the
    live columns run from the lowest the backtrack reads up to the last
    whose bound reaches floor (`_last_live`); only those are built. Class n
    relaxes its live columns by its kept items (`_relax`), and keeps, for
    the backtrack and for class n + 1, only the rows live before class
    n + 1; the last class values row J alone. Columns, values, items and
    rows pass from class to class as lists.

    Why the units are the full DP's. Let k_n be the column the full DP's
    backtrack passes before class n and j_n its item there.
    - j_n is kept. Read as reals, the path is worth OPT, at least the
      feasible value, and its items fit J, so OPT <= lam * J +
      sum_{m != n} phi_m + c_n[j_n] - lam * j_n: j_n's reduced profit is at
      least phi_n - (UB - OPT), UB = lam * J + Phi_0, which the test
      `opt_jspa` keeps an item by undercuts by the margin.
    - k_n is live: its bound is at least OPT, which the floor undercuts by
      the margin.
    - Rounding stays far under the margin. The floats of the bound, the
      path and the feasible value round by a few ulps of the sums'
      magnitude. `opt_jspa`'s phi_m is a max over some grid reads, so it
      is at most the whole grid's, and short of it only where the float
      peak of a block sits next to the point it reads, by a few ulps of
      the log terms the reads sum; the margin is relative to those.
    So, by induction on n with the relaxed best[k_n] equal to the full
    DP's, row l = k_{n+1} holds cell (k_n, j_n), which reaches the full
    DP's max there. Every other cell of the row is a full-DP cell built
    from a best entry no larger than the full DP's, and rounding is
    monotone, so none beats that max; the cells of smaller j fall strictly
    short of it in the full DP, and so here. So row l picks the full DP's
    item and value, and the backtrack reads only path rows.
    """
    N = len(items)
    tail = np.cumsum(phi[::-1])[::-1].tolist()  # Phi_n
    # the lowest column a backtrack reads before each class
    reach = np.maximum(J - np.cumsum(lmax[::-1])[::-1], 0).tolist()
    # charged per column from reach[0] to J, as when every column's bound was
    # tested; _last_live tests about log2 J of them (ROADMAP item 13)
    tally((J + 1 - reach[0]) * _C_KNAP_W)
    ks = list(range(reach[0], _last_live(reach[0], J, lam, tail[0], floor) + 1))
    bk = [0.0] * len(ks)  # every column is worth 0 before class 0
    choices = []  # per class: the rows it keeps, ascending, and each row's item
    for n, (js, cj) in enumerate(items):
        r0, r1 = (J if n == N - 1 else ks[0] + int(js[0])), min(J, ks[-1] + int(js[-1]))
        rows, vals, at = _relax(ks, bk, js, cj, r0, r1)
        if n < N - 1:
            tally(len(rows) * _C_KNAP_W)
            low, rest = reach[n + 1], tail[n + 1]
            live = [i for i, (r, v) in enumerate(zip(rows, vals))
                    if r >= low and v + lam * (J - r) + rest >= floor]
            if len(live) < len(rows):
                rows, vals, at = ([a[i] for i in live] for a in (rows, vals, at))
        choices.append((rows, at))
        ks, bk = rows, vals
    units = np.zeros(N, dtype=np.int64)
    level = J
    for n in range(N - 1, -1, -1):
        rows, at = choices[n]
        units[n] = at[bisect.bisect_left(rows, level)]
        level -= int(units[n])
    return units


def opt_jspa(instance: Instance, tables: list) -> JspaSolution:
    """Exact optimum of the grid-discretized split via DP by weights.

    The paper's DP by weights over the multiple-choice knapsack of grid
    profits c_n[l] = F_n(l * delta), bit for bit, without building the
    (N, J + 1) table of them:
    1. lam is the continuous dual's price (`_certificate`) per grid
       unit, or, where that is 0, the least slope of any F_n at its cap.
    2. phi_n(lam), the max of c_n[l] - lam * l, lies on some pinned block of
       some candidate, where F_n is concave, at the floor or ceiling of the
       block's stationary point. Each block holding grid points
       (`single_carrier.grid_blocks`) is read there and at its ends, each
       read the one pinned_values makes.
    3. The dual split, scaled into p_max where it overspends, floored and
       filled greedily, is feasible (`_grid_incumbent`).
    4. With UB = lam * J + sum_n phi_n, reduced-cost fixing (Pisinger 1995)
       keeps item l of class n only if c_n[l] - lam * l >= phi_n -
       (UB - incumbent) - margin (`_kept_items`); one stacked read values
       the kept items.
    5. The DP runs over the kept items of the live columns (`_grid_units`,
       which proves the units are the full DP's).
    The margin is `_margin` at lam per watt: relative to the largest
    magnitude the sums reach, the log terms F_n adds up included, so it
    covers their rounding. upper is the certificate's.

    Cost: the dual search, a few stacked reads over the blocks and the
    kept items, and the DP's cells. On the workload shapes a class keeps
    one to three items and a few live columns, so opt's cost barely grows
    with J, and the DP goes in plain Python floats (`_relax`). A class
    whose reduced profits stay within the margin of their max over a long
    range (flat, or tied at the price) keeps all of them; at worst, with
    every item kept and every column live, that is the full O(N J^2) band,
    one numpy pass per item, with O(J) scratch per class. A
    grid over `model.GRID_CELLS` cells raises ValueError before anything
    is read.
    """
    N, J, delta = instance.n_carriers, instance.n_power_levels, instance.delta
    check_grid_cells(N, instance.p_max, delta, "delta")
    objective = BudgetObjective(tables)
    lmax = class_unit_caps(instance)
    cert = _certificate(instance, objective)
    # caps that fit p_max give the dual lam = 0, a price that fathoms no
    # column; any price bounds, and at the least slope of any F_n at its cap
    # a concave class still takes its cap, so the bound stays tight
    price = cert.dual.lam or float(objective.derivatives(instance.p_max_carrier).min())
    lam = price * delta
    grid = grid_blocks(objective.cands, lmax, delta)
    s, c, _ = grid.pins.T
    with np.errstate(divide="ignore", over="ignore"):
        star = s / (lam * LN2) - c / delta
    star = np.minimum(np.maximum(star, grid.lo), grid.hi)
    peaks = np.stack((grid.lo, np.floor(star), np.ceil(star), grid.hi), axis=1).astype(np.int64)
    reduced = block_values(grid, np.arange(peaks.shape[0])[:, None], peaks, delta) - lam * peaks
    phi = np.zeros(N)
    np.maximum.at(phi, grid.carrier, reduced.max(axis=1))
    margin = _margin(instance, objective, price)
    incumbent, _ = _grid_incumbent(instance, objective, cert.dual.split, lmax)
    thresholds = phi - (lam * J + float(phi.sum()) - incumbent) - margin
    cls, ls = _kept_items(grid, peaks, reduced, thresholds, lam, delta)
    count = np.bincount(cls, minlength=N)
    first = np.cumsum(count) - count
    kept = np.zeros((N, int(count.max())), dtype=np.int64)
    kept[cls, np.arange(cls.size) - first[cls]] = ls
    profits = best_values(objective.cands, kept * delta)
    items = [(js[:c], cj[:c])
             for js, cj, c in zip(kept.tolist(), profits.tolist(), count.tolist())]
    units = _grid_units(items, lmax, J, lam, phi, incumbent - margin)
    return _solution(objective, units * delta, "opt", cert.upper)


def brute_force_jspa(instance: Instance, tables: list) -> JspaSolution:
    """Exhaustive enumeration of every grid budget vector (test oracle).

    Guarded: refuses instances with more than BRUTE_FORCE_LIMIT candidate
    vectors before pruning (see check_brute_force). upper is the
    certificate every solver reports.
    """
    J = instance.n_power_levels
    N = instance.n_carriers
    check_brute_force(J, N, "brute force")
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
    return _solution(objective, best_units * instance.delta, "brute",
                     _certificate(instance, objective).upper)


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
    eps scales by this bracket only where its certified one (`eps_bracket`)
    is wider.
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


def select_items(lmax: np.ndarray, targets: np.ndarray, profit_fn, top: np.ndarray) -> list:
    """Per class n, the smallest grid index in [1, lmax_n] whose profit reaches each target.

    lmax is (N,), targets an ascending array, and profit_fn maps an (N, L) int
    index array to its (N, L) profits, row n read on class n; top is the
    caller's read of every class's cap, profit_fn(lmax[:, None])[:, 0].
    Returns, per class, (ls, profits): the sorted distinct indices that
    first reach some target and their profits. A target above the profit
    of lmax_n has no item, and a class with lmax_n < 1 has none.

    One binary search tree per class, all walked together; F(l) is the
    class's profit at grid index l. A node is a class, a grid interval
    [lo, hi], the run [t0, t1) of targets it holds and F(hi). Round 0 is
    the caller's read of every class's top F(lmax_n), and a class's root is
    [1, lmax_n] with the targets up to that top. Each round, every node
    with lo < hi probes mid = (lo + hi) // 2. All the round's probes go
    into one (N, L) `profit_fn` call, short rows padded with lmax_n, an
    index whose profit round 0 read. One np.searchsorted of F(mid) splits
    each node's run between its children [lo, mid], which takes the
    targets F(mid) reaches, and [mid + 1, hi].
    Empty children are dropped, and nodes stay in (class, lo) order.
    Leaves are the items, each worth its F(hi).

    Why a leaf is the first crossing of each of its targets t. Every node
    has t <= F(hi), and lo = 1 or F(lo - 1) < t: the root by its run, and
    the split keeps both on both sides. So at a leaf, lo = hi is the first
    index of [1, lmax_n] that reaches t, if grid profits are non-decreasing
    (`test_grid_profits_are_non_decreasing` checks this); that is also the
    index np.searchsorted finds on the whole grid. The nodes at one depth
    are disjoint intervals and a mid lies below its hi, so no index is
    probed twice, apart from the lmax_n padding. The tree over [1, lmax_n]
    is ceil(log2(lmax_n)) deep, so there are at most ceil(log2(J + 1)) + 1
    reads, round 0's included, each of at most N * T budgets for T targets,
    and nothing kept is sized by lmax.
    """
    lmax = np.asarray(lmax, dtype=np.int64)
    runs = np.where(lmax >= 1, np.searchsorted(targets, top, side="right"), 0)
    cls = np.flatnonzero(runs)
    # one row (class, lo, hi, t0, t1) per node, and f its F(hi)
    node = np.stack((cls, np.ones_like(cls), lmax[cls], np.zeros_like(cls), runs[cls]), axis=1)
    f = top[cls]
    # a round is a few dozen calls on small arrays, so it calls array methods,
    # not their np wrappers, which cost more than the work on tiny grids
    while True:
        cls, lo, hi, t0, t1 = node.T
        mid = (lo + hi) // 2
        probe = mid < hi  # a leaf's mid is itself, worth its F(hi)
        c = cls[probe]
        if not c.size:
            break
        rank = np.arange(c.size) - c.searchsorted(c)  # among its class's probes
        ls = lmax[:, None].repeat(rank.max() + 1, axis=1)
        ls[c, rank] = mid[probe]
        f_mid = f.copy()
        f_mid[probe] = profit_fn(ls)[c, rank]
        cut = np.minimum(np.maximum(targets.searchsorted(f_mid, side="right"), t0), t1)
        # children [lo, mid] with targets [t0, cut) and [mid + 1, hi] with
        # [cut, t1), left first, those with a target kept; a leaf's right
        # child has none
        split = node[:, None].repeat(2, axis=1)
        split[:, 0, 2], split[:, 0, 4], split[:, 1, 1], split[:, 1, 3] = mid, cut, mid + 1, cut
        keep = split[:, :, 3] < split[:, :, 4]
        node, f = split[keep], np.array((f_mid, f)).T[keep]
    bounds = np.searchsorted(node[:, 0], np.arange(lmax.size + 1))
    return [(node[a:b, 1], f[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


class Bracket(NamedTuple):
    """eps's bracket lower <= OPT <= upper and a feasible grid split's units per class."""

    lower: float
    upper: float
    units: np.ndarray


def eps_bracket(instance: Instance, tables: list, objective: BudgetObjective,
                lmax: np.ndarray, top: np.ndarray, cert: Certificate) -> Bracket:
    """The bracket lower <= OPT <= upper <= 4 * lower eps scales by, and lower's split.

    OPT is the grid optimum, top holds each class's profit at its cap,
    F_n(lmax_n * delta), and cert is the solve's `_certificate`. The
    certified bracket: lower is the better of two feasible grid splits,
    the dual split floored and filled (`_grid_incumbent`) and the best
    class alone at its cap (lmax_n <= J units, so it fits), and units are
    that split's; upper is cert.upper, the dual's UB, which bounds every
    split, plus the one rounding margin (`_margin`) opt fathoms by. On the
    workload shapes upper / lower is below 1 + 2.4e-5, and on coarse grids
    (J = 14 to 40) at most 1.34. Where it is over 4, or lower is 0, the
    paper's bracket (U / 4, U) from `estimate_upper_bound` stands in;
    units stay the better split's.
    """
    incumbent, units = _grid_incumbent(instance, objective, cert.dual.split, lmax)
    lower = max(incumbent, float(top.max(initial=0.0)))
    if lower > incumbent:  # the best class alone at its cap
        best = int(np.argmax(top))
        units = np.zeros_like(lmax)
        units[best] = lmax[best]
    if cert.upper <= 4.0 * lower:
        return Bracket(lower, cert.upper, units)
    upper = estimate_upper_bound(instance, tables, objective)
    return Bracket(upper / 4.0, upper, units)


def eps_jspa(instance: Instance, tables: list, eps: float) -> JspaSolution:
    """Approximation scheme: value within a factor (1 - eps) of the grid optimum.

    `eps_bracket` gives LB <= OPT <= UB and a feasible grid split worth LB.
    Where that split, valued as eps reports it, reaches (1 - eps) * UB, it
    already meets the guarantee, (1 - eps) * UB >= (1 - eps) * OPT, and eps
    returns it: the early stop of a bound-and-scale knapsack FPTAS
    (Kellerer, Pferschy and Pisinger 2004, ch. 11). On the workload shapes
    UB / LB - 1 is at most 2.4e-5, so the stop fires at every eps that
    `model.check_eps_cells` admits at N = 20; coarse grids (J = 40) reach
    the DP below eps of about 2e-3. Otherwise eps runs the paper's scheme
    on the bracket (`_eps_dp`): profits scaled by eps * LB / N, one DP by
    profits over the items that first reach each multiple of that scale.

    The bracket is certified by the continuous dual: the textbook FPTAS's
    scaling by a lower bound (11.3 there), where the paper scales by U / 4
    from its estimate U >= OPT >= U / 4. Where the certified bracket is
    wider than 4, or certifies no positive value, the estimate's (U / 4, U)
    stands in, so UB / LB <= 4 and the DP's T <= floor(4N/eps) targets
    always, the count `model.check_eps_cells` bounds the choice table by.
    Either way the solution's upper is the certificate's, not the
    estimate's U, which can read a few ulps below OPT.

    eps must be positive and finite, and its choice table within
    `model.GRID_CELLS` cells (`model.check_eps_cells`): either failing raises
    ValueError before anything is read or allocated, whichever path the
    solve then takes.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    check_eps_cells(instance.n_carriers, eps, "eps")
    objective = BudgetObjective(tables)
    lmax = class_unit_caps(instance)
    top = best_values(objective.cands, lmax[:, None] * instance.delta)[:, 0]
    cert = _certificate(instance, objective)
    lower, upper, units = eps_bracket(instance, tables, objective, lmax, top, cert)
    tag = f"eps:{eps:g}"
    sol = _solution(objective, units * instance.delta, tag, cert.upper)
    if sol.wsr >= (1.0 - eps) * upper:
        return sol
    units = _eps_dp(instance, objective, lmax, top, lower, upper, eps)
    return _solution(objective, units * instance.delta, tag, cert.upper)


def _eps_dp(instance: Instance, objective: BudgetObjective, lmax: np.ndarray, top: np.ndarray,
            lower: float, upper: float, eps: float) -> np.ndarray:
    """Units per class of the paper's eps-JSPA on the bracket lower <= OPT <= upper <= 4 * lower.

    top holds each class's profit at its cap lmax_n. Profits are scaled by
    eps * lower / N and floored to small integers, and T = floor(N * (upper
    / lower) / eps) targets cover every feasible scaled total. Each class
    keeps the grid items that first reach the multiples of that scale up to
    T (`select_items`), then a DP by profits finds, for every reachable
    scaled profit q, the least total weight (in exact grid units) achieving
    it; the answer is the largest q whose weight fits the budget. A split's
    floors lose less than N * scale = eps * lower <= eps * OPT, so the
    answer is worth at least (1 - eps) OPT. Zero units where upper <= 0.

    Time and memory, with T <= floor(4N/eps) targets: the thresholds of all
    classes cost at most ceil(log2(J + 1)) stacked F_n reads past top, each
    of at most N * T budgets, and O(N * T) kept floats, whatever J is. The
    DP relaxes a class's items one numpy pass per item, so it holds three
    rows of T + 1 cells beside the (N, T + 1) int32 choices. Were upper
    below the optimum, a feasible split could carry the DP past its top
    scaled profit, and this raises ValueError instead of dropping that split.
    """
    N, J, delta = instance.n_carriers, instance.n_power_levels, instance.delta
    if upper <= 0:
        return np.zeros(N, dtype=np.int64)
    scale = eps * lower / N
    # upper / lower <= 4, and float products and quotients are monotone
    q_cap = int(math.floor(N * (upper / lower) / eps))
    targets = np.arange(1, q_cap + 1) * scale

    def profit_fn(ls):
        return best_values(objective.cands, ls * delta)

    items = []  # per class: (grid indices, scaled profits) of its selected items
    for ls, profits in select_items(lmax, targets, profit_fn, top):
        # each item reaches targets[0] = scale, so its scaled profit is >= 1
        items.append((ls, np.floor(profits / scale).astype(np.int64)))

    inf = np.iinfo(np.int64).max // 2
    weight = np.full(q_cap + 1, inf, dtype=np.int64)  # least units to reach profit q
    weight[0] = 0
    choice = np.full((N, q_cap + 1), -1, dtype=np.int32)  # item taken, by position
    for n, (ls, scaled) in enumerate(items):
        # least units reaching a profit of q or more: an item that takes a
        # feasible total past q_cap proves upper below the optimum
        reach = np.minimum.accumulate(weight[::-1])[::-1]
        if np.any(reach[np.maximum(q_cap + 1 - scaled, 0)] + ls <= J):
            raise ValueError(
                f"upper = {upper:g} is below the value of a feasible split: class {n}'s "
                f"items take the scaled profit past the DP's top, {q_cap}")
        tally(ls.size * (q_cap + 1) * _C_KNAP_P)
        # weight holds the skip, always allowed, and is relaxed in place from
        # the weights before class n; strict, so ties keep the skip, then the
        # earliest item
        before = weight.copy()
        for i, (l, q) in enumerate(zip(ls.tolist(), scaled.tolist())):
            cand = before[:q_cap + 1 - q] + l
            win = cand < weight[q:]
            np.copyto(weight[q:], cand, where=win)
            np.copyto(choice[n, q:], i, where=win)

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
    return units
