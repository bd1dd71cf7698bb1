"""Joint subcarrier and power allocation over per-subcarrier budget vectors.

With the single-carrier budget-value functions F_n precomputed, the joint
problem reduces to splitting the cellular power budget across subcarriers:
maximize sum_n F_n(b_n) subject to sum_n b_n <= p_max and 0 <= b_n <= cap_n.

Four solvers are provided:

* `grad_jspa`        projected gradient ascent with exact line search,
* `opt_jspa`         exact optimum on the delta grid (knapsack DP by weights),
* `eps_jspa`         (1 - eps)-approximation (profit scaling + DP by profits),
* `brute_force_jspa` exhaustive grid enumeration, used as a test oracle.

The discretized split is a multiple-choice knapsack: class n holds items
(weight l*delta, profit F_n(l*delta)) for l = 0..J, at most one item per
class, knapsack capacity p_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Instance
from .ops import tally
# fn_value_many and iscus_eval are no solver's path any more, but they stay
# names of this module: perfbench traces each layer at the name it is called by
from .single_carrier import (ScusTables, fn_value_many, iscus_eval,  # noqa: F401
                             left_derivatives, pinned_values, stack_candidates)

_C_KNAP_W = 2   # DP by weights, per candidate item
_C_KNAP_P = 3   # DP by profits, per candidate item
_C_PROJ = 3     # projection, per coordinate per clipped-sum evaluation
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

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


def budget_feasible(instance: Instance, budgets: np.ndarray, tol: float = 1e-9) -> bool:
    budgets = np.asarray(budgets, dtype=float)
    slack = tol * instance.p_max
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

    Made once per solve: it stacks every subcarrier's candidate solutions
    and builds their pinned-block tails in one pass, so each budget then
    costs one log per candidate (see `pinned_values`). Every solver values
    F_n through it.
    """

    def __init__(self, tables: list):
        self.cands = stack_candidates(tables)
        self.entry_x = self.cands.entry_x   # (N, E, K)
        self.carriers = [self.cands.carrier(n) for n in range(len(tables))]

    def profits(self, n: int, budgets: np.ndarray) -> np.ndarray:
        """F_n of subcarrier n on a vector of budgets."""
        vals, _ = pinned_values(self.carriers[n], budgets[None, :])
        return vals[0].max(axis=0)

    def value(self, budgets: np.ndarray) -> float:
        vals, _ = pinned_values(self.cands, budgets[:, None])
        return float(vals.max(axis=1).sum())

    def derivatives(self, budgets: np.ndarray) -> np.ndarray:
        """Left derivative of every F_n at its budget, as one vector."""
        vals, pins = pinned_values(self.cands, budgets[:, None])
        return left_derivatives(vals[..., 0], pins[..., 0, :], budgets)

    def columns(self, budgets: np.ndarray):
        """Best truncated candidate of every subcarrier: x (K, N) and sum_n F_n.

        Ties between candidates go to the shorter shared prefix, as in
        `iscus_eval`.
        """
        vals = pinned_values(self.cands, budgets[:, None])[0][..., 0]   # (N, E)
        rows = np.arange(vals.shape[0])
        best = np.argmax(vals, axis=1)
        x = np.minimum(self.entry_x[rows, best], budgets[:, None]).T
        return x, float(vals[rows, best].sum())


# ---------------------------------------------------------------------------
# Gradient ascent on the budget split.


def _golden_max(fun, lo: float, hi: float, f_lo: float, iterations: int = 40):
    """Golden-section maximizer on [lo, hi] returning the best sampled point.

    Seeded with both endpoints so the result never falls below f(lo); on a
    merely piecewise-unimodal objective this keeps the search an ascent.
    """
    best_x, best_f = lo, f_lo
    f_hi = fun(hi)
    if f_hi > best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    if fc > best_f:
        best_x, best_f = c, fc
    if fd > best_f:
        best_x, best_f = d, fd
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def default_grad_iteration_cap(p_max: float, xi: float) -> int:
    return 10 * math.ceil(math.log2(p_max / xi)) + 100


def grad_jspa(instance: Instance, tables: list, xi: float,
              max_iterations: int | None = None) -> JspaSolution:
    """Projected gradient ascent on the budget vector, starting from zero.

    Each step moves along the per-subcarrier left derivatives of F_n, with
    the step size chosen by exact line search (golden section over the
    projected arc), and stops once the iterate moves by at most xi. The
    objective is only piecewise concave, so a global optimum is not
    guaranteed. The line search never accepts a loss, so the last iterate
    is the best; an iteration cap returns it with converged=False instead
    of looping forever.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    N = instance.n_carriers
    caps = instance.p_max_carrier
    objective = BudgetObjective(tables)

    cap = max_iterations if max_iterations is not None else default_grad_iteration_cap(
        instance.p_max, xi)
    p = np.zeros(N)
    cur = objective.value(p)
    history = [cur]
    converged = False
    iterations = 0
    for iterations in range(1, cap + 1):
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

        alpha, val = _golden_max(along, 0.0, alpha_max, f_lo=cur)
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


@dataclass(frozen=True)
class KnapsackInstance:
    """Grid-discretized budget split. profits[n, l] is F_n at budget l*delta.

    max_units[n] caps the items selectable in class n at that subcarrier's
    power limit; capacity_units is the shared knapsack capacity in grid steps.
    """

    delta: float
    capacity_units: int
    profits: np.ndarray
    max_units: np.ndarray


def class_unit_caps(instance: Instance) -> np.ndarray:
    """Largest selectable grid index per subcarrier (cap and budget aware)."""
    levels = instance.n_power_levels
    per_cap = np.floor(instance.p_max_carrier / instance.delta + 1e-9).astype(np.int64)
    return np.minimum(levels, per_cap)


def build_knapsack(instance: Instance, tables: list,
                   objective: BudgetObjective | None = None) -> KnapsackInstance:
    """Evaluate all (J + 1) * N grid profits through the precomputed tables.

    One subcarrier at a time keeps the kernel's temporaries to one class.
    """
    if objective is None:
        objective = BudgetObjective(tables)
    levels = instance.n_power_levels
    grid = np.arange(levels + 1) * instance.delta
    profits = np.stack([objective.profits(n, grid) for n in range(instance.n_carriers)])
    profits.flags.writeable = False
    return KnapsackInstance(delta=instance.delta, capacity_units=levels,
                            profits=profits, max_units=class_unit_caps(instance))


def _backtracked_budgets(choice: np.ndarray, end_units: int, delta: float) -> np.ndarray:
    N = choice.shape[0]
    units = np.zeros(N, dtype=np.int64)
    level = end_units
    for n in range(N - 1, -1, -1):
        units[n] = choice[n, level]
        level -= units[n]
    return units * delta


def opt_jspa(instance: Instance, tables: list,
             knapsack: KnapsackInstance | None = None) -> JspaSolution:
    """Exact optimum of the grid-discretized split via DP by weights.

    best[l] after class n is the best profit of the first n classes within
    capacity l; each class relaxes it with every affordable item. Runs in
    O(N J^2) plus the profit-table construction.
    """
    objective = BudgetObjective(tables)
    kp = knapsack if knapsack is not None else build_knapsack(instance, tables, objective)
    J = kp.capacity_units
    N = instance.n_carriers
    best = np.zeros(J + 1)
    choice = np.zeros((N, J + 1), dtype=np.int64)
    for n in range(N):
        nxt = np.empty(J + 1)
        cn = kp.profits[n]
        lmax = int(kp.max_units[n])
        for level in range(J + 1):
            take = min(level, lmax)
            cand = best[level::-1][:take + 1] + cn[:take + 1]
            k = int(np.argmax(cand))
            choice[n, level] = k
            nxt[level] = cand[k]
            tally((take + 1) * _C_KNAP_W)
        best = nxt
    budgets = _backtracked_budgets(choice, J, kp.delta)
    return _solution(objective, budgets, "opt")


def brute_force_jspa(instance: Instance, tables: list,
                     knapsack: KnapsackInstance | None = None) -> JspaSolution:
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
    kp = knapsack if knapsack is not None else build_knapsack(instance, tables, objective)
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
        cn = kp.profits[n]
        for l in range(min(J - used, int(kp.max_units[n])) + 1):
            units[n] = l
            enumerate_class(n + 1, used + l, acc + cn[l])
        units[n] = 0

    enumerate_class(0, 0, 0.0)
    return _solution(objective, best_units * kp.delta, "brute")


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
    J = instance.n_power_levels
    stride = max(1, J // N)
    caps_units = class_unit_caps(instance)
    capacity = 2.0 * instance.p_max

    weights = np.arange(1, 2 * N + 1, dtype=float) * stride * instance.delta
    all_increments = []
    best_single = 0.0
    for n in range(N):
        eval_units = np.minimum(np.arange(1, 2 * N + 1) * stride, int(caps_units[n]))
        profits = objective.profits(n, eval_units * instance.delta)
        best_single = max(best_single, float(profits.max(initial=0.0)))
        for dw, dc in _hull_increments(weights, profits):
            all_increments.append((dc / dw, dw, dc, n))
    all_increments.sort(key=lambda t: -t[0])

    room = capacity
    greedy = 0.0
    for _, dw, dc, _ in all_increments:
        if dw > room:
            break  # fractional break item; its profit is covered by best_single
        room -= dw
        greedy += dc
    return 2.0 * max(greedy, best_single)


def _profit_lookup(objective: BudgetObjective, n: int, delta: float):
    """Memoized profit lookup l -> F_n(l * delta) of class n."""
    memo = {0: 0.0}

    def profit(l: int) -> float:
        if l not in memo:
            memo[l] = float(objective.profits(n, np.array([l * delta]))[0])
        return memo[l]

    return profit


def select_items(instance: Instance, tables: ScusTables, n: int, upper: float,
                 eps: float, profit_fn=None) -> list:
    """Grid items of class n that first reach each profit threshold.

    Thresholds are the multiples of eps*U/(4N) up to floor(4N/eps); for each
    one, the smallest grid index whose profit reaches it is located by
    binary search over the monotone profit sequence, with profit lookups
    memoized so at most min(thresholds * ceil(log2(J + 1)), J) table
    evaluations happen. Returns sorted unique indices; empty if U <= 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if upper <= 0:
        return []
    N = instance.n_carriers
    lmax = int(class_unit_caps(instance)[n])
    if profit_fn is None:
        profit_fn = _profit_lookup(BudgetObjective([tables]), 0, instance.delta)
    thresholds = int(math.floor(4.0 * N / eps))
    step = eps * upper / (4.0 * N)
    chosen = []
    lo = 1
    top = profit_fn(lmax) if lmax >= 1 else 0.0
    for t in range(1, thresholds + 1):
        target = t * step
        if target > top:
            break
        # smallest l in [lo, lmax] with profit >= target (profits are monotone)
        hi = lmax
        while lo < hi:
            mid = (lo + hi) // 2
            if profit_fn(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        if not chosen or chosen[-1] != lo:
            chosen.append(lo)
    return chosen


def eps_jspa(instance: Instance, tables: list, eps: float,
             upper: float | None = None) -> JspaSolution:
    """Approximation scheme: value within a factor (1 - eps) of the grid optimum.

    Profits are scaled by eps*U/(4N) and floored to small integers, then a
    DP by profits finds, for every reachable scaled profit q, the least
    total weight (in exact grid units) achieving it; the answer is the
    largest q whose weight fits the budget. The reported value re-evaluates
    the recovered items unscaled, since scaling is only a search device.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    N = instance.n_carriers
    J = instance.n_power_levels
    objective = BudgetObjective(tables)
    if upper is None:
        upper = estimate_upper_bound(instance, tables, objective)
    if upper <= 0:
        return _solution(objective, np.zeros(N), f"eps:{eps:g}")
    scale = eps * upper / (4.0 * N)
    q_cap = int(math.floor(4.0 * N / eps))

    items = []  # per class: list of (units, scaled_profit, true_profit)
    for n in range(N):
        profit = _profit_lookup(objective, n, instance.delta)
        per_class = []
        for l in select_items(instance, tables[n], n, upper, eps, profit):
            true_c = profit(l)
            per_class.append((l, int(math.floor(true_c / scale)), true_c))
        items.append(per_class)

    inf = np.iinfo(np.int64).max // 2
    weight = np.full(q_cap + 1, inf, dtype=np.int64)  # least units to reach profit q
    weight[0] = 0
    choice = np.full((N, q_cap + 1), -1, dtype=np.int64)
    for n in range(N):
        nxt = weight.copy()  # skipping class n is always allowed
        for l, q_item, _ in items[n]:
            if q_item <= 0:
                continue
            reach = np.arange(q_item, q_cap + 1)
            cand = weight[reach - q_item] + l
            better = cand < nxt[reach]
            nxt[reach[better]] = cand[better]
            choice[n, reach[better]] = l
            tally(reach.size * _C_KNAP_P)
        weight = nxt

    q_best = int(np.nonzero(weight <= J)[0][-1])
    # walk the layers back, peeling one item (or a skip) per class
    units = np.zeros(N, dtype=np.int64)
    q = q_best
    scaled_of = [{l: qi for l, qi, _ in per_class} for per_class in items]
    for n in range(N - 1, -1, -1):
        l = int(choice[n, q])
        if l >= 0:
            units[n] = l
            q -= scaled_of[n][l]
    return _solution(objective, units * instance.delta, f"eps:{eps:g}")
