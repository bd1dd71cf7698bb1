"""Shared instance builders and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from nomajspa.model import (LN2, DecodingOrder, Instance, SystemConfig, argmax_blocks,
                            carrier_views, check_carrier, f_blocks, generate_instance, utility)
from nomajspa import jspa
from nomajspa.ops import tally
from nomajspa.single_carrier import (_C_ARGMAX, _C_BLOCK, _C_CELL, Candidates, _scus_dp,
                                     expand_active, pinned_tails, sc_value, scpc)


def single_carrier_instance(eta_tilde, weights, w_hz=1.0, p_max=10.0, delta=0.5,
                            max_mux=None):
    """One-subcarrier instance with prescribed per-position normalized noise.

    Gains are 1 so eta_tilde equals the noise column; pass it non-increasing
    to make the decoding order the identity.
    """
    eta = np.asarray(eta_tilde, dtype=float)[:, None]
    w = np.asarray(weights, dtype=float)
    return Instance(weights=w, bandwidths=[w_hz], gains=np.ones_like(eta), noise=eta,
                    p_max=p_max, p_max_carrier=[p_max], delta=delta,
                    max_mux=max_mux if max_mux is not None else w.size)


def small_instance(seed, users, carriers, max_mux, levels=20):
    cfg = SystemConfig(users=users, subcarriers=carriers, max_mux=max_mux,
                       delta_w=DEFAULT_PMAX / levels)
    return generate_instance(cfg, seed)


DEFAULT_PMAX = SystemConfig().p_max_w


def random_feasible_p(instance, rng, respect_mux=True):
    """Random power matrix satisfying budgets, caps and the multiplex limit."""
    K, N = instance.n_users, instance.n_carriers
    p = np.zeros((K, N))
    for n in range(N):
        limit = instance.max_mux if respect_mux else K
        count = int(rng.integers(0, limit + 1))
        if count:
            users = rng.choice(K, size=count, replace=False)
            p[users, n] = rng.random(count)
        total = p[:, n].sum()
        cap = instance.p_max_carrier[n]
        if total > cap:
            p[:, n] *= cap / total * rng.uniform(0.5, 1.0)
    total = p.sum()
    if total > instance.p_max:
        p *= instance.p_max / total * rng.uniform(0.5, 1.0)
    if p.sum() == 0.0:  # keep the draw non-trivial; all-zero is tested on its own
        p[int(rng.integers(K)), int(rng.integers(N))] = min(
            instance.p_max_carrier.min(), instance.p_max) * rng.uniform(0.1, 0.9)
    return p


def per_carrier_order(instance):
    """The decoding order sorted one subcarrier at a time: the oracle of
    `model.build_decoding_order`."""
    K, N = instance.n_users, instance.n_carriers
    pi = np.empty((N, K), dtype=np.int64)
    inv = np.empty((N, K), dtype=np.int64)
    for n in range(N):
        pi[n] = np.argsort(-instance.eta_tilde[:, n], kind="stable")
        inv[n, pi[n]] = np.arange(K)
    return DecodingOrder(pi=pi, inv=inv)


def per_carrier_view(instance, order, n):
    """(W_n, weights, normalized noises) of subcarrier n in decoding order,
    gathered for that subcarrier alone: with `per_carrier_offset`, the
    oracle of `model.carrier_views`."""
    check_carrier(instance, n)
    perm = order.pi[n]
    return instance.bandwidths[n], instance.weights[perm], instance.eta_tilde[perm, n]


def per_carrier_offset(instance, order, n):
    """Constant offset making the separable objective equal the WSR on n."""
    w_n, wp, ep = per_carrier_view(instance, order, n)
    return -w_n * wp[-1] * math.log2(ep[-1])


def block_funs(instance, order, n, active):
    """Vectorized per-active-block utilities for a fixed selection."""
    w_n, wp, ep = per_carrier_view(instance, order, n)
    funs = []
    lo = 0
    for pos in active:
        def make(lo, hi):
            def f(x):
                x = np.asarray(x, dtype=float)
                val = w_n * wp[hi] * np.log2(x + ep[hi])
                if lo > 0:
                    val = val - w_n * wp[lo - 1] * np.log2(x + ep[lo - 1])
                return val
            return f
        funs.append(make(lo, pos))
        lo = pos + 1
    return funs


def scpc_objective(instance, order, n, active, x_active):
    """Objective of a power-control point, without the constant offset."""
    return float(sum(f(x) for f, x in zip(block_funs(instance, order, n, active),
                                          np.atleast_1d(x_active))))


def ordered_grid_max(funs, p_bar, steps):
    """Exact maximum of sum_l funs[l](x_l) over the ordered grid simplex.

    Feasible set: p_bar >= x_0 >= x_1 >= ... >= 0, every x_l on the uniform
    grid with `steps` intervals. Separability makes suffix maxima exact:
    after handling block l, run[t] is the best value of blocks 0..l given
    all of them sit at grid levels >= t.
    """
    grid = np.linspace(0.0, p_bar, steps + 1)
    run = np.zeros(steps + 1)
    for f in funs:
        run = np.maximum.accumulate((f(grid) + run)[::-1])[::-1]
    return float(run[0])


def ordered_grid_max_bruteforce(funs, p_bar, steps):
    """Literal enumeration of the ordered grid simplex (tiny grids only)."""
    grid = np.linspace(0.0, p_bar, steps + 1)
    best = -np.inf
    for combo in itertools.product(range(steps + 1), repeat=len(funs)):
        if any(a < b for a, b in zip(combo, combo[1:])):
            continue
        best = max(best, sum(float(f(grid[c])) for f, c in zip(funs, combo)))
    return best


def scus_subset_oracle(instance, order, n, max_active, p_bar):
    """Best value over every active set of size <= max_active, via scpc."""
    K = instance.n_users
    best = 0.0
    for r in range(1, max_active + 1):
        for subset in itertools.combinations(range(K), r):
            x_act = scpc(instance, order, n, subset, p_bar)
            full = expand_active(subset, x_act, K)
            best = max(best, sc_value(instance, order, n, full))
    return best


def per_carrier_scus_dp(instance, order, n, max_active, p_bar):
    """The selection DP of one subcarrier, one cell row at a time: the oracle
    that `single_carrier._scus_dp` must match bit for bit, its ops included.

    Fills the (m, j, i) tables bottom-up in i. value[m, j, i] is the best
    utility of positions j..K-1 with at most m active, positions j..i forced
    equal, and xopt[m, j, i] is that shared value. take[m, j, i] says whether
    position i ends an active block: the predecessor cell is then
    (m - 1, i + 1, i + 1), and (m, j, i + 1) otherwise. Cells with m = 0 or
    i = K-1 are roots.
    """
    K = instance.n_users
    M = max_active
    w_n, wp, ep = per_carrier_view(instance, order, n)
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


def batched_scus_dp(instance, order, max_active, p_bar):
    """`single_carrier._scus_dp` over every subcarrier of the instance: (N, M + 1, K, K) tables."""
    w_n, wp, ep, _ = carrier_views(instance, order)
    return _scus_dp(w_n[:, None], wp, ep, max_active, p_bar)


def per_carrier_backtrack(xopt, take, m, j, i, n_users):
    """Recover one solution column from a starting cell of per_carrier_scus_dp's
    tables, one block at a time: the oracle of `single_carrier._entry_columns`."""
    x = np.zeros(n_users)
    while True:
        x[j:i + 1] = xopt[m, j, i]
        if i == n_users - 1 or m == 0:
            return x
        if take[m, j, i]:
            m, j = m - 1, i + 1
        i += 1


def candidate_values(w_n, wp, ep, offset, entry_x, budgets):
    """Weighted rate of candidate columns entry_x truncated at budgets.

    budgets broadcasts against entry_x without its position axis. This is
    the direct form, 2 K logs per candidate and budget, the oracle that
    `single_carrier.pinned_values` is held to.
    """
    vals = utility(w_n, wp, ep, offset, np.minimum(entry_x, budgets[..., None]))
    # no power, no rate: avoid cancellation residue
    return np.where(budgets <= 0.0, 0.0, vals)


def full_stack_candidates(tables):
    """Every subcarrier's K candidates stacked, copies included, with their
    tails: the oracle whose answers `single_carrier.stack_candidates` must
    give bit for bit through every F_n reader."""
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


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def every_cell_lagrangian_maxima(cands, caps, lam):
    """phi_n(lam) and b_n(lam) read over every (n, e, l) cell of the stack, empty blocks
    included: the oracle that `single_carrier.lagrangian_maxima` over the gathered
    blocks must match bit for bit."""
    x = cands.entry_x
    N = x.shape[0]
    low = np.zeros_like(x)
    low[..., :-1] = x[..., 1:]
    top = np.minimum(x, caps[:, None, None])
    s, c, t = np.moveaxis(cands.pins, -1, 0)
    with np.errstate(divide="ignore", over="ignore"):
        b = np.minimum(np.maximum(s / (lam * LN2) - c, low), top)
    vals = np.where((low < top) & (b > 0.0), s * np.log2(b + c) + t - lam * b, -np.inf)
    rows, vals = np.arange(N), vals.reshape(N, -1)
    best = vals.argmax(axis=1)
    phi = vals[rows, best]
    return np.maximum(phi, 0.0), np.where(phi > 0.0, b.reshape(N, -1)[rows, best], 0.0)


# opt's DP by weights over the whole (N, J + 1) table of grid profits, with its
# Lagrangian fathoming: the solver `jspa.opt_jspa` ran before it stopped
# building the table, kept as its oracle (`table_units`)


def lagrangian_split(profits, caps, lam):
    """x_n(lam), the first argmax of c_n[l] - lam * l over l <= lmax_n, and phi_n(lam), its max."""
    levels = np.arange(profits.shape[1])
    reduced = profits - lam * levels
    reduced[levels > caps[:, None]] = -np.inf
    x = reduced.argmax(axis=1)
    return x, reduced[np.arange(x.size), x]


def knapsack_multiplier(profits, caps):
    """A lam >= 0 whose split x(lam) fits the J units, for the Lagrangian bound.

    Where the caps fit J, the smallest positive in-cap gain c_n[l] - c_n[l - 1]
    (0 if there is none). Else the (J + 1)-th largest in-cap gain, floored
    at 0: at most J gains exceed it, so a concave class takes no more units
    than its gains above lam and the split fits. A class that is not
    concave may take more; then lam rises to the next larger gain until it
    fits, or until no gain is left above it. Returns lam with its split
    x(lam) and phi(lam) (`lagrangian_split`).
    """
    J = profits.shape[1] - 1
    gains = np.diff(profits, axis=1)
    gains[np.arange(J) >= caps[:, None]] = -np.inf  # gain l + 1 lies in the cap iff l < lmax
    if caps.sum() <= J:
        positive = gains[gains > 0.0]
        lam = float(positive.min()) if positive.size else 0.0
        return (lam, *lagrangian_split(profits, caps, lam))
    lam = max(0.0, float(np.partition(gains, gains.size - J - 1, axis=None)[gains.size - J - 1]))
    above = gains[gains > lam]
    x, phi = lagrangian_split(profits, caps, lam)
    while above.size and x.sum() > J:
        lam = float(above.min())
        above = above[above > lam]
        x, phi = lagrangian_split(profits, caps, lam)
    return lam, x, phi


def table_incumbent(profits, caps, x):
    """Value of the split x with its spare units filled greedily; -inf if x overspends.

    Each spare unit goes to the class whose next unit gains most, while
    some gain is positive.
    """
    J = profits.shape[1] - 1
    spare = J - int(x.sum())
    if spare < 0:
        return -np.inf
    rows = np.arange(x.size)
    x = x.copy()
    gain = np.where(x < caps, profits[rows, np.minimum(x + 1, J)] - profits[rows, x], -np.inf)
    for _ in range(spare):
        n = int(gain.argmax())
        if not gain[n] > 0.0:
            break
        x[n] += 1
        gain[n] = profits[n, x[n] + 1] - profits[n, x[n]] if x[n] < caps[n] else -np.inf
    return float(profits[rows, x].sum())


def table_finish(best, cn, r0, r1, c0, c1):
    """Rows r0..r1 of one class over columns c0..c1: each row's float max and smallest-j tie.

    Row l's window is max(c0, l - lmax) <= k <= min(c1, l), lmax = cn.size - 1.
    One sweep over the columns k, ascending, adds best[k] to the items that
    feed rows max(r0, k)..min(r1, k + lmax) and keeps each row's running max
    with >=: an exact tie goes to the larger k, the smaller j = l - k.
    """
    lmax = cn.size - 1
    top = np.full(r1 - r0 + 1, -np.inf)
    at = np.zeros(r1 - r0 + 1, dtype=np.int64)  # each row's column k
    for k in range(max(c0, r0 - lmax), min(c1, r1) + 1):
        lo, hi = max(r0, k), min(r1, k + lmax)
        vals = cn[lo - k:hi - k + 1] + best[k]
        rows = slice(lo - r0, hi - r0 + 1)
        win = vals >= top[rows]
        np.copyto(top[rows], vals, where=win)
        np.copyto(at[rows], k, where=win)
    return top, np.arange(r0, r1 + 1) - at


def table_units(profits, caps, multiplier=knapsack_multiplier):
    """Units per class of the DP by weights' optimum on a whole profit table, backtracked
    from level J, with the columns its Lagrangian bound fathoms left out.

    lam, x(lam) and phi(lam) come from `multiplier`; the incumbent is
    `table_incumbent` of x(lam). Before class n a column is live when
    best[k] + lam * (J - k) + sum_{m >= n} phi_m reaches the incumbent less
    `jspa._MARGIN` times the largest magnitude a sum here reaches, and when
    k >= J - sum_{m >= n} lmax_m. Class n values the rows a0..min(J, a1 +
    lmax_n) of its live span [a0, a1] (`table_finish`); the last class
    values row J alone. The choices are bit for bit the full DP's.
    """
    N, J = profits.shape[0], profits.shape[1] - 1
    lam, x, phi = multiplier(profits, caps)
    scale = float(np.maximum(profits.max(axis=1), -profits.min(axis=1)).sum()) + lam * J
    floor = table_incumbent(profits, caps, x) - jspa._MARGIN * scale
    tail = np.cumsum(phi[::-1])[::-1]
    reach = np.maximum(J - np.cumsum(caps[::-1])[::-1], 0)
    room = lam * np.arange(J, -1, -1)
    best = np.zeros(J + 1)
    choices = []
    for n in range(N):
        k0 = int(reach[n])
        live = np.flatnonzero(best[k0:] + room[k0:] + tail[n] >= floor) + k0
        a0, a1 = int(live[0]), int(live[-1])
        lmax = int(caps[n])
        r0, r1 = (J if n == N - 1 else a0), min(J, a1 + lmax)
        top, j = table_finish(best, profits[n, :lmax + 1], r0, r1, a0, a1)
        choices.append((r0, j))
        best = np.full(J + 1, -np.inf)
        best[r0:r1 + 1] = top
    units = np.zeros(N, dtype=np.int64)
    level = J
    for n in range(N - 1, -1, -1):
        r0, j = choices[n]
        units[n] = j[level - r0]
        level -= units[n]
    return units
