"""Shared instance builders and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from nomajspa.model import (DecodingOrder, Instance, SystemConfig, argmax_blocks,
                            carrier_views, check_carrier, f_blocks, generate_instance)
from nomajspa.ops import tally
from nomajspa.single_carrier import (_C_ARGMAX, _C_BLOCK, _C_CELL, _scus_dp, expand_active,
                                     sc_value, scpc)


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


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)
