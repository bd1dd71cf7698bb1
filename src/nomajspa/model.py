"""Problem instances, channel generation, SIC decoding order and rate model.

The downlink system serves K users over N orthogonal subcarriers. On each
subcarrier up to M users are superposed and separated by successive
interference cancellation, decoding from the highest to the lowest
normalized noise power eta/g.

Two equivalent coordinate systems are used throughout:

* per-user transmit powers ``p[k, n]`` (watts), and
* cumulative powers ``x[i, n] = sum_{j >= i} p[pi_n(j), n]`` indexed by
  decoding position ``i``, which make the weighted sum-rate separable into
  per-position utilities ``f_i`` plus a constant offset.

All position indices in this package are 0-based: the first decoded
position is 0 and "block [j, i]" means positions j..i inclusive.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)

def parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_list(text: str, cast) -> tuple:
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    return tuple(cast(part) for part in items)


def parse_fields(cls, raw: dict) -> dict:
    """Parse the keys of raw that name fields of the dataclass cls.

    Each text value is read as its field default's type: a bool as a
    boolean word, a tuple as a comma list of its first element's type.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in raw:
            cast = type(f.default)
            if cast is bool:
                cast = parse_bool
            elif cast is tuple:
                cast = functools.partial(parse_list, cast=type(f.default[0]))
            try:
                kwargs[f.name] = cast(raw[f.name])
            except ValueError as exc:
                raise ValueError(f"{f.name} = {raw[f.name]!r}: {exc}") from None
    return kwargs


def grid_levels(amount, delta):
    """Whole delta steps within amount (scalar or array), forgiving 1e-9 of a step."""
    return np.floor(np.asarray(amount) / delta + 1e-9).astype(np.int64)


def grid_countable(amount: float, delta: float) -> bool:
    """Whether grid_levels(amount, delta) + 1 fits an int64: the grid's levels 0..J."""
    return amount / delta + 1e-9 < 2.0 ** 63


# A grid of N x (J + 1) points may hold at most GRID_CELLS of them, so one that
# is countable but too fine is refused up front. That bounds the (N, J + 1)
# table of grid profits brute force and the tests build, 256 MB of floats, and
# opt's worst case: opt reads only the few grid points it keeps, but a class
# that keeps every item pays the O(J^2) band, with O(J) scratch per class.
# eps's (N, floor(4N/eps) + 1) table of item choices is held to the same count
GRID_CELLS = 2 ** 25


def check_grid_cells(carriers: int, amount: float, delta: float, name: str) -> None:
    """Raise ValueError, naming the step as `name`, unless carriers * (J + 1) <= GRID_CELLS.

    J = grid_levels(amount, delta); the grid must be countable. opt checks it
    before it reads anything, and `jspa.build_knapsack` before it allocates
    the table; the rule bounds both (see GRID_CELLS).
    """
    levels = int(grid_levels(amount, delta)) + 1
    if carriers * levels > GRID_CELLS:
        raise ValueError(f"{name} = {delta!r} gives opt a {carriers} x {levels} table of grid "
                         f"profits, over its {GRID_CELLS} cells")


def check_eps_cells(carriers: int, eps: float, name: str) -> None:
    """Raise ValueError, naming eps as `name`, unless carriers * (floor(4N/eps) + 1) <= GRID_CELLS.

    That is eps's (N, T + 1) int32 table of item choices for T = floor(4N/eps)
    targets, N = carriers; eps must be positive. It is counted in floats, so
    an eps small enough to make 4N/eps inf is refused, not overflowed.
    """
    targets = np.floor(4.0 * carriers / float(eps)) + 1.0
    if carriers * targets > GRID_CELLS:
        raise ValueError(f"{name} = {eps!r} gives eps a {carriers} x {targets:.0f} table of item "
                         f"choices, over its {GRID_CELLS} cells")


def check_finite(config) -> None:
    """Reject a non-finite float, alone or in a tuple, in a field of the dataclass config."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if any(isinstance(v, float) and not math.isfinite(v) for v in np.atleast_1d(value)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Physical and sizing parameters used to draw random instances.

    Each field is a config-file key. The defaults describe a hexagonal macro
    cell with a 5 MHz downlink.
    """

    users: int = 10
    subcarriers: int = 20
    max_mux: int = 3
    bandwidth_hz: float = 5e6
    p_max_w: float = 10.0
    p_max_carrier_w: float = 0.0  # 0 means "no per-subcarrier cap", i.e. equal to p_max_w
    delta_w: float = 0.01
    cell_radius_m: float = 1000.0
    min_distance_m: float = 35.0
    shadowing_std_db: float = 10.0
    noise_psd_dbm_hz: float = -174.0
    min_weight: float = 1e-6

    def __post_init__(self):
        check_finite(self)
        if self.users < 1 or self.subcarriers < 1:
            raise ValueError("users and subcarriers must be >= 1")
        if not 1 <= self.max_mux <= self.users:
            raise ValueError("max_mux must be in [1, users]")
        if self.bandwidth_hz <= 0 or self.p_max_w <= 0:
            raise ValueError("bandwidth_hz and p_max_w must be positive")
        if not 0 < self.delta_w <= self.p_max_w:
            raise ValueError("delta_w must be in (0, p_max_w]")
        if not grid_countable(self.p_max_w, self.delta_w):
            raise ValueError(f"delta_w = {self.delta_w!r} gives more grid levels than int64 holds")
        if self.p_max_carrier_w < 0 or self.p_max_carrier_w > self.p_max_w:
            raise ValueError("p_max_carrier_w must be 0 (unset) or in (0, p_max_w]")
        # a cap under one grid step leaves no item
        if self.p_max_carrier_w > 0 and grid_levels(self.p_max_carrier_w, self.delta_w) == 0:
            raise ValueError("p_max_carrier_w must be 0 (unset) or at least delta_w")
        if self.min_distance_m <= 0 or self.min_distance_m >= self.cell_radius_m:
            raise ValueError("min_distance_m must be in (0, cell_radius_m)")
        if not 0 < self.min_weight <= 1:  # weights are uniform on [0, 1] clamped up to it
            raise ValueError("min_weight must be in (0, 1]")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing_std_db must be >= 0")


def read_kv_file(path) -> dict:
    """Parse a flat `key = value` text file, each key at most once.

    '#' starts a comment, blank lines are ignored."""
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
        raw[key] = value
    return raw


@dataclass(frozen=True)
class Instance:
    """One allocation problem: users, subcarriers, channels and budgets.

    Shapes: weights (K,), bandwidths (N,), gains and noise (K, N),
    p_max_carrier (N,). All arrays are read-only after construction; the
    type is safe to share across parallel workers.
    """

    weights: np.ndarray
    bandwidths: np.ndarray
    gains: np.ndarray
    noise: np.ndarray
    p_max: float
    p_max_carrier: np.ndarray
    delta: float
    max_mux: int
    eta_tilde: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        bw = np.array(self.bandwidths, dtype=float)
        g = np.array(self.gains, dtype=float)
        eta = np.array(self.noise, dtype=float)
        caps = np.array(self.p_max_carrier, dtype=float)
        if w.ndim != 1 or bw.ndim != 1 or g.shape != (w.size, bw.size) or eta.shape != g.shape:
            raise ValueError("inconsistent array shapes")
        if caps.shape != bw.shape:
            raise ValueError("p_max_carrier must have one entry per subcarrier")
        arrays = (("weights", w), ("bandwidths", bw), ("gains", g), ("noise", eta),
                  ("p_max_carrier", caps))
        for name, arr in arrays:
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if not (np.all(w > 0) and np.all(g > 0) and np.all(eta > 0) and np.all(bw > 0)):
            raise ValueError("weights, gains, noise and bandwidths must be strictly positive")
        if not 0 < self.p_max < math.inf:
            raise ValueError("p_max must be positive and finite")
        if not 0 < self.delta <= self.p_max:
            raise ValueError("delta must be in (0, p_max]")
        if not grid_countable(self.p_max, self.delta):
            raise ValueError(f"delta = {self.delta!r} gives more grid levels than int64 holds")
        if not 1 <= self.max_mux <= w.size:
            raise ValueError("max_mux must be in [1, K]")
        if np.any(caps <= 0) or np.any(caps > self.p_max):
            raise ValueError("per-subcarrier caps must lie in (0, p_max]")
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            tilde = eta / g
        if not np.all((tilde > 0.0) & (tilde < math.inf)):
            raise ValueError("the normalized noise noise / gains must be positive and finite")
        # F_n's slope at zero power, and a bound on the log terms a weighted rate sums
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            slopes = bw * w[:, None] / tilde
            logs = np.abs(np.log2(tilde)) + np.abs(np.log2(self.p_max + tilde))
            bound = np.sum(bw * np.sum(w[:, None] * logs, axis=0))
        if not (np.all(slopes < math.inf) and bound < math.inf):
            raise ValueError("the weighted rates overflow a float: bandwidths * weights "
                             "is too large for the normalized noise noise / gains")
        for name, arr in arrays:
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        tilde.flags.writeable = False
        object.__setattr__(self, "eta_tilde", tilde)

    @property
    def n_users(self) -> int:
        return self.weights.size

    @property
    def n_carriers(self) -> int:
        return self.bandwidths.size

    @property
    def n_power_levels(self) -> int:
        """Number of non-zero points the budget spans on the delta grid."""
        return int(grid_levels(self.p_max, self.delta))


@dataclass(frozen=True)
class DecodingOrder:
    """Per-subcarrier SIC permutation and its inverse.

    pi[n, i] is the user decoded at position i on subcarrier n; positions run
    from the highest to the lowest normalized noise. inv[n, k] is user k's
    position. Both arrays are (N, K).
    """

    pi: np.ndarray
    inv: np.ndarray

    def __post_init__(self):
        for name in ("pi", "inv"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def build_decoding_order(instance: Instance) -> DecodingOrder:
    """Sort users on each subcarrier by descending normalized noise.

    Ties are broken by ascending user index (stable sort), so identical
    channels yield the identity permutation.
    """
    pi = np.argsort(-instance.eta_tilde.T, axis=1, kind="stable")
    return DecodingOrder(pi=pi, inv=np.argsort(pi, axis=1))


def check_carrier(instance: Instance, n: int) -> None:
    """Reject a subcarrier index outside [0, N) before it can wrap around."""
    if not 0 <= n < instance.n_carriers:
        raise ValueError(f"subcarrier {n} is outside [0, {instance.n_carriers})")


def carrier_views(instance: Instance, order: DecodingOrder):
    """`utility`'s leading arguments for every subcarrier, in decoding order.

    Returns w_n (N,), the weights wp and normalized noises ep permuted into
    each subcarrier's decoding order (N, K), and the offset (N,), the
    constant that makes the separable objective equal the weighted rate.
    """
    w_n, wp = instance.bandwidths, instance.weights[order.pi]
    ep = np.take_along_axis(instance.eta_tilde.T, order.pi, axis=1)
    # math.log2, not np.log2: the two differ in the last bit on a few inputs
    logs = np.fromiter(map(math.log2, ep[:, -1]), float, count=w_n.size)
    return w_n, wp, ep, -w_n * wp[:, -1] * logs


def carrier_view(instance: Instance, order: DecodingOrder, n: int):
    """Row n of carrier_views: (W_n, weights, normalized noises, offset) of subcarrier n.

    Every per-subcarrier entry point reads subcarrier n through here, so
    `utility(*carrier_view(instance, order, n), x)` values a column.
    """
    check_carrier(instance, n)
    return tuple(part[n] for part in carrier_views(instance, order))


# ---------------------------------------------------------------------------
# Change of variables between per-user powers and cumulative powers.


def x_from_p(p: np.ndarray, order: DecodingOrder) -> np.ndarray:
    """Cumulative powers x[i, n] = sum of p over decoding positions >= i."""
    ordered = np.take_along_axis(np.asarray(p, dtype=float), order.pi.T, axis=0)
    return np.cumsum(ordered[::-1], axis=0)[::-1]


def p_from_x(x: np.ndarray, order: DecodingOrder) -> np.ndarray:
    """Invert x_from_p. Rejects x columns that are not non-increasing >= 0."""
    x = np.asarray(x, dtype=float)
    diffs = x.copy()
    diffs[:-1] -= x[1:]
    bad = np.any(diffs < 0.0, axis=0)
    if bad.any():
        raise ValueError(f"cumulative powers on subcarrier {int(np.argmax(bad))} "
                         "are not non-increasing")
    p = np.empty_like(x)
    np.put_along_axis(p, order.pi.T, diffs, axis=0)
    return p


def active_positions(x_col: np.ndarray) -> tuple:
    """Decoding positions carrying strictly positive own power in a column x."""
    tail = np.concatenate([x_col[1:], [0.0]])
    return tuple(int(i) for i in np.nonzero(x_col > tail)[0])


# ---------------------------------------------------------------------------
# Rates and the two weighted sum-rate evaluation paths.


def rate(instance: Instance, order: DecodingOrder, p: np.ndarray, k: int, n: int) -> float:
    """Shannon rate of user k on subcarrier n under SIC, in bits/s."""
    pos = order.inv[n, k]
    perm = order.pi[n]
    interference = float(np.sum(p[perm[pos + 1:], n]))
    sinr = p[k, n] / (interference + instance.eta_tilde[k, n])
    return instance.bandwidths[n] * math.log2(1.0 + sinr)


def wsr_from_rates(instance: Instance, order: DecodingOrder, p: np.ndarray) -> float:
    """Weighted sum-rate evaluated directly from per-user SIC rates."""
    w_n, wp, ep, _ = carrier_views(instance, order)
    pp = np.take_along_axis(np.asarray(p, dtype=float).T, order.pi, axis=1)
    interference = np.zeros_like(pp)  # power of the positions decoded after each one
    interference[:, :-1] = np.cumsum(pp[:, :0:-1], axis=1)[:, ::-1]
    return float(np.sum(w_n * np.sum(wp * np.log2(1.0 + pp / (interference + ep)), axis=1)))


def utility(w_n, wp, ep, offset, x):
    """Weighted rate of cumulative-power columns x via the separable utilities.

    Sums out the position axis (the last one of x, wp and ep); all arguments
    broadcast, so one call values a column, a stack or a grid of candidates.
    """
    t1 = np.sum(wp * np.log2(x + ep), axis=-1)
    t2 = np.sum(wp[..., :-1] * np.log2(x[..., 1:] + ep[..., :-1]), axis=-1)
    return w_n * (t1 - t2) + offset


def wsr_from_x(instance: Instance, order: DecodingOrder, x: np.ndarray) -> float:
    """Weighted sum-rate evaluated through the separable utilities.

    Equals wsr_from_rates(p_from_x(x)) up to rounding; this is the form the
    solvers optimize.
    """
    return float(np.sum(utility(*carrier_views(instance, order), np.asarray(x).T)))


# ---------------------------------------------------------------------------
# Merged-block utilities f_{j,i} and their closed-form maximizer.


def f_blocks(w_n, wp: np.ndarray, ep: np.ndarray, i: int, x: np.ndarray) -> np.ndarray:
    """f_{j,i}(x[..., j]) for every block start j = 0..i; x is (..., i + 1).

    f_{j,i} is the utility of decoding positions j..i sharing one cumulative
    power. For j = 0 there is no predecessor term and the function is
    increasing in x; summing over singleton blocks [i, i] telescopes to the
    weighted sum-rate minus the subcarrier offset. wp and ep are (..., K)
    and w_n broadcasts against (..., 1), so one call values one subcarrier
    or a stack of them.
    """
    out = w_n * wp[..., i:i + 1] * np.log2(x + ep[..., i:i + 1])
    if i >= 1:
        out[..., 1:] -= w_n * wp[..., :i] * np.log2(x[..., 1:] + ep[..., :i])
    return out


def f_eval(instance: Instance, order: DecodingOrder, n: int, j: int, i: int, x: float) -> float:
    """Utility f_{j,i}(x) of decoding positions j..i on subcarrier n (see f_blocks)."""
    if not 0 <= j <= i < instance.n_users:
        raise ValueError("need 0 <= j <= i < K")
    return float(f_blocks(*carrier_view(instance, order, n)[:3], i, np.full(i + 1, float(x)))[j])


def argmax_blocks(wp: np.ndarray, ep: np.ndarray, i: int, p_bar: float) -> np.ndarray:
    """Maximizers of f_{j,i} on [0, p_bar] for every block start j = 0..i.

    The block utility is increasing when j = 0 or when position i's weight
    dominates the predecessor's, so the budget is returned; otherwise it is
    unimodal with an interior stationary point that is clamped to the range.
    wp and ep are (..., K); the result is (..., i + 1).
    """
    out = np.full(wp.shape[:-1] + (i + 1,), float(p_bar))
    if i >= 1:
        wa, ea = wp[..., i:i + 1], ep[..., i:i + 1]
        wb, eb = wp[..., :i], ep[..., :i]
        interior = wa < wb
        denom = np.where(interior, wa - wb, 1.0)
        c1 = (wb * ea - wa * eb) / denom
        out[..., 1:] = np.where(interior, np.minimum(np.maximum(c1, 0.0), p_bar), p_bar)
    return out


def argmax_f(instance: Instance, order: DecodingOrder, n: int, j: int, i: int,
             p_bar: float) -> float:
    """Maximizer of f_{j,i} on [0, p_bar] for one block on subcarrier n."""
    return float(argmax_blocks(*carrier_view(instance, order, n)[1:3], i, p_bar)[j])


# ---------------------------------------------------------------------------
# Random instance generation.


def path_loss_db(distance_m: float) -> float:
    """Macro-cell path loss at 2 GHz for a BS-user distance in meters."""
    return 128.1 + 37.6 * math.log10(distance_m / 1000.0)


def _sample_cell_positions(rng: np.random.Generator, count: int, radius: float,
                           min_dist: float) -> np.ndarray:
    """Uniform points in a flat-top hexagonal cell, at least min_dist from the BS."""
    half_height = math.sqrt(3.0) / 2.0 * radius
    pts = np.empty((count, 2))
    got = 0
    while got < count:
        px = rng.uniform(-radius, radius)
        py = rng.uniform(-half_height, half_height)
        inside = abs(py) <= half_height and math.sqrt(3.0) * abs(px) + abs(py) <= math.sqrt(3.0) * radius
        if inside and math.hypot(px, py) >= min_dist:
            pts[got] = (px, py)
            got += 1
    return pts


def generate_instance(config: SystemConfig, seed: int) -> Instance:
    """Draw a random instance: placement, path loss, shadowing, fading, weights.

    Deterministic given (config, seed). Users are placed uniformly in the
    hexagonal cell, channel gains combine distance-based path loss,
    log-normal shadowing and unit-mean Rayleigh fading per subcarrier, and
    the noise floor follows the configured PSD over each subcarrier's
    bandwidth. Weights are uniform on [0, 1] clamped away from zero, since
    the objective requires strictly positive weights.
    """
    rng = np.random.default_rng(seed)
    K, N = config.users, config.subcarriers
    positions = _sample_cell_positions(rng, K, config.cell_radius_m, config.min_distance_m)
    distances = np.hypot(positions[:, 0], positions[:, 1])
    loss_db = np.array([path_loss_db(d) for d in distances])
    loss_db += rng.normal(0.0, config.shadowing_std_db, K)
    fading = rng.exponential(1.0, (K, N))  # |h|^2 for Rayleigh fading of variance 1
    weights = np.maximum(rng.uniform(0.0, 1.0, K), config.min_weight)

    bw = np.full(N, config.bandwidth_hz / N)
    try:
        noise_w_per_hz = 10.0 ** ((config.noise_psd_dbm_hz - 30.0) / 10.0)
    except OverflowError:  # Instance rejects the infinite noise below
        noise_w_per_hz = math.inf
    noise = np.broadcast_to(noise_w_per_hz * bw, (K, N)).copy()
    with np.errstate(all="ignore"):  # Instance rejects a gain out of the float range below
        gains = 10.0 ** (-loss_db[:, None] / 10.0) * fading
    cap = config.p_max_carrier_w if config.p_max_carrier_w > 0 else config.p_max_w
    try:
        return Instance(weights=weights, bandwidths=bw, gains=gains, noise=noise,
                        p_max=config.p_max_w, p_max_carrier=np.full(N, cap),
                        delta=config.delta_w, max_mux=config.max_mux)
    except ValueError as exc:  # the draw left the float range
        raise ValueError(f"seed {seed}: {exc} (shadowing_std_db = {config.shadowing_std_db!r}, "
                         f"noise_psd_dbm_hz = {config.noise_psd_dbm_hz!r}, "
                         f"bandwidth_hz = {config.bandwidth_hz!r})") from None
