"""Explicit basic-operation counters for the solver inner loops.

Counting is done by literal `tally(n)` calls placed at the documented sites
below, never by profiler sampling, so counts are bit-reproducible across
machines. Each site charges a small constant per elementary step (additions,
multiplications, comparisons of the underlying recurrence), with vectorized
steps charged as length * constant.

Tally sites and their per-step constants:

==========================  =====  ==============================================
site                        cost   charged per
==========================  =====  ==============================================
closed-form block maximizer   6    merged block evaluated
block utility evaluation      6    merged block evaluated
power-control sweep           6    outer/backtrack iteration
user-selection DP cell        8    (m, j, i) table cell; iscus_precompute
                                   charges the DP of all N subcarriers, its
                                   cells, blocks and maximizers, on the call
                                   that builds the table set (the first of
                                   its N calls) and 0 on the others
collection lookup             6    (stacked candidate, budget) pair in
                                   single_carrier.pinned_values; block end
                                   placed on the grid in grid_blocks; grid
                                   read of one block in block_values
pinned-block gather           2    (subcarrier, stacked candidate, position)
                                   cell, once per stack whose blocks are
                                   asked for (single_carrier.pinned_blocks)
pinned-block tails            6    (stacked candidate, position) term,
                                   charged in single_carrier.pinned_tails
                                   when a solve stacks its tables
budget-split DP by weights    2    (live column, kept item) cell relaxed in
                                   jspa._relax, column tested against the
                                   Lagrangian bound, and (class, unit) gain
                                   of the greedy incumbent
budget-split DP by profits    3    candidate item inspected
simplex projection            3    coordinate per clipped-sum evaluation (the
                                   feasibility check and every polish probe)
gradient/derivative lookup    4    subcarrier in single_carrier.left_derivatives
Lagrangian block maximum      8    gathered pinned block (padded to the
                                   widest subcarrier's count), per lam,
                                   charged in single_carrier.lagrangian_maxima
==========================  =====  ==============================================

Counting is disabled by default; the disabled path is a single attribute
check per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class OpCount:
    """Result handle for one counting scope. `total` is final after the scope exits."""

    enabled: bool = True
    total: int = 0


class _State:
    __slots__ = ("enabled", "total")

    def __init__(self):
        self.enabled = False
        self.total = 0


_state = _State()


def tally(n: int) -> None:
    """Charge `n` basic operations to the active counting scope, if any."""
    if _state.enabled:
        _state.total += n


@contextmanager
def count_ops(enabled: bool = True):
    """Count basic operations performed inside the `with` block.

    Yields an OpCount whose `total` is filled in when the block exits.
    With enabled=False the zero-overhead path is taken and the total is 0.
    Counts are monotone within a scope; scopes may be nested (the inner
    scope counts independently and the outer scope resumes afterwards).
    """
    prev_enabled, prev_total = _state.enabled, _state.total
    _state.enabled, _state.total = enabled, 0
    result = OpCount(enabled=enabled)
    try:
        yield result
    finally:
        result.total = _state.total if enabled else 0
        _state.enabled, _state.total = prev_enabled, prev_total
