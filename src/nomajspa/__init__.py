"""Weighted sum-rate maximization for downlink multi-carrier NOMA.

Solvers for the joint subcarrier and power allocation problem under a
cellular power budget, built on optimal single-carrier power control and
user selection, plus a seeded benchmark harness.
"""

from .model import (
    DecodingOrder,
    Instance,
    SystemConfig,
    active_positions,
    argmax_f,
    build_decoding_order,
    f_eval,
    generate_instance,
    p_from_x,
    path_loss_db,
    rate,
    read_kv_file,
    wsr_from_rates,
    wsr_from_x,
    x_from_p,
)
from .single_carrier import (
    IscpcTable,
    ScusTables,
    expand_active,
    fn_value_many,
    iscpc_eval,
    iscpc_precompute,
    iscus_eval,
    iscus_precompute,
    sc_value,
    scpc,
    scus,
)
from .jspa import (
    BudgetObjective,
    JspaSolution,
    brute_force_jspa,
    budget_feasible,
    build_knapsack,
    class_unit_caps,
    eps_jspa,
    estimate_upper_bound,
    grad_jspa,
    opt_jspa,
    project_simplex,
    select_items,
)
from .ops import count_ops, tally

__version__ = "0.1.0"
