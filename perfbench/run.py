"""Seeded benchmark of the nomajspa allocators.

Measures campaign throughput and per-solver latency on one named workload,
checks every solution it produces, and in a traced run reports the cost of
each layer. Run it from the root of a checkout:

    python3 perfbench/run.py --workload desk_campaign --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's own `src/`. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics (the end-to-end metrics, or with --trace 1 the per-layer ones);
the line before it is the full report: every metric by name and unit, the
seed list, the CSV digest and the machine facts. The exit code is 0 only when
every correctness check passed. NOTES.md says why each workload exists.
"""

import time

_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "nomajspa" / "__init__.py").is_file():
    sys.exit(f"error: no nomajspa sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np

import nomajspa
from nomajspa import cli, jspa, model, single_carrier

from clock import REF_NOMINAL_S, Clock, Reference
from spans import Tracer, patched

if Path(nomajspa.__file__).resolve().parent != SRC / "nomajspa":
    sys.exit(f"error: imported nomajspa from {nomajspa.__file__}, not from {SRC}")

IMPORT_SECONDS = time.perf_counter() - _START

XI = 1e-4                   # gradient-ascent stopping step, the CLI default
SETUP_REPEATS = 7           # set-up passes per run, spread between rounds; median is setup_s
GRAD_MEAN_GATE = 1e-3       # acceptance criterion 07 on grad loss vs opt
GRAD_P90_GATE = 5e-3
REL_TOL = 1e-9              # relative slack of the value and bound checks


@dataclass(frozen=True)
class Workload:
    """A rotation of `seeds` instances, measured in rounds that repeat one
    cycle over it. A campaign round is one run_experiment call over one seed
    of the rotation, so a cycle is `seeds` rounds; a latency round solves
    every instance of the rotation once with every solver, so a cycle is one
    round. The timed loop runs whole rounds for the given seconds and at
    least `min_rounds` rounds, a whole cycle and enough for ten samples
    beyond the fixed tail percentile. Quality metrics, digests and latencies
    come from whole cycles, so a faster program measures the same work."""

    name: str
    campaign: bool
    users: tuple
    mux: tuple
    delta_w: float
    solvers: tuple
    eps: float
    seeds: int
    min_rounds: int
    tail_pct: int
    subcarriers: int = 20


WORKLOADS = {w.name: w for w in (
    Workload("desk_campaign", campaign=True, users=(5, 10, 20), mux=(1, 2, 3),
             delta_w=0.01, solvers=("opt", "grad", "eps"), eps=0.1,
             seeds=6, min_rounds=6, tail_pct=80),
    Workload("fine_grid", campaign=False, users=(5,), mux=(2,),
             delta_w=0.0025, solvers=("opt", "eps"), eps=0.05,
             seeds=8, min_rounds=5, tail_pct=75),
    Workload("many_users", campaign=False, users=(40,), mux=(3,),
             delta_w=0.05, solvers=("opt", "grad", "eps"), eps=0.1,
             seeds=8, min_rounds=6, tail_pct=75),
)}

# A few-millisecond problem that runs every code path once before timing.
WARMUP = dict(users=3, subcarriers=4, max_mux=3, delta_w=0.25)


# ---------------------------------------------------------------------------
# Inputs.


def seed_base(seed: int) -> int:
    """First instance seed of a run; runs with different --seed never share one."""
    return 1000 * seed


def system_config(w: Workload) -> model.SystemConfig:
    return model.SystemConfig(users=w.users[0], subcarriers=w.subcarriers,
                              max_mux=w.mux[0], delta_w=w.delta_w)


def experiment_config(w: Workload, seed: int, out: str,
                      system: model.SystemConfig | None = None,
                      users=None) -> cli.ExperimentConfig:
    """The workload's campaign over the one instance seed given."""
    return cli.ExperimentConfig(
        system=system or model.SystemConfig(subcarriers=w.subcarriers, delta_w=w.delta_w),
        solvers=w.solvers, k_sweep=users or w.users, m_sweep=w.mux,
        seeds=1, seed_base=seed, epsilons=(w.eps,), xi=XI,
        out=out, timing=True, jobs=1)


@dataclass
class Problem:
    seed: int
    instance: model.Instance
    order: model.DecodingOrder
    tables: list


def build_problems(w: Workload, base: int) -> list:
    """The rotation of a latency workload, tables precomputed."""
    problems = []
    for seed in range(base, base + w.seeds):
        instance = model.generate_instance(system_config(w), seed)
        order = model.build_decoding_order(instance)
        tables = [single_carrier.iscus_precompute(instance, order, n, w.mux[0])
                  for n in range(instance.n_carriers)]
        problems.append(Problem(seed, instance, order, tables))
    return problems


def solve(tag: str, problem: Problem, eps: float):
    """One solver call, looked up on the module so spans and stubs apply."""
    if tag == "opt":
        return jspa.opt_jspa(problem.instance, problem.tables)
    if tag == "grad":
        return jspa.grad_jspa(problem.instance, problem.tables, XI)
    return jspa.eps_jspa(problem.instance, problem.tables, eps)


def warm_up(w: Workload, tmp: Path) -> None:
    """Lazy imports and numpy first calls, paid before the timed loop."""
    small = model.SystemConfig(**WARMUP)
    if w.campaign:
        config = experiment_config(w, 0, str(tmp / "warmup.csv"), system=small,
                                   users=(small.users,))
        cli.run_experiment(config)
        return
    instance = model.generate_instance(small, 0)
    order = model.build_decoding_order(instance)
    tables = [single_carrier.iscus_precompute(instance, order, n, small.max_mux)
              for n in range(instance.n_carriers)]
    for tag in w.solvers:
        solve(tag, Problem(0, instance, order, tables), w.eps)


# ---------------------------------------------------------------------------
# Checks, all outside the timed region.


class Checks:
    """Failed checks, each charged to the solve it concerns."""

    def __init__(self):
        self.failures = []          # (solve key, message)
        self.failed_keys = set()

    def fail(self, key, message: str) -> None:
        self.failures.append((key, message))
        self.failed_keys.add(key)

    def solution(self, key, instance, order, solution) -> None:
        if not jspa.budget_feasible(instance, solution.budgets):
            self.fail(key, "budget_feasible is false")
        reference = model.wsr_from_x(instance, order, solution.x)
        if not abs(solution.wsr - reference) <= REL_TOL * abs(reference):
            self.fail(key, f"wsr {solution.wsr!r} but wsr_from_x gives {reference!r}")

    def pair(self, key, opt: float, eps_value: float, eps: float) -> None:
        """eps >= (1 - eps) opt, and opt >= eps (both are grid solutions)."""
        if eps_value < (1.0 - eps) * opt - REL_TOL * abs(opt):
            self.fail(key, f"eps {eps_value!r} below (1 - {eps}) * opt {opt!r}")
        if opt < eps_value - REL_TOL * abs(opt):
            self.fail(key, f"opt {opt!r} below eps {eps_value!r}")

    def bracket(self, key, upper: float, opt: float) -> None:
        """U >= OPT >= U / 4 for estimate_upper_bound."""
        slack = REL_TOL * abs(upper)
        if not (upper + slack >= opt >= upper / 4.0 - slack):
            self.fail(key, f"U {upper!r} does not bracket opt {opt!r}")


def grad_gates(checks: Checks, keys: list, losses: list) -> None:
    """Criterion 07: mean grad loss <= 1e-3 and p90 <= 5e-3 over the run."""
    if not losses:
        return
    mean, p90 = float(np.mean(losses)), float(np.percentile(losses, 90))
    if mean > GRAD_MEAN_GATE or p90 > GRAD_P90_GATE:
        for key in keys:
            checks.fail(key, f"grad loss gate: mean {mean:.2e}, p90 {p90:.2e}")


def csv_rows(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != cli.CSV_HEADER:
        raise ValueError(f"{path.name}: missing CSV header")
    rows = []
    for line in lines[1:]:
        seed, k, n, m, solver, wsr, loss, ops, seconds = line.split(",")
        rows.append(dict(seed=int(seed), K=int(k), M=int(m), solver=solver,
                         wsr=float(wsr), loss=float(loss), seconds=float(seconds),
                         line=line))
    return rows


def digest(lines) -> str:
    """Short sha256 of result lines; callers leave wall times out."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Timed loops.


def timed_loop(run_round, seconds: float, min_rounds: int, between):
    """Closed loop, one caller: the next round starts when the last one ends.

    `run_round(i)` returns the round's raw and calibrated seconds, the
    reference kernel's own time left out. `between` runs after each round,
    off the loop's clock, which counts the reference. Returns the loop's wall
    time and each round's raw and calibrated seconds.
    """
    raw, calibrated = [], []
    start = time.perf_counter()
    while len(raw) < min_rounds or time.perf_counter() - start < seconds:
        round_raw, round_calibrated = run_round(len(raw))
        raw.append(round_raw)
        calibrated.append(round_calibrated)
        t = time.perf_counter()
        between()
        start += time.perf_counter() - t
    return time.perf_counter() - start, raw, calibrated


# ---------------------------------------------------------------------------
# Workload runners. Each runs set-up, the untraced timed loop and the checks;
# `traced` repeats the first round under spans.

CAPTURE_SITES = [(cli, name) for name in ("opt_jspa", "grad_jspa", "eps_jspa")]

TRACE_SITES = [
    (cli, "run_experiment"), (cli, "generate_instance"), (cli, "build_decoding_order"),
    (cli, "iscus_precompute"), (cli, "opt_jspa"), (cli, "grad_jspa"), (cli, "eps_jspa"),
    (model, "generate_instance"), (model, "build_decoding_order"),
    (single_carrier, "iscus_precompute"),
    (jspa, "opt_jspa"), (jspa, "grad_jspa"), (jspa, "eps_jspa"),
    (jspa, "build_knapsack"), (jspa, "project_simplex"), (jspa, "fn_value_many"),
    (jspa, "iscus_eval"), (jspa, "estimate_upper_bound"), (jspa, "select_items"),
    (jspa.BudgetObjective, "value"), (jspa.BudgetObjective, "derivatives"),
]


def new_tracer() -> Tracer:
    keep = ("model.generate_instance", "model.build_decoding_order",
            "single_carrier.iscus_precompute", "jspa.build_knapsack", "jspa.opt_jspa",
            "jspa.grad_jspa", "jspa.eps_jspa", "jspa.estimate_upper_bound",
            "cli.run_experiment")
    inspect = {
        "single_carrier.fn_value_many": lambda args, result: {"budgets": int(np.size(args[1]))},
        "jspa.select_items": lambda args, result: {"items": len(result)},
        "jspa.grad_jspa": lambda args, result: {"iterations": result.iterations,
                                                "converged": int(result.converged)},
    }
    return Tracer(keep_calls=keep, inspect=inspect)


def marking(fn, clock):
    """Close a calibrated segment before the first table of each (K, M)."""
    def wrapper(instance, order, n, *args, **kwargs):
        if n == 0:
            clock.mark()
        return fn(instance, order, n, *args, **kwargs)
    return wrapper


def capture(fn, sink):
    """Keep each campaign solve's instance and solution for the checks."""
    def wrapper(instance, tables, *args, **kwargs):
        solution = fn(instance, tables, *args, **kwargs)
        sink.append((instance, tables[0].max_active, solution))
        return solution
    return wrapper


def solver_of(tag: str) -> str:
    return tag.split(":", 1)[0]


class CampaignRun:
    """Closed loop of run_experiment calls, one per seed of the rotation."""

    def __init__(self, w: Workload, base: int, tmp: Path, clock: Clock):
        self.w, self.base, self.tmp, self.clock = w, base, tmp, clock
        self.cycle = w.seeds
        self.checks = Checks()
        self.attempted = 0

    def setup(self):
        warm_up(self.w, self.tmp)  # the campaign draws its own instances

    def call(self, i: int, label: str, keep: bool):
        """Round i: the campaign over seed base + i mod seeds, as a user runs it.

        A kept round is timed on the calibrated clock, one segment per (K, M)
        group; the traced round runs without it."""
        path = self.tmp / f"{label}-{i}.csv"
        config = experiment_config(self.w, self.base + i % self.cycle, str(path))
        keys = [(label, i, config.seed_base, k, m, tag) for k in config.k_sweep
                for m in config.m_sweep for tag in cli.solver_tags(config)]
        self.attempted += len(keys)
        solves = []
        error = None
        with patched(CAPTURE_SITES if keep else [], lambda fn: capture(fn, solves)), \
                patched([(cli, "iscus_precompute")] if keep else [],
                        lambda fn: marking(fn, self.clock)):
            if keep:
                self.clock.start()
            try:
                cli.run_experiment(config, str(path))
            except Exception as exc:  # a failed solve aborts the campaign: count it
                error = f"{type(exc).__name__}: {exc}"
            if keep:
                self.clock.mark()
        call = dict(path=path, keys=keys, solves=solves, error=error)
        if keep:
            call.update(factors=self.clock.factors, raw_s=self.clock.wall,
                        calibrated_s=self.clock.total)
        return call

    def round(self, i: int):
        call = self.call(i, "run", True)
        self.calls.append(call)
        return call["raw_s"], call["calibrated_s"]

    def timed(self, seconds: float, between):
        self.calls = []
        self.timed_s, self.raw_s, self.round_s = timed_loop(
            self.round, seconds, self.w.min_rounds, between)
        for call in self.calls:
            self.check_call(call)
        grad = [(call["keys"][0][:2] + (row["seed"], row["K"], row["M"], row["solver"]),
                 row["loss"]) for call in self.calls for row in call["rows"]
                if row["solver"] == "grad"]
        grad_gates(self.checks, [key for key, _ in grad], [loss for _, loss in grad])
        whole = self.calls[:len(self.calls) // self.cycle * self.cycle]
        latencies = {}
        for call in whole:
            rows, groups = call["rows"], len(call["factors"]) - 1
            for j, row in enumerate(rows):
                latencies.setdefault(solver_of(row["solver"]), []).append(
                    row["seconds"] * call["factors"][1 + j * groups // len(rows)])
        first = [row for call in self.calls[:self.cycle] for row in call["rows"]]
        return dict(
            round_solves=[len(call["rows"]) for call in self.calls], latencies=latencies,
            grad_losses=[r["loss"] for r in first if r["solver"] == "grad"],
            eps_losses=[r["loss"] for r in first if solver_of(r["solver"]) == "eps"],
            digest=self.digest(self.calls[:self.cycle]),
            seeds=list(range(self.base, self.base + self.cycle)))

    @staticmethod
    def digest(calls) -> str:
        """The calls' CSV without the seconds column."""
        return digest(row["line"].rsplit(",", 1)[0] for call in calls for row in call["rows"])

    def check_call(self, call):
        """Row checks on every call; solution checks where solves were kept."""
        checks = self.checks
        call["rows"] = []
        if call["error"] is None:
            try:
                call["rows"] = csv_rows(call["path"])
            except (OSError, ValueError) as exc:
                call["error"] = f"unreadable CSV: {exc}"
        if call["error"] is not None:
            for key in call["keys"]:
                checks.fail(key, call["error"])
            return
        label, i = call["keys"][0][:2]
        rows = {(label, i, r["seed"], r["K"], r["M"], r["solver"]): r for r in call["rows"]}
        if sorted(rows) != sorted(call["keys"]) or len(rows) != len(call["rows"]):
            for key in call["keys"]:
                checks.fail(key, "CSV rows do not match the campaign grid")
            return
        for key, row in rows.items():
            if solver_of(key[-1]) == "eps":
                opt = rows[key[:-1] + ("opt",)]
                checks.pair(key, opt["wsr"], row["wsr"], self.w.eps)
        if not call["solves"]:
            return
        if len(call["solves"]) != len(call["keys"]):
            for key in call["keys"]:
                checks.fail(key, "solver calls do not match CSV rows")
            return
        orders = {}
        for row, (instance, m, solution) in zip(call["rows"], call["solves"]):
            key = (label, i, row["seed"], row["K"], row["M"], row["solver"])
            if (row["solver"], row["M"], row["wsr"]) != (solution.solver, m, solution.wsr):
                checks.fail(key, "CSV row differs from the solver's solution")
                continue
            if id(instance) not in orders:
                orders[id(instance)] = model.build_decoding_order(instance)
            order = orders[id(instance)]
            checks.solution(key, instance, order, solution)
            if row["solver"] == "opt":
                tables = [single_carrier.iscus_precompute(instance, order, n, m)
                          for n in range(instance.n_carriers)]
                upper = jspa.estimate_upper_bound(instance, tables)
                checks.bracket(key[:-1] + (f"eps:{self.w.eps:g}",), upper, solution.wsr)

    def traced(self, tracer: Tracer):
        """The first round again, under spans, timed on the calibrated clock
        as one segment: a reference inside it would land in the spans."""
        with tracer.installed(TRACE_SITES):
            self.clock.start()
            call = self.call(0, "traced", False)
            traced_s = self.clock.mark()
        self.check_call(call)
        if call["rows"] and self.digest([call]) != self.digest(self.calls[:1]):
            for key in call["keys"]:
                self.checks.fail(key, "tracing changed the CSV")
        span = tracer.get("cli.run_experiment")
        return dict(traced_s=traced_s, self_frac=span.self_seconds / span.seconds,
                    extra={"cli.run_experiment.self_s": (span.self_seconds, "s")})


class LatencyRun:
    """Closed loop over a rotation of instances whose tables were built in set-up.

    One round solves every instance of the rotation once with every solver.
    """

    def __init__(self, w: Workload, base: int, tmp: Path, clock: Clock):
        self.w, self.base, self.tmp, self.clock = w, base, tmp, clock
        self.cycle = 1
        self.checks = Checks()
        self.attempted = 0
        self.uppers = {}

    def setup(self):
        warm_up(self.w, self.tmp)
        self.problems = build_problems(self.w, self.base)

    def round(self, r: int, label: str, sink: list):
        """Every solve of the rotation, each one calibrated segment. Returns
        the round's raw and calibrated seconds."""
        clock = self.clock
        clock.start()
        for problem in self.problems:
            for tag in self.w.solvers:
                self.attempted += 1
                try:
                    solution, error = solve(tag, problem, self.w.eps), None
                except Exception as exc:  # counted as a failed solve, never retried
                    solution, error = None, f"{type(exc).__name__}: {exc}"
                sink.append(dict(key=(label, r, problem.seed, tag), problem=problem,
                                 solution=solution, calibrated_s=clock.mark(),
                                 error=error))
        return clock.wall, clock.total

    def timed(self, seconds: float, between):
        self.solves = []
        self.timed_s, self.raw_s, self.round_s = timed_loop(
            lambda r: self.round(r, "run", self.solves),
            seconds, self.w.min_rounds, between)
        by_instance = {}
        for s in self.solves:
            by_instance.setdefault(s["key"][1:3], {})[s["key"][3]] = s
            if s["error"] is not None:
                self.checks.fail(s["key"], s["error"])
            else:
                self.checks.solution(s["key"], s["problem"].instance, s["problem"].order,
                                     s["solution"])
        grad_losses, eps_losses = [], []   # first round only
        for (r, _), solves in sorted(by_instance.items()):
            opt, grad, eps = (solves.get(tag) for tag in ("opt", "grad", "eps"))
            if opt is None or opt["solution"] is None:
                continue
            opt_value = opt["solution"].wsr
            if eps is not None and eps["solution"] is not None:
                self.checks.pair(eps["key"], opt_value, eps["solution"].wsr, self.w.eps)
                self.checks.bracket(eps["key"], self.upper(opt["problem"]), opt_value)
                if r == 0:
                    eps_losses.append((opt_value - eps["solution"].wsr) / opt_value)
            if r == 0 and grad is not None and grad["solution"] is not None:
                grad_losses.append((opt_value - grad["solution"].wsr) / opt_value)
        latencies, round_solves = {}, [0] * len(self.round_s)
        for s in self.solves:
            if s["error"] is None:
                latencies.setdefault(s["key"][3], []).append(s["calibrated_s"])
                round_solves[s["key"][1]] += 1
        return dict(
            round_solves=round_solves, latencies=latencies,
            grad_losses=grad_losses, eps_losses=eps_losses,
            digest=digest(self.prefix_lines(self.solves)),
            seeds=[p.seed for p in self.problems])

    def upper(self, problem: Problem) -> float:
        if problem.seed not in self.uppers:
            self.uppers[problem.seed] = jspa.estimate_upper_bound(problem.instance,
                                                                  problem.tables)
        return self.uppers[problem.seed]

    @staticmethod
    def prefix_lines(solves):
        return [f"{s['key'][2]},{s['key'][3]},"
                f"{s['solution'].wsr if s['solution'] else 'error'!r}"
                for s in solves if s["key"][1] == 0]

    def traced(self, tracer: Tracer):
        """One set-up pass without the warm-up, then the first round, under spans."""
        solves = []
        with tracer.installed(TRACE_SITES):
            self.problems = build_problems(self.w, self.base)
            _, traced_s = self.round(0, "traced", solves)
        if self.prefix_lines(solves) != self.prefix_lines(self.solves):
            for s in solves:
                self.checks.fail(s["key"], "tracing changed a solution")
        return dict(traced_s=traced_s, self_frac=0.0, extra={})


# ---------------------------------------------------------------------------
# Metrics and output.

# The gated metrics (BENCHMARK.json); the report line carries every metric.
END_TO_END = ("setup_s", "solves_per_s", "peak_rss_mb")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile_ms(seconds: list, pct: float) -> float:
    return 1e3 * float(np.percentile(seconds, pct)) if seconds else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cycle_rate(round_solves: list, round_s: list, cycle: int) -> float:
    """Solves of one cycle over the sum of each of its rounds' median time.

    Every cycle does the same work, so a faster program is judged on the same
    solves, and a burst of load from other users of a shared machine during
    one round does not move the median.
    """
    return sum(round_solves[:cycle]) / sum(statistics.median(round_s[slot::cycle])
                                           for slot in range(cycle))


def end_to_end(w: Workload, setup_s: float, solves_per_s: float, out: dict, failed: int,
               attempted: int) -> dict:
    m = {"setup_s": metric(setup_s, "s"), "solves_per_s": metric(solves_per_s, "1/s")}
    for solver in ("opt", "grad", "eps"):
        if solver in w.solvers:
            values = out["latencies"].get(solver, [])
            m[f"{solver}_ms_p50"] = metric(percentile_ms(values, 50), "ms")
            m[f"{solver}_ms_tail"] = metric(percentile_ms(values, w.tail_pct), "ms")
    if out["grad_losses"]:
        m["grad_loss_mean"] = metric(float(np.mean(out["grad_losses"])), "1")
        m["grad_loss_p90"] = metric(float(np.percentile(out["grad_losses"], 90)), "1")
    m["eps_loss_max"] = metric(max(out["eps_losses"], default=0.0), "1")
    m["failed_frac"] = metric(failed / attempted, "1")
    m["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    return m


def layer_metrics(tracer: Tracer, traced: dict) -> tuple:
    """Per-layer metrics, and the report-only figures behind them.

    A layer that does not run on a workload reports 0 calls, ops and shares.
    Grad's layers are reported as shares of grad's time because grad does not
    run on every workload.
    """
    g = tracer.get

    def p50_ms(name, self_time=False):
        calls = g(name).per_call
        return 1e3 * statistics.median(c[1] if self_time else c[0] for c in calls) \
            if calls else 0.0

    def grad_share(seconds):
        total = g("jspa.grad_jspa").seconds
        return seconds / total if total else 0.0

    grad, eps = g("jspa.grad_jspa"), g("jspa.eps_jspa")
    fn_many, simplex = g("single_carrier.fn_value_many"), g("jspa.project_simplex")
    value, derivs = g("jspa.BudgetObjective.value"), g("jspa.BudgetObjective.derivatives")
    layers = {
        "model.generate_instance.ms_p50": metric(p50_ms("model.generate_instance"), "ms"),
        "model.build_decoding_order.ms_p50":
            metric(p50_ms("model.build_decoding_order"), "ms"),
        "single_carrier.iscus_precompute.ms_p50":
            metric(p50_ms("single_carrier.iscus_precompute"), "ms"),
        "single_carrier.iscus_precompute.calls":
            metric(g("single_carrier.iscus_precompute").calls, "count"),
        "single_carrier.iscus_precompute.ops":
            metric(g("single_carrier.iscus_precompute").ops, "count"),
        "single_carrier.fn_value_many.ms_total": metric(1e3 * fn_many.seconds, "ms"),
        "single_carrier.fn_value_many.calls": metric(fn_many.calls, "count"),
        "single_carrier.fn_value_many.budgets":
            metric(fn_many.info.get("budgets", 0), "count"),
        "single_carrier.iscus_eval.ms_total":
            metric(1e3 * g("single_carrier.iscus_eval").seconds, "ms"),
        "single_carrier.iscus_eval.calls": metric(g("single_carrier.iscus_eval").calls, "count"),
        "jspa.build_knapsack.ms_p50": metric(p50_ms("jspa.build_knapsack"), "ms"),
        "jspa.build_knapsack.ops": metric(g("jspa.build_knapsack").ops, "count"),
        "jspa.opt_jspa.self_ms_p50": metric(p50_ms("jspa.opt_jspa", True), "ms"),
        "jspa.opt_jspa.self_ops": metric(g("jspa.opt_jspa").self_ops, "count"),
        "jspa.grad_jspa.calls": metric(grad.calls, "count"),
        "jspa.grad_jspa.self_share": metric(grad_share(grad.self_seconds), "1"),
        "jspa.grad_jspa.iterations_mean":
            metric(grad.info.get("iterations", 0) / grad.calls if grad.calls else 0.0, "count"),
        "jspa.grad_jspa.converged_frac":
            metric(grad.info.get("converged", 0) / grad.calls if grad.calls else 0.0, "1"),
        "jspa.project_simplex.calls": metric(simplex.calls, "count"),
        "jspa.project_simplex.ops": metric(simplex.ops, "count"),
        "jspa.project_simplex.grad_share": metric(grad_share(simplex.seconds), "1"),
        "jspa.BudgetObjective.value.calls": metric(value.calls, "count"),
        "jspa.BudgetObjective.value.grad_share": metric(grad_share(value.seconds), "1"),
        "jspa.BudgetObjective.derivatives.grad_share":
            metric(grad_share(derivs.seconds), "1"),
        "jspa.estimate_upper_bound.ms_p50": metric(p50_ms("jspa.estimate_upper_bound"), "ms"),
        "jspa.estimate_upper_bound.ops": metric(g("jspa.estimate_upper_bound").ops, "count"),
        "jspa.select_items.ms_total": metric(1e3 * g("jspa.select_items").seconds, "ms"),
        "jspa.select_items.calls": metric(g("jspa.select_items").calls, "count"),
        "jspa.eps_jspa.items":
            metric(g("jspa.select_items").info.get("items", 0) / eps.calls
                   if eps.calls else 0.0, "count"),
        "jspa.eps_jspa.self_ms_p50": metric(p50_ms("jspa.eps_jspa", True), "ms"),
        "jspa.eps_jspa.self_ops": metric(eps.self_ops, "count"),
        "cli.run_experiment.self_frac": metric(traced["self_frac"], "1"),
        "ops.opt_total": metric(g("jspa.opt_jspa").ops, "count"),
        "ops.grad_total": metric(grad.ops, "count"),
        "ops.eps_total": metric(eps.ops, "count"),
        "trace.overhead_frac":
            metric(traced["traced_s"] / traced["untraced_s"] - 1.0, "1"),
    }
    extra = {
        "jspa.opt_jspa.ms_p50": (p50_ms("jspa.opt_jspa"), "ms"),
        "jspa.grad_jspa.ms_p50": (p50_ms("jspa.grad_jspa"), "ms"),
        "jspa.grad_jspa.self_ms_p50": (p50_ms("jspa.grad_jspa", True), "ms"),
        "jspa.eps_jspa.ms_p50": (p50_ms("jspa.eps_jspa"), "ms"),
        "jspa.project_simplex.ms_total": (1e3 * simplex.seconds, "ms"),
        "jspa.BudgetObjective.value.ms_total": (1e3 * value.seconds, "ms"),
        "jspa.BudgetObjective.derivatives.ms_total": (1e3 * derivs.seconds, "ms"),
        "trace.traced_s": (traced["traced_s"], "s"),
        "trace.untraced_s": (traced["untraced_s"], "s"),
        **traced["extra"],
    }
    return layers, {name: metric(*pair) for name, pair in extra.items()}


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool):
    """Set up, time, check and (optionally) trace one workload: (report, result)."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    reference = Reference()
    clock = Clock(reference)
    reference.sample()          # the kernel's own first-call costs
    setups, raw_setups = [], []

    def set_up():
        """One set-up pass, until SETUP_REPEATS are done, timed on the
        calibrated clock. The first is the real one, before the timed loop;
        the others run between rounds, so their median, setup_s, samples the
        machine across the whole run as solves_per_s does. The one-off import
        and the first pass's first-call costs are reported, not gated: each
        is one sample per process."""
        if len(setups) < SETUP_REPEATS:
            clock.start()
            run.setup()
            setups.append(clock.mark())
            raw_setups.append(clock.wall)

    try:
        run = (CampaignRun if w.campaign else LatencyRun)(w, seed_base(seed), tmp, clock)
        set_up()
        out = run.timed(seconds, set_up)
        while len(setups) < SETUP_REPEATS:
            set_up()
        if trace:
            tracer = new_tracer()
            traced = run.traced(tracer)
            # every cycle repeats the first round: compare with its median time
            traced["untraced_s"] = statistics.median(run.round_s[::run.cycle])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(run.checks.failed_keys)
    metrics = end_to_end(w, statistics.median(setups),
                         cycle_rate(out["round_solves"], run.round_s, run.cycle), out,
                         failed, run.attempted)
    metrics["raw_solves_per_s"] = metric(
        cycle_rate(out["round_solves"], run.raw_s, run.cycle), "1/s")
    metrics["raw_setup_s"] = metric(statistics.median(raw_setups), "s")
    report = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loop": "closed, one caller", "timed_s": run.timed_s,
        "round_s": {"calibrated": run.round_s, "raw": run.raw_s},
        "cycle_rounds": run.cycle,
        "calibration": {"ref_nominal_ms": 1e3 * REF_NOMINAL_S,
                        "ref_ms_p50": 1e3 * statistics.median(reference.samples),
                        "ref_samples": len(reference.samples)},
        "tail_pct": w.tail_pct,
        "samples": {solver: {"n": len(v),
                             "beyond_tail": int(np.sum(np.asarray(v) >
                                                       np.percentile(v, w.tail_pct)))}
                    for solver, v in out["latencies"].items()},
        "setup": {"import_s": IMPORT_SECONDS, "cold_s": IMPORT_SECONDS + raw_setups[0],
                  "repeats_s": setups, "raw_repeats_s": raw_setups},
        "seeds": out["seeds"], "digest": out["digest"], "machine": machine_facts(),
        "metrics": metrics,
        "failures": [f"{key}: {message}" for key, message in run.checks.failures[:20]],
    }
    if trace:
        layers, extra = layer_metrics(tracer, traced)
        report["layers"] = {**layers, **extra}
        shown = layers
    else:
        shown = {name: metrics[name] for name in END_TO_END}
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": shown}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    report, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace))
    for line in report["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
