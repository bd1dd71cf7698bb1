"""Batch experiment runner: seeded instances, solver dispatch, CSV emission.

One CSV row per (instance, solver) with the fixed header
``seed,K,N,M,solver,wsr,loss,ops,seconds``. Rows are deterministic under a
fixed seed list; wall-clock seconds are written as 0 when timing is turned
off so the whole file is byte-reproducible. The loss column is measured
against the exact grid optimum whenever the `opt` solver is part of the
run, and NaN otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .jspa import brute_force_jspa, check_brute_force, eps_jspa, grad_jspa, opt_jspa
from .model import (SystemConfig, build_decoding_order, check_eps_cells, check_finite,
                    check_grid_cells, generate_instance, grid_levels, parse_fields, read_kv_file)
from .ops import count_ops
from .single_carrier import iscus_precompute

KNOWN_SOLVERS = ("opt", "grad", "eps", "brute")
CSV_HEADER = "seed,K,N,M,solver,wsr,loss,ops,seconds"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one campaign needs: physics, sweeps, solvers, output.

    Each field but `system` is a config-file key, parsed as the type of its
    default; the keys of `system` are those of SystemConfig. The campaign
    draws every instance with users and max_mux from its sweeps (see
    `instance_system`), so `system` holds its largest draw and only the
    drawn pairs are validated.
    """

    system: SystemConfig = SystemConfig()
    solvers: tuple = ("opt", "grad")
    k_sweep: tuple = (5, 10, 20)
    m_sweep: tuple = (1, 2, 3)
    seeds: int = 50
    seed_base: int = 0
    epsilons: tuple = (0.1,)
    xi: float = 1e-4
    out: str = "results.csv"
    count_ops: bool = False
    timing: bool = True
    jobs: int = 1

    def __post_init__(self):
        check_finite(self)
        unknown = [s for s in self.solvers if s not in KNOWN_SOLVERS]
        if unknown:
            raise ValueError(f"unknown solver name(s): {', '.join(unknown)}")
        if not self.solvers or not self.k_sweep or not self.m_sweep:
            raise ValueError("solvers, k_sweep and m_sweep must be non-empty")
        if self.seeds < 1 or self.seed_base < 0:  # numpy seeds are non-negative
            raise ValueError("seeds must be >= 1 and seed_base >= 0")
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if "eps" in self.solvers and (not self.epsilons or min(self.epsilons) <= 0):
            raise ValueError("the eps solver needs positive epsilons")
        if min(self.m_sweep) < 1 or max(self.m_sweep) > min(self.k_sweep):
            raise ValueError("m_sweep values must lie in [1, min(k_sweep)]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        labels = solver_tags(self)
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"repeated solver label(s): {', '.join(repeated)}")
        object.__setattr__(self, "system", self.instance_system(max(self.k_sweep)))
        system = self.system
        if "opt" in self.solvers:
            check_grid_cells(system.subcarriers, system.p_max_w, system.delta_w, "delta_w")
        if "eps" in self.solvers:
            check_eps_cells(system.subcarriers, min(self.epsilons), "epsilons")
        if "brute" in self.solvers:
            check_brute_force(int(grid_levels(system.p_max_w, system.delta_w)),
                              system.subcarriers, "solvers = brute")

    def instance_system(self, users: int) -> SystemConfig:
        """The system an instance with the given user count is drawn from."""
        return dataclasses.replace(self.system, users=users,
                                   max_mux=min(max(self.m_sweep), users))

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        keys = {f.name for f in dataclasses.fields(SystemConfig)}
        keys |= {f.name for f in dataclasses.fields(cls) if f.name != "system"}
        unknown = [key for key in raw if key not in keys]
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        system = parse_fields(SystemConfig, raw)
        # users and max_mux are set per instance from the sweeps
        system.pop("users", None)
        system.pop("max_mux", None)
        return cls(system=SystemConfig(**system), **parse_fields(cls, raw))


def solver_runs(config: ExperimentConfig) -> list:
    """(CSV label, solve(instance, tables)) per row, `eps` once per epsilon.

    Each solve looks its solver up in this module when it runs, so a solver
    patched onto this module is the one the campaign calls.
    """
    runs = []
    for name in config.solvers:
        if name == "eps":
            runs.extend((f"eps:{e:g}", lambda inst, tables, e=e: eps_jspa(inst, tables, e))
                        for e in config.epsilons)
        elif name == "grad":
            runs.append((name, lambda inst, tables: grad_jspa(inst, tables, config.xi)))
        elif name == "opt":
            runs.append((name, lambda inst, tables: opt_jspa(inst, tables)))
        else:
            runs.append((name, lambda inst, tables: brute_force_jspa(inst, tables)))
    return runs


def solver_tags(config: ExperimentConfig) -> list:
    """Per-row solver labels, with `eps` expanded over the epsilon list."""
    return [label for label, _ in solver_runs(config)]


def _instance_records(config: ExperimentConfig, seed: int, k: int) -> list:
    """All CSV lines for one seeded instance: every M, every solver."""
    instance = generate_instance(config.instance_system(k), seed)
    order = build_decoding_order(instance)
    runs = solver_runs(config)
    rows = []
    for m in config.m_sweep:
        tables = [iscus_precompute(instance, order, n, m)
                  for n in range(instance.n_carriers)]
        results = {}
        for tag, solve in runs:
            start = time.perf_counter()
            with count_ops(enabled=config.count_ops) as counter:
                solution = solve(instance, tables)
            elapsed = time.perf_counter() - start
            results[tag] = (solution.wsr, counter.total, elapsed)
        reference = results.get("opt", (math.nan,))[0] or math.nan  # no opt, or opt worth 0
        for tag, (wsr, ops, elapsed) in results.items():
            loss = 0.0 if tag == "opt" else (reference - wsr) / reference
            seconds = elapsed if config.timing else 0.0
            rows.append(f"{seed},{k},{instance.n_carriers},{m},{tag},"
                        f"{wsr!r},{loss!r},{ops},{seconds:.6f}\n")
    return rows


def run_experiment(config: ExperimentConfig, out_path: str | None = None) -> int:
    """Run the campaign and stream rows into the CSV. Returns the row count.

    Tasks are one instance each (a seed and a user count). A pool of
    min(jobs, tasks, cores) processes runs them when that is above 1, and
    the single CSV writer in the parent consumes completed tasks in
    submission order, so the output file does not depend on the pool size.
    Rows stream into a temporary file beside the output, which replaces it
    only once the campaign has finished: a campaign that stops early, say
    at a refused draw, leaves an earlier output file as it was and removes
    its temporary file.
    """
    path = out_path if out_path is not None else config.out
    seeds = [seed for seed in range(config.seed_base, config.seed_base + config.seeds)
             for _ in config.k_sweep]
    ks = config.k_sweep * config.seeds
    workers = min(config.jobs, len(seeds), os.cpu_count() or 1)
    count = 0
    partial = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is one rename
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            with (ProcessPoolExecutor(max_workers=workers) if workers > 1
                  else contextlib.nullcontext()) as pool:
                for batch in (pool.map if pool else map)(_instance_records,
                                                         itertools.repeat(config), seeds, ks):
                    fh.writelines(batch)
                    count += len(batch)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise
    return count


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-jspa",
        description="Weighted sum-rate benchmark campaign for multi-carrier "
                    "NOMA power/subcarrier allocation.")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file (defaults used if omitted)")
    parser.add_argument("--seed-base", metavar="INT",
                        help="first seed of the campaign")
    parser.add_argument("--solvers", metavar="LIST",
                        help="comma-separated subset of: " + ",".join(KNOWN_SOLVERS))
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--count-ops", metavar="BOOL",
                        help="count basic operations per solver call (true/false)")
    return parser


def main(argv=None) -> int:
    flags = vars(build_arg_parser().parse_args(argv))
    path = flags.pop("config")
    try:
        # each flag is the text of the config key it names, laid over the file's
        raw = read_kv_file(path) if path else {}
        raw.update((key, text) for key, text in flags.items() if text is not None)
        config = ExperimentConfig.from_mapping(raw)
        count = run_experiment(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {count} rows to {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
