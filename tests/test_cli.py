"""Experiment runner: config parsing, CSV contract, determinism, op counting."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nomajspa

from nomajspa import cli, jspa, single_carrier
from nomajspa.cli import (
    CSV_HEADER,
    ExperimentConfig,
    build_arg_parser,
    main,
    run_experiment,
    solver_runs,
    solver_tags,
)
from nomajspa.model import SystemConfig, build_decoding_order, generate_instance, read_kv_file
from nomajspa.ops import count_ops
from nomajspa.single_carrier import iscus_precompute, scpc, scus
from conftest import small_instance
from test_jspa import eps_dp

# the Python and numpy versions the campaign digests below were recorded on
PINNED_VERSIONS = sys.version_info[:2] == (3, 11) and np.__version__ == "2.4.6"


def tiny_config(**kw):
    base = dict(
        system=SystemConfig(users=3, subcarriers=2, max_mux=2, delta_w=0.5),
        solvers=("opt", "grad"),
        k_sweep=(3,),
        m_sweep=(1, 2),
        seeds=3,
        seed_base=0,
        xi=1e-3,
        timing=False,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        seed, k, n, m, solver, wsr, loss, ops, seconds = line.split(",")
        rows.append(dict(seed=int(seed), K=int(k), N=int(n), M=int(m),
                         solver=solver, wsr=float(wsr), loss=float(loss),
                         ops=int(ops), seconds=float(seconds)))
    return rows


class TestConfig:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            tiny_config(solvers=("opt", "magic"))

    def test_empty_sweeps_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(k_sweep=())
        with pytest.raises(ValueError):
            tiny_config(seeds=0)

    def test_mux_sweep_bounded_by_users(self):
        with pytest.raises(ValueError):
            tiny_config(m_sweep=(1, 4))

    def test_only_drawn_instances_are_validated(self):
        # the sweeps set users and max_mux per instance; the default users = 10
        # is never drawn, so it must not veto max_mux = 12
        cfg = ExperimentConfig.from_mapping({"max_mux": "12", "k_sweep": "20",
                                             "m_sweep": "1,12"})
        assert (cfg.system.users, cfg.system.max_mux) == (20, 12)
        assert cfg.instance_system(20).max_mux == 12
        with pytest.raises(ValueError, match="m_sweep"):
            ExperimentConfig.from_mapping({"k_sweep": "5,20", "m_sweep": "1,12"})

    def test_from_mapping_and_file(self, tmp_path):
        cfg_file = tmp_path / "campaign.cfg"
        cfg_file.write_text(
            "users = 3\nsubcarriers = 2\nmax_mux = 2\ndelta_w = 0.5\n"
            "solvers = opt,grad,eps\nepsilons = 0.5,0.1\nk_sweep = 3\n"
            "m_sweep = 1\nseeds = 2\nseed_base = 7\nxi = 1e-3\n"
            "count_ops = true\ntiming = false\njobs = 1\nout = r.csv\n")
        cfg = ExperimentConfig.from_mapping(read_kv_file(cfg_file))
        assert cfg.system.users == 3
        assert cfg.solvers == ("opt", "grad", "eps")
        assert cfg.epsilons == (0.5, 0.1)
        assert cfg.seed_base == 7
        assert cfg.count_ops and not cfg.timing
        assert solver_tags(cfg) == ["opt", "grad", "eps:0.5", "eps:0.1"]

    def test_eps_solver_needs_epsilons(self):
        with pytest.raises(ValueError):
            tiny_config(solvers=("eps",), epsilons=())

    def test_epsilons_sharing_a_label_rejected(self):
        with pytest.raises(ValueError, match="eps:0.1"):
            tiny_config(solvers=("opt", "eps"), epsilons=(0.1, 0.1000001))

    @pytest.mark.parametrize("cls", [SystemConfig, ExperimentConfig])
    def test_field_defaults_have_their_annotated_type(self, cls):
        # config values are parsed as the type of the field's default
        for f in dataclasses.fields(cls):
            assert type(f.default).__name__ == f.type, f.name

    def test_reference_campaign_file(self):
        # the campaign whose CSV digests a same-bytes change compares
        path = Path(__file__).resolve().parent / "reference_campaign.cfg"
        assert ExperimentConfig.from_mapping(read_kv_file(path)) == ExperimentConfig(
            solvers=("opt", "grad", "eps"), k_sweep=(5, 10, 20), m_sweep=(1, 2, 3),
            seeds=3, seed_base=7, timing=False)

    @pytest.mark.skipif(
        not PINNED_VERSIONS,
        reason="README's reference digests were recorded on Python 3.11 with numpy 2.4.6")
    @pytest.mark.parametrize("line, flags", [(0, []), (1, ["--count-ops", "true"])],
                             ids=["plain", "count_ops"])
    def test_reference_campaign_matches_readme_digests(self, tmp_path, line, flags):
        # README's `sha256sum "$R"` lines, in order, each after its command
        root = Path(__file__).resolve().parents[1]
        digests = [text.rsplit("# ", 1)[1] for text in (root / "README.md").read_text().splitlines()
                   if text.startswith('sha256sum "$R"')]
        out = tmp_path / "r.csv"
        assert main(["--config", str(root / "tests" / "reference_campaign.cfg"),
                     "--out", str(out)] + flags) == 0
        assert len(digests) == 2
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[line]

    def test_readme_config_block_names_every_key(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        cfg_file = tmp_path / "readme.cfg"
        cfg_file.write_text(readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0])
        raw = read_kv_file(cfg_file)
        assert ExperimentConfig.from_mapping(raw) == ExperimentConfig()
        keys = {f.name for f in dataclasses.fields(SystemConfig)}
        keys |= {f.name for f in dataclasses.fields(ExperimentConfig)} - {"system"}
        assert set(raw) == keys


class TestRunExperiment:
    @pytest.mark.parametrize("count_ops, digest", [
        (False, "9b4ba3ecec5c71fab5e1c43bfbd5247072b989555eab248205f2776b7b95c559"),
        (True, "ce88a26ced5e0f559692921877be651ed7a2d4006bc9443eb50227635efb80e0"),
    ], ids=["plain", "count_ops"])
    def test_seeded_campaign_bytes_are_pinned(self, tmp_path, count_ops, digest):
        # a change that moves any wsr, loss or ops digit must re-pin this on purpose
        cfg = ExperimentConfig(solvers=("opt", "grad", "eps"), k_sweep=(5, 10), m_sweep=(1, 3),
                               seeds=2, timing=False, count_ops=count_ops)
        out = tmp_path / "r.csv"
        run_experiment(cfg, out_path=str(out))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_each_table_set_is_stacked_once(self, tmp_path, monkeypatch):
        # opt, grad and eps solve each (instance, M)'s tables on one shared stack
        stack, stacked = single_carrier.stack_candidates, []

        def counting(tables):
            stacked.append((tables[0].wp.size, tables[0].max_active))
            return stack(tables)

        monkeypatch.setattr(single_carrier, "stack_candidates", counting)
        cfg = tiny_config(solvers=("opt", "grad", "eps"), k_sweep=(2, 3), m_sweep=(1, 2),
                          seeds=2)
        run_experiment(cfg, out_path=str(tmp_path / "r.csv"))
        assert stacked == [(k, m) for _ in range(2) for k in (2, 3) for m in (1, 2)]
        # a list of equal copies is no memoized set: each solve stacks it anew,
        # and every solution keeps its bits
        instance = generate_instance(cfg.instance_system(3), 0)
        order = build_decoding_order(instance)
        tables = [iscus_precompute(instance, order, n, 2) for n in range(instance.n_carriers)]
        copies = [dataclasses.replace(t) for t in tables]
        expect = [solve(instance, tables) for _, solve in solver_runs(cfg)]
        stacked.clear()
        for want, (_, solve) in zip(expect, solver_runs(cfg)):
            got = solve(instance, copies)
            assert (got.wsr, got.upper, got.budgets.tobytes(), got.x.tobytes()) == (
                want.wsr, want.upper, want.budgets.tobytes(), want.x.tobytes())
        assert stacked == [(3, 2)] * len(expect)

    def test_a_solvers_ops_do_not_depend_on_the_solvers_listed(self, tmp_path):
        # the shared stack is charged to no solver, so each solver's rows keep
        # their ops whether it runs alone, first or after the others
        def rows(solvers):
            out = tmp_path / "r.csv"
            run_experiment(tiny_config(solvers=solvers, k_sweep=(2, 3), count_ops=True),
                           out_path=str(out))
            lines = [line.split(",") for line in out.read_text().splitlines()[1:]]
            return {(r[0], r[1], r[3], r[4]): (r[5], int(r[7])) for r in lines}

        together = rows(("opt", "grad", "eps"))
        for solver in (("grad",), ("eps",), ("opt",)):
            alone = rows(solver)
            assert alone and all(ops > 0 for _, ops in alone.values())
            assert alone == {key: together[key] for key in alone}
        assert rows(("eps", "grad", "opt")) == together

    def test_eps_dp_budgets_over_the_reference_campaign_are_pinned(self):
        # eps stops at its bracket on every draw of the reference campaign, so
        # its CSV no longer reaches the DP by profits: this pins the budgets
        # the DP picks there on eps's own bracket
        path = Path(__file__).resolve().parent / "reference_campaign.cfg"
        config = ExperimentConfig.from_mapping(read_kv_file(path))
        digest = hashlib.sha256()
        for seed in range(config.seed_base, config.seed_base + config.seeds):
            for k in config.k_sweep:
                instance = generate_instance(config.instance_system(k), seed)
                order = build_decoding_order(instance)
                for m in config.m_sweep:
                    tables = [iscus_precompute(instance, order, n, m)
                              for n in range(instance.n_carriers)]
                    for eps in config.epsilons:
                        digest.update(eps_dp(instance, tables, eps).budgets.tobytes())
        assert digest.hexdigest() == (
            "e41551ae92c9332597fa3f3ab716b863646f309575d922216bfd1c447568df1d")

    def test_dp_campaign_reaches_the_dp_within_its_guarantee(self, tmp_path, monkeypatch):
        # the campaign CI runs so that eps's DP by profits runs at campaign size
        path = Path(__file__).resolve().parent / "dp_campaign.cfg"
        config = ExperimentConfig.from_mapping(read_kv_file(path))
        assert config == ExperimentConfig(
            system=SystemConfig(delta_w=0.25), solvers=("opt", "eps"), epsilons=(0.001,),
            k_sweep=(5, 10, 20), m_sweep=(1, 2, 3), seeds=6, seed_base=41, timing=False)
        dp, runs = jspa._eps_dp, []

        def counting(*args):
            runs.append(args)
            return dp(*args)

        monkeypatch.setattr(jspa, "_eps_dp", counting)
        out = tmp_path / "dp.csv"
        assert run_experiment(config, out_path=str(out)) == 108
        losses = [float(row.split(",")[6]) for row in out.read_text().splitlines()[1:]
                  if ",eps:" in row]
        assert len(losses) == 54 and max(losses) <= 0.001
        assert runs  # 5 of the 54 eps solves
        if not PINNED_VERSIONS:
            return
        # its bytes, plain and with count_ops, pin the DP's choices at campaign size
        ops = tmp_path / "dp_ops.csv"
        run_experiment(dataclasses.replace(config, count_ops=True), out_path=str(ops))
        assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in (out, ops)] == [
            "4b36b6346b78131d9848e5c46b56b46743bada3426a32de8483faedd9df5dff3",
            "389544d418babf7e25e1ee55842d99ee833aee79c2e365843b57a7fd715871aa"]

    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        # 3 seeds x 1 K x 2 M x 2 solvers
        assert run_experiment(tiny_config(), out_path=str(out)) == 12
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]  # no temporary file left
        rows = read_rows(out)
        assert len(rows) == 12
        assert {r["solver"] for r in rows} == {"opt", "grad"}
        assert all(r["N"] == 2 for r in rows)
        assert all(r["wsr"] >= 0.0 for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tiny_config()
        run_experiment(cfg, out_path=str(out1))
        run_experiment(cfg, out_path=str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_timing_column_only_varies_with_clock(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tiny_config(timing=True)
        run_experiment(cfg, out_path=str(out1))
        run_experiment(cfg, out_path=str(out2))
        strip = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
        assert strip(out1) == strip(out2)

    def test_parallel_jobs_reproduce_serial_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(tiny_config(jobs=1), out_path=str(out1))
        run_experiment(tiny_config(jobs=2), out_path=str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("jobs, tasks, cores, workers", [
        (10 ** 6, 2, 64, 2),  # never more workers than tasks
        (10 ** 6, 3, 2, 2),  # nor than cores
        (8, 3, None, None),  # an unknown core count is one core: no pool
    ])
    def test_pool_is_sized_by_jobs_tasks_and_cores(self, tmp_path, monkeypatch,
                                                   jobs, tasks, cores, workers):
        # a fork pool starts every worker at the first submit, so jobs = 5000 used
        # to fork 5000 processes for a 3-task campaign
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        serial, pooled = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(tiny_config(seeds=tasks), out_path=str(serial))
        assert asked == []
        run_experiment(tiny_config(seeds=tasks, jobs=jobs), out_path=str(pooled))
        assert asked == ([workers] if workers else [])
        assert pooled.read_bytes() == serial.read_bytes()

    def test_loss_recomputable_from_wsr_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(tiny_config(seeds=4), out_path=str(out))
        rows = read_rows(out)
        by_key = {(r["seed"], r["K"], r["M"], r["solver"]): r for r in rows}
        for r in rows:
            ref = by_key[(r["seed"], r["K"], r["M"], "opt")]["wsr"]
            expected = 0.0 if r["solver"] == "opt" else (ref - r["wsr"]) / ref
            assert abs(r["loss"] - expected) <= 1e-12

    def test_optimal_wsr_non_decreasing_in_mux_cap(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = tiny_config(solvers=("opt",), m_sweep=(1, 2, 3),
                          system=SystemConfig(users=4, subcarriers=2, max_mux=3,
                                              delta_w=0.5),
                          k_sweep=(4,), seeds=4)
        run_experiment(cfg, out_path=str(out))
        rows = read_rows(out)
        for seed in range(4):
            per_m = [r["wsr"] for r in rows if r["seed"] == seed]
            assert per_m == sorted(per_m) or all(
                b >= a * (1 - 1e-9) for a, b in zip(per_m, per_m[1:]))

    def test_ops_column_zero_without_counting(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(tiny_config(), out_path=str(out))
        assert all(r["ops"] == 0 for r in read_rows(out))
        run_experiment(tiny_config(count_ops=True), out_path=str(out))
        assert all(r["ops"] > 0 for r in read_rows(out))

    def test_all_solvers_dispatch(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = tiny_config(solvers=("opt", "grad", "eps", "brute"),
                          epsilons=(0.5,), seeds=1, m_sweep=(2,))
        run_experiment(cfg, out_path=str(out))
        rows = {r["solver"]: r for r in read_rows(out)}
        assert set(rows) == {"opt", "grad", "eps:0.5", "brute"}
        assert rows["brute"]["wsr"] == pytest.approx(rows["opt"]["wsr"], rel=1e-9)
        assert rows["eps:0.5"]["wsr"] >= 0.5 * rows["opt"]["wsr"]
        assert rows["opt"]["loss"] == 0.0

    def test_eps_runs_each_configured_float(self, tmp_path, monkeypatch):
        real = cli.eps_jspa
        calls = []

        def recording(instance, tables, eps):
            calls.append(eps)
            return real(instance, tables, eps)

        monkeypatch.setattr(cli, "eps_jspa", recording)
        cfg = tiny_config(solvers=("eps",), epsilons=(0.1, 0.123456789), seeds=1,
                          m_sweep=(1,))
        run_experiment(cfg, out_path=str(tmp_path / "r.csv"))
        assert calls == [0.1, 0.123456789]
        assert [r["solver"] for r in read_rows(tmp_path / "r.csv")] == [
            "eps:0.1", "eps:0.123457"]

    def test_precompute_is_called_per_table_through_cli(self, tmp_path, monkeypatch):
        # a benchmark that times the campaign hooks `cli.iscus_precompute`: it
        # splits a round into (K, M) segments on each n == 0 call and counts
        # one call per table, so a refactor must keep this call pattern
        real = cli.iscus_precompute
        calls = []

        def recording(instance, order, n, max_active):
            calls.append((instance.n_users, max_active, n))
            return real(instance, order, n, max_active)

        monkeypatch.setattr(cli, "iscus_precompute", recording)
        cfg = tiny_config(k_sweep=(2, 3), m_sweep=(1, 2), seeds=2)
        run_experiment(cfg, out_path=str(tmp_path / "r.csv"))
        assert calls == [(k, m, n) for _ in range(2) for k in (2, 3) for m in (1, 2)
                         for n in range(2)]

    def test_unwritable_output_path(self, tmp_path):
        with pytest.raises(OSError):
            run_experiment(tiny_config(), out_path=str(tmp_path / "no" / "dir.csv"))


RUNNABLE = "k_sweep = 2\nm_sweep = 1\nseeds = 1\nsubcarriers = 2\ndelta_w = 1\ntiming = false\n"
NON_FINITE_OR_NEGATIVE = [("p_max_w", "inf"), ("cell_radius_m", "inf"), ("bandwidth_hz", "inf"),
                          ("min_weight", "inf"), ("shadowing_std_db", "-1")]


def forbid_solves(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a solve started")

    for name in ("iscus_precompute", "grad_jspa", "opt_jspa", "eps_jspa"):
        monkeypatch.setattr(cli, name, no_solve)


class TestMain:
    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "users = 3\nsubcarriers = 2\nmax_mux = 2\ndelta_w = 0.5\n"
            "solvers = opt,grad\nk_sweep = 3\nm_sweep = 1\nseeds = 2\n"
            "xi = 1e-3\ntiming = false\n")
        out = tmp_path / "cli.csv"
        code = main(["--config", str(cfg_file), "--solvers", "opt",
                     "--seed-base", "5", "--out", str(out), "--count-ops", "true"])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert {r["solver"] for r in rows} == {"opt"}
        assert {r["seed"] for r in rows} == {5, 6}
        assert all(r["ops"] > 0 for r in rows)
        assert "wrote 2 rows" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("solvers = magic\n", "unknown solver"),
        ("userz = 5\nseedz = 2\n", "userz, seedz"),
        ("users = abc\n", "users = 'abc'"),
        ("seeds = 2\nusers = 3\nseeds = 1\n", "c.cfg:3"),
        ("carrier_freq_hz = 2e9\n", "unknown config key(s): carrier_freq_hz"),
        # a runnable campaign but for one float: each used to end in a traceback,
        # an inf or nan wsr, or numpy's "scale < 0"
        *((f"{RUNNABLE}{key} = {value}\n", key) for key, value in NON_FINITE_OR_NEGATIVE),
        # a finite PSD whose 10^(psd/10) W/Hz overflows a Python float
        (f"{RUNNABLE}noise_psd_dbm_hz = 3200\n", "noise_psd_dbm_hz = 3200.0"),
        # p_max_w / delta_w = 1e301 levels overflow int64: eps used to write a nan
        # row and exit 0, opt to fail on a negative array size
        *((f"{RUNNABLE.replace('delta_w = 1', 'delta_w = 1e-300')}solvers = {solvers}\n",
           "delta_w = 1e-300") for solvers in ("eps", "opt")),
        # finite and not negative, but out of range
        (f"{RUNNABLE}xi = 0\n", "xi must be positive"),
        (f"{RUNNABLE}jobs = 0\n", "jobs must be >= 1"),
        (f"{RUNNABLE}bandwidth_hz = 0\n", "bandwidth_hz and p_max_w must be positive"),
        (f"{RUNNABLE}p_max_carrier_w = 20\n", "p_max_carrier_w must be 0 (unset) or in (0, "),
    ], ids=["unknown_solver", "unknown_key", "unparsable_value", "repeated_key",
            "removed_key", *(key for key, _ in NON_FINITE_OR_NEGATIVE), "noise_psd_overflow",
            "uncountable_grid_eps", "uncountable_grid_opt", "xi_zero", "jobs_zero",
            "bandwidth_zero", "carrier_cap_above_p_max"])
    def test_bad_config_reports_error(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(text)
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "r.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_carrier_cap_below_grid_step_reports_error(self, tmp_path, capsys):
        # a cap under one grid step leaves every class only its zero item: opt's
        # wsr is 0 and the loss column would divide by it
        with pytest.raises(ValueError, match="p_max_carrier_w .* delta_w"):
            ExperimentConfig.from_mapping({"p_max_carrier_w": "0.005", "delta_w": "0.01"})
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("p_max_carrier_w = 0.005\ndelta_w = 0.01\n")
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "r.csv")]) == 2
        assert "p_max_carrier_w" in capsys.readouterr().err
        # one grid step is the smallest cap
        cfg = ExperimentConfig.from_mapping({"p_max_carrier_w": "0.01", "delta_w": "0.01"})
        assert cfg.system.p_max_carrier_w == 0.01

    def test_grid_too_fine_for_opt_reports_error(self, tmp_path, capsys, monkeypatch):
        # p_max_w / delta_w = 1e9 levels are countable, but opt's 2 x (1e9 + 1)
        # profit table, 16 GB, is over model.GRID_CELLS. It used to pass
        # validation; no grid may be built now. grad and eps never build it
        def no_grid(levels, delta):
            raise AssertionError(f"opt built a grid of {levels + 1} levels")

        monkeypatch.setattr(jspa, "_grid", no_grid)
        fine = SystemConfig(users=3, subcarriers=2, max_mux=2, delta_w=1e-8)
        with pytest.raises(ValueError, match=r"^delta_w = 1e-08 gives opt a 2 x "):
            tiny_config(system=fine)
        assert tiny_config(system=fine, solvers=("grad", "eps"), epsilons=(0.1,)).system == fine
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"{RUNNABLE.replace('delta_w = 1', 'delta_w = 1e-8')}solvers = opt\n")
        out = tmp_path / "r.csv"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        assert "delta_w = 1e-08 gives opt a 2 x " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (f"{RUNNABLE}solvers = eps\nepsilons = 1e-12\n", "epsilons = 1e-12 gives eps a 2 x "),
        (f"{RUNNABLE}solvers = eps\nepsilons = 5e-324\n", "epsilons = 5e-324 gives eps a 2 x inf"),
        ("k_sweep = 2\nm_sweep = 1\nseeds = 1\nsubcarriers = 6\nsolvers = brute\n",
         "solvers = brute would enumerate (1001)^6 vectors"),
    ], ids=["eps_table_too_large", "eps_subnormal", "brute_over_limit"])
    def test_too_large_a_solve_leaves_output_untouched(self, tmp_path, capsys, monkeypatch,
                                                       text, message):
        # each passed validation, cut the CSV to its header and then failed in its
        # first solve: numpy asked for 58 TiB, int(inf), or brute's own guard
        def no_solve(*args):
            raise AssertionError("a solve started")

        monkeypatch.setattr(jspa, "eps_bracket", no_solve)
        monkeypatch.setattr(cli, "iscus_precompute", no_solve)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "r.csv"
        out.write_text("earlier results\n")
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    def test_zero_grid_optimum_finishes_campaign(self, tmp_path, capsys):
        # 150 dB shadowing makes b + eta_tilde == eta_tilde in floats: every F_n,
        # and so opt's wsr, is exactly 0 and no loss can be measured against it
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "users = 1\nsubcarriers = 2\nshadowing_std_db = 150\nk_sweep = 1\n"
            "m_sweep = 1\nseeds = 1\nseed_base = 4\nsolvers = opt,grad,eps\ntiming = false\n")
        out = tmp_path / "zero.csv"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert all(r["wsr"] == 0.0 and r["loss"] == 0.0 for r in rows if r["solver"] == "opt")
        assert all(math.isnan(r["loss"]) for r in rows if r["solver"] != "opt")

    def test_subnormal_xi_finishes_campaign(self, tmp_path, capsys):
        # p_max / xi overflows to inf at xi = 5e-324; grad's iteration cap used to
        # raise an OverflowError
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"{RUNNABLE}xi = 5e-324\nsolvers = grad,opt\n")
        out = tmp_path / "r.csv"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["solver"] for r in rows] == ["grad", "opt"]
        assert all(math.isfinite(r["wsr"]) and r["wsr"] > 0 for r in rows)

    def test_huge_xi_still_takes_a_grad_step(self, tmp_path, capsys):
        # xi >= 1024 * p_max made grad's iteration cap 0: grad returned the zero
        # split and the campaign wrote a grad wsr of 0 and a loss of 1
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"{RUNNABLE}xi = 20000\nsolvers = grad,opt\n")
        out = tmp_path / "r.csv"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["solver"] for r in rows] == ["grad", "opt"]
        assert all(math.isfinite(r["wsr"]) and r["wsr"] > 0 for r in rows)
        assert rows[0]["loss"] < 1.0

    @pytest.mark.parametrize("text", [
        "k_sweep = 2\nm_sweep = 1\nseeds = 1\nsubcarriers = 6\nsolvers = brute\n",
        f"{RUNNABLE}solvers = opt,eps\nepsilons = 1e-12\n",
    ], ids=["brute_over_limit", "eps_table_too_large"])
    def test_flags_are_validated_with_the_file(self, tmp_path, capsys, text):
        # the file used to be validated alone, before the flags were laid over it
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "r.csv"
        assert main(["--config", str(cfg_file), "--out", str(out), "--solvers", "opt"]) == 0
        assert [r["solver"] for r in read_rows(out)] == ["opt"]

    @pytest.mark.parametrize("flag, text, message", [
        ("--seed-base", "x", "seed_base = 'x': invalid literal for int()"),
        ("--count-ops", "maybe", "count_ops = 'maybe': expected a boolean"),
    ])
    def test_bad_flag_leaves_output_untouched(self, tmp_path, capsys, flag, text, message):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(RUNNABLE)
        out = tmp_path / "r.csv"
        out.write_text("earlier results\n")
        assert main(["--config", str(cfg_file), "--out", str(out), flag, text]) == 2
        assert message in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    @pytest.mark.parametrize("value", ["2", "1e308"])
    def test_min_weight_above_one_leaves_output_untouched(self, tmp_path, capsys, monkeypatch,
                                                          value):
        # 1e308 used to pass: grad never returned, opt raised an IndexError and
        # eps blamed its estimate
        forbid_solves(monkeypatch)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"{RUNNABLE}min_weight = {value}\n")
        out = tmp_path / "r.csv"
        out.write_text("earlier results\n")
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        assert "min_weight must be in (0, 1]" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    @pytest.mark.parametrize("solver", ["grad", "opt", "eps"])
    def test_overflowing_rates_stop_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                     solver):
        # grad used to write a wsr of 0, opt to raise an IndexError and eps to
        # report upper = nan; the draw is refused now, naming the seed, and it
        # used to cut an earlier results file to the CSV header
        forbid_solves(monkeypatch)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"{RUNNABLE}bandwidth_hz = 1e308\nsolvers = {solver}\n")
        out = tmp_path / "r.csv"
        out.write_text("earlier results\n")
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed 0: the weighted rates overflow a float")
        assert "bandwidth_hz = 1e+308" in err
        assert out.read_text() == "earlier results\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "r.csv"]

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_negative_seed_base_leaves_output_untouched(self, tmp_path, capsys, how):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(RUNNABLE + ("seed_base = -2\n" if how == "config" else ""))
        out = tmp_path / "r.csv"
        out.write_text("earlier results\n")
        flags = ["--seed-base", "-2"] if how == "flag" else []
        assert main(["--config", str(cfg_file), "--out", str(out), *flags]) == 2
        assert "seed_base" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    def test_unwritable_out_reports_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("users = 3\nsubcarriers = 2\nmax_mux = 2\n"
                            "delta_w = 0.5\nk_sweep = 3\nm_sweep = 1\nseeds = 1\n")
        code = main(["--config", str(cfg_file),
                     "--out", str(tmp_path / "missing" / "r.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_coarser_than_carriers_finishes_campaign(self, tmp_path, capsys):
        # delta_w = 1 gives J = 10 power levels for N = 20 subcarriers
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "subcarriers = 20\ndelta_w = 1\nsolvers = opt,eps\nepsilons = 0.1\n"
            "k_sweep = 3,4\nm_sweep = 1,2\nseeds = 2\ntiming = false\n")
        out = tmp_path / "coarse.csv"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
        rows = read_rows(out)
        # 2 seeds x 2 K x 2 M x 2 solvers
        assert len(rows) == 16
        assert "wrote 16 rows" in capsys.readouterr().out
        assert all(r["N"] == 20 for r in rows)
        assert all(r["loss"] <= 0.1 for r in rows if r["solver"] == "eps:0.1")

    def test_module_entry_point_runs_without_runtime_warning(self):
        src = str(Path(nomajspa.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "nomajspa.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "noma-jspa" in proc.stdout

    def test_parser_knows_documented_flags(self):
        # each flag but --config is left as text under the config key it names
        parser = build_arg_parser()
        args = parser.parse_args(["--config", "x", "--seed-base", "3",
                                  "--solvers", "opt", "--out", "y",
                                  "--count-ops", "false"])
        assert vars(args) == dict(config="x", seed_base="3", solvers="opt", out="y",
                                  count_ops="false")
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(vars(args)) - {"config"} <= keys


class TestOperationCounting:
    def test_power_control_single_user_is_constant_cost(self):
        costs = []
        for users in (5, 40):
            inst = small_instance(1, users=users, carriers=1, max_mux=1)
            order = build_decoding_order(inst)
            with count_ops() as counter:
                scpc(inst, order, 0, (users // 2,), 1.0)
            costs.append(counter.total)
        assert costs[0] == costs[1]
        assert 0 < costs[0] <= 50

    def test_user_selection_cost_scales_quadratically(self):
        def cost(users):
            inst = small_instance(2, users=users, carriers=1, max_mux=2)
            order = build_decoding_order(inst)
            with count_ops() as counter:
                scus(inst, order, 0, 2, inst.p_max)
            return counter.total

        ratios = [cost(16) / cost(8), cost(32) / cost(16)]
        assert all(2.8 <= r <= 5.2 for r in ratios)

    def test_disabled_counter_reports_zero(self):
        inst = small_instance(2, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        with count_ops(enabled=False) as counter:
            scus(inst, order, 0, 2, inst.p_max)
        assert counter.total == 0

    def test_counts_monotone_within_scope(self):
        inst = small_instance(2, users=4, carriers=1, max_mux=2)
        order = build_decoding_order(inst)
        with count_ops() as counter:
            iscus_precompute(inst, order, 0, 2)
            first = counter.total if counter.enabled else 0
            # the live total only grows as more work happens
            from nomajspa.ops import _state
            live_before = _state.total
            scus(inst, order, 0, 2, 1.0)
            assert _state.total >= live_before
        assert counter.total >= live_before
