"""Smoke test of the benchmark at a tiny size.

Every metric BENCHMARK.json names is emitted with its unit on every workload,
a wrong solution makes the run fail, and a directory without the program's
sources gives no result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to a few milliseconds per solve, set up twice.

    The grad loss gates are criterion 07's, stated at desk scale; on a
    4-subcarrier, 16-step grid they do not apply.
    """
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "GRAD_MEAN_GATE", float("inf"))
    monkeypatch.setattr(run, "GRAD_P90_GATE", float("inf"))
    for name, w in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(
            w, users=(3, 4) if w.campaign else (4,), mux=(1, 2) if w.campaign else (2,),
            delta_w=0.625, subcarriers=4, seeds=2, min_rounds=2, tail_pct=50))


def run_main(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0.01",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    code, report, result = run_main(capsys, workload, trace)
    assert code == 0, report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for name in ("failed_frac", "eps_loss_max", "opt_ms_p50", "eps_ms_tail"):
        assert name in report["metrics"]
    assert report["seeds"] and report["digest"] and report["machine"]["nproc"] >= 1


def test_tracing_splits_the_layers_by_workload(tiny, capsys):
    _, report, _ = run_main(capsys, "fine_grid", trace=1)
    layers = report["layers"]
    assert layers["jspa.project_simplex.calls"]["value"] == 0
    assert layers["jspa.BudgetObjective.value.calls"]["value"] == 0
    _, report, _ = run_main(capsys, "many_users", trace=1)
    assert report["layers"]["jspa.project_simplex.calls"]["value"] > 0
    # the traced set-up is one pass: one table per subcarrier of each instance
    assert report["layers"]["single_carrier.iscus_precompute.calls"]["value"] == 2 * 4
    assert len(report["setup"]["repeats_s"]) == 2


def test_the_clock_scales_each_segment_by_the_reference_beside_it():
    class Reference:
        times = iter([0.02, 0.04, 0.01])  # nominal 0.01: factors 1/3, then 0.4

        def sample(self):
            return next(self.times)

    clock = run.Clock(Reference())
    clock.start()
    first = clock.mark()
    second = clock.mark()
    assert clock.factors == pytest.approx([run.REF_NOMINAL_S / 0.03,
                                           run.REF_NOMINAL_S / 0.025])
    assert clock.total == pytest.approx(first + second)
    assert 0 < clock.total < clock.wall  # both factors are below 1


def over_budget(solve):
    """A solver whose budgets exceed p_max on every subcarrier."""
    def stub(instance, tables, *args):
        solution = solve(instance, tables, *args)
        return dataclasses.replace(solution, budgets=solution.budgets + instance.p_max)
    return stub


def wrong_wsr(solve):
    def stub(instance, tables, *args):
        solution = solve(instance, tables, *args)
        return dataclasses.replace(solution, wsr=solution.wsr * 1.01)
    return stub


@pytest.mark.parametrize("workload,owner,name,stub", [
    ("fine_grid", run.jspa, "eps_jspa", over_budget),
    ("many_users", run.jspa, "opt_jspa", wrong_wsr),
    ("desk_campaign", run.cli, "grad_jspa", over_budget),
    ("desk_campaign", run.cli, "eps_jspa", wrong_wsr),
])
def test_a_wrong_solution_fails_the_run(tiny, capsys, monkeypatch, workload, owner, name,
                                        stub):
    monkeypatch.setattr(owner, name, stub(getattr(owner, name)))
    code, report, result = run_main(capsys, workload)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert report["metrics"]["failed_frac"]["value"] > 0
    assert report["failures"]


def test_no_result_without_the_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "fine_grid", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
