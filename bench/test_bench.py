"""Fast self-test of the benchmark on tiny markets.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
UNRECORDED_SEED = 1000
TINY_PARAMS = {
    "market-large": dict(n_agents=300, n_programs=60),
    "twocost-zero": dict(n_agents=60, n_programs=12),
}


@pytest.fixture
def tiny_workloads(monkeypatch):
    tiny = {name: dataclasses.replace(w, params={**w.params, **TINY_PARAMS[name]})
            for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny)
    return tiny


def _result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(UNRECORDED_SEED),
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_workloads_match_benchmark_json_and_digests():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    digests = json.loads(run.DIGESTS.read_text())
    for name, workload in run.WORKLOADS.items():
        recorded = digests[name][str(workload.default_seed)]
        assert len(recorded) == workload.markets * len(workload.algorithms)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(tiny_workloads, trace, section):
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name in tiny_workloads:
        result = _result(name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_every_binding_site_is_wrapped_and_restored():
    program = run.Program()
    originals = {f"{layer}.{fn}": getattr(program.modules[f"capmatch.{layer}"], fn)
                 for layer, fns in spans.LAYER_FUNCTIONS.items() for fn in fns}
    sites = {name: [(m, attr) for m in program.modules.values()
                    for attr, value in vars(m).items() if value is fn]
             for name, fn in originals.items()}
    assert len(sites["stability.gale_shapley"]) >= 3  # stability, minmax, minsum
    assert len(sites["stability.build_solution"]) >= 4
    patches = spans.install(spans.Tracer(), program.modules)
    for name, places in sites.items():
        for module, attr in places:
            assert getattr(module, attr) is not originals[name], (name, module)
    spans.uninstall(patches)
    for name, places in sites.items():
        for module, attr in places:
            assert getattr(module, attr) is originals[name]


def test_spans_fire_and_add_up():
    tracer = spans.Tracer()
    run.self_check(tracer)  # raises SystemExit when a span never fires


def test_root_gap_is_zero_for_nested_spans():
    tracer = spans.Tracer()
    outer = tracer.open("op.x")
    inner = tracer.open("a")
    tracer.close(inner)
    tracer.close(tracer.open("b"))
    tracer.close(outer)
    recorded = tracer.take()
    assert spans.root_gaps(recorded) == [pytest.approx(0.0, abs=1e-12)]
    totals = spans.layer_totals(recorded)
    assert totals["op.x"]["self_s"] == pytest.approx(
        totals["op.x"]["s"] - totals["a"]["s"] - totals["b"]["s"])


def _raise_total_cost(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["total_cost"] += 1
    path.write_text(json.dumps(doc, indent=2) + "\n")


def test_tampered_solution_counts_as_failure(tiny_workloads):
    name = "twocost-zero"
    metrics, _, result = run.measure(name, tiny_workloads[name], UNRECORDED_SEED,
                                     0, True, tamper=_raise_total_cost)
    assert result.failed > 0
    assert metrics["fail_ratio"]["value"] > 0


def test_recorded_digest_mismatch_counts_as_failure(tiny_workloads, monkeypatch):
    name = "market-large"
    monkeypatch.setattr(run, "_load_digests", lambda: {
        name: {str(UNRECORDED_SEED): {"m0.minmax.json": "0" * 64,
                                      "m0.lp.json": "0" * 64}}})
    _, _, result = run.measure(name, tiny_workloads[name], UNRECORDED_SEED, 0, False)
    assert result.failed > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "twocost-zero",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
