"""capmatch benchmark: timed, checked CLI solve/verify runs on seeded markets.

    python3 bench/run.py --workload market-large --seed 77 --seconds 50 --trace 0
    python3 bench/run.py        # every workload, default seeds, --trace 0 and 1

Run from the repository root or anywhere else; the package is imported from
``src/`` next to this directory.  One process runs one workload, with no
threads and no child processes (without ``--workload``, each workload runs
in a child process of its own):

1. set-up, three times: import ``capmatch`` afresh, generate the workload's
   markets from ``--seed`` with ``capmatch.generators.random_instance`` and
   write them as ``.cap`` files; ``setup_s`` is the median;
2. one untimed warm-up repetition, whose outputs are checked with
   ``capmatch verify`` and, on seeds listed in ``digests.json``, against the
   sha256 digests recorded there; they become the reference for the run;
3. timed repetitions until ``--seconds`` have passed.  A repetition runs,
   per market, every ``capmatch solve --alg ...`` of the workload and then
   ``capmatch verify`` of the ``minmax`` solution, in-process through
   ``capmatch.cli.main`` (file in, file out), with ``gc.collect()`` before
   each call.  An operation fails on a nonzero exit, an escaped exception,
   ``verify`` reporting invalid, or an output that differs byte for byte
   from the reference.

With ``--trace 0`` the end-to-end metrics are printed: each is the median
over repetitions of the per-market wall time.  With ``--trace 1`` the
repetitions alternate between untraced and traced (spans around each
layer's public functions, see ``spans.py``) and the per-layer metrics are
printed: medians over the traced repetitions, plus the overhead ratio of
traced to untraced repetition time.  The last line of standard output is
the JSON result; the lines before it give quartiles and sample counts.

``--record-digests`` regenerates ``digests.json``; do it only when the
expected output is meant to change.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_ROUNDS = 3
# Seeds whose output digests are recorded, besides each workload's default.
RECORDED_SEEDS = tuple(range(20))
# Market i of a run uses seed + i * MARKET_STRIDE, so market 0 is the seed.
MARKET_STRIDE = 7919
# Files under src/capmatch/ whose line counts are reported (0 once deleted).
MODULE_FILES = ("__init__", "cli", "errors", "generators", "minmax", "minsum",
                "model", "oracle", "stability", "twocost")


@dataclass(frozen=True)
class Workload:
    """``markets`` markets of ``random_instance(**params)``, each solved with
    every algorithm in ``algorithms`` and its minmax solution verified."""

    params: dict
    algorithms: tuple[str, ...]
    default_seed: int
    markets: int


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "market-large": Workload(
        dict(n_agents=15_000, n_programs=3_000, max_list=6, quota_range=(0, 1, 2),
             cost_set=(0, 1, 2, 5)),
        ("minmax", "lp"), 77, 1),
    "twocost-zero": Workload(
        dict(n_agents=800, n_programs=160, max_list=4, quota_range=(0,),
             cost_set=(1, 3)),
        ("twocost", "lp", "minmax"), 5, 6),
}

END_TO_END_UNITS = {"solve_minmax_s": "s", "solve_lp_s": "s", "verify_s": "s",
                    "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One CLI call of a repetition; ``out`` is the solution file it writes."""

    metric: str
    market: int
    argv: list[str]
    out: Path | None


class Program:
    """The capmatch modules of one fresh import."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m.split(".")[0] == "capmatch"]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("capmatch.cli")
        self.generators = importlib.import_module("capmatch.generators")
        self.model = importlib.import_module("capmatch.model")
        self.minmax = importlib.import_module("capmatch.minmax")
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name.split(".")[0] == "capmatch"}


class Run:
    """Operations, their checks and their timings for one workload run."""

    def __init__(self, name: str, workload: Workload, seed: int, workdir: Path,
                 tamper=None) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tamper = tamper  # self-test hook: corrupts a written solution
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str | None] = {}
        self.recorded = _load_digests().get(name, {}).get(str(seed))
        self.market_facts: list[dict] = []
        self.setup_samples: list[float] = []
        self.program: Program | None = None

    def cap(self, market: int) -> Path:
        return self.workdir / f"m{market}.cap"

    def solution(self, market: int, alg: str) -> Path:
        return self.workdir / f"m{market}.{alg}.json"

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        for _ in range(SETUP_ROUNDS):
            gc.collect()
            start = time.perf_counter()
            program = Program()
            markets = []
            for m in range(self.workload.markets):
                markets.append(program.generators.random_instance(
                    **self.workload.params, seed=self.seed + m * MARKET_STRIDE))
                self.cap(m).write_text(program.model.serialize_instance(markets[-1]))
            self.setup_samples.append(time.perf_counter() - start)
        self.program = program
        self.market_facts = [_market_facts(program, inst) for inst in markets]

    # -- operations -----------------------------------------------------
    def ops(self, trace_flag: bool = False) -> list[Op]:
        out = []
        for m in range(self.workload.markets):
            for alg in self.workload.algorithms:
                argv = ["solve", "--alg", alg, "--in", str(self.cap(m)),
                        "--out", str(self.solution(m, alg))]
                if trace_flag and alg in ("lp", "twocost"):
                    argv.append("--trace")
                out.append(Op(f"solve_{alg}_s", m, argv, self.solution(m, alg)))
            out.append(Op("verify_s", m, ["verify", "--in", str(self.cap(m)),
                                          "--solution",
                                          str(self.solution(m, "minmax"))], None))
        return out

    def call(self, op: Op, tracer: spans.Tracer | None = None
             ) -> tuple[float, int | None, str, str]:
        """Run one CLI call; returns (seconds, exit code, stdout, stderr).
        The exit code is None when an exception escaped ``main``.  With a
        tracer, the call is the root span ``op.<metric>``."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            root = tracer.open(f"op.{op.metric}") if tracer else None
            start = time.perf_counter()
            try:
                code = self.program.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an escaped exception is a failed operation
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
            if tracer:
                tracer.close(root)
        return seconds, code, out.getvalue(), err.getvalue()

    def check(self, op: Op, code: int | None, stdout: str, stderr: str) -> bool:
        """Count one attempted operation; True when it succeeded."""
        self.attempted += 1
        ok = code == 0
        if ok and op.out is None:
            ok = _verify_says_valid(stdout)
        elif ok:
            if self.tamper is not None:
                self.tamper(op.out)
            digest = hashlib.sha256(op.out.read_bytes()).hexdigest()
            ok = digest == self.reference.get(op.out.name)
        if not ok:
            self.failed += 1
            print(f"FAILED {' '.join(op.argv[:3])} market {op.market} "
                  f"(exit {code}): {stderr.strip()[-500:]}", file=sys.stderr)
        return ok

    def warm_up(self, trace_flag: bool) -> Counter:
        """Untimed repetition that fixes the reference output of every solve:
        the recorded digest where there is one, else the warm-up output once
        ``capmatch verify`` accepts it as valid, A-perfect and stable.
        Returns counts of the events ``--trace`` printed."""
        events: Counter = Counter()
        for op in self.ops(trace_flag):
            _, code, stdout, stderr = self.call(op)
            if op.out is not None and code == 0:
                self.reference[op.out.name] = self._accepted_digest(op)
            events.update(_trace_events(stderr))
            self.check(op, code, stdout, stderr)
        return events

    def _accepted_digest(self, op: Op) -> str | None:
        data = op.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.recorded is not None:
            return digest if self.recorded.get(op.out.name) == digest else None
        try:
            doc = json.loads(data)
        except ValueError:
            return None
        if not (isinstance(doc, dict) and doc.get("a_perfect") and doc.get("stable")):
            return None
        verify = Op("verify_s", op.market, ["verify", "--in", str(self.cap(op.market)),
                                            "--solution", str(op.out)], None)
        _, code, stdout, _ = self.call(verify)
        return digest if code == 0 and _verify_says_valid(stdout) else None

    def repetition(self, tracer: spans.Tracer | None = None) -> dict[str, float]:
        """Time one repetition; returns per-market mean seconds per metric
        plus ``pipeline_s``, the per-market sum over all its operations."""
        sums: Counter = Counter()
        patches = spans.install(tracer, self.program.modules) if tracer else []
        try:
            for op in self.ops():
                seconds, code, stdout, stderr = self.call(op, tracer)
                self.check(op, code, stdout, stderr)
                sums[op.metric] += seconds
                sums["pipeline_s"] += seconds
        finally:
            spans.uninstall(patches)
        return {k: v / self.workload.markets for k, v in sums.items()}

    def output_bytes(self) -> int:
        return sum(self.solution(m, alg).stat().st_size
                   for m in range(self.workload.markets)
                   for alg in self.workload.algorithms)


def _market_facts(program: Program, inst) -> dict:
    size = program.model.metrics(inst)
    grid = program.minmax.candidate_costs(inst)
    return {"edges": size.edges, "max_program_list": size.max_program_list,
            "grid_size": len(getattr(grid, "values", grid))}


def _verify_says_valid(stdout: str) -> bool:
    try:
        return json.loads(stdout).get("valid") is True
    except (json.JSONDecodeError, AttributeError):
        return False


def _trace_events(stderr: str) -> Counter:
    """Count ``--trace`` lines: twocost events by name, lp steps by phase."""
    counts: Counter = Counter()
    for line in stderr.splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            counts[event.get("event", f"lp_{event.get('phase')}")] += 1
    return counts


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _line_counts() -> dict[str, int]:
    counts = {}
    for name in MODULE_FILES:
        path = SRC / "capmatch" / f"{name}.py"
        label = "init" if name == "__init__" else name
        counts[f"{label}.lines"] = len(path.read_text().splitlines()) \
            if path.exists() else 0
    counts["src.lines"] = sum(len(p.read_text().splitlines())
                              for p in SRC.rglob("*.py"))
    return counts


def self_check(tracer: spans.Tracer) -> None:
    """Every span must fire on a tiny zero-quota two-cost market that every
    algorithm accepts; a layer function that is renamed or bypassed would
    otherwise read as a zero."""
    tiny = Workload(dict(n_agents=12, n_programs=4, max_list=3, quota_range=(0,),
                         cost_set=(1, 3)), ("minmax", "lp", "twocost"), 1, 1)
    with tempfile.TemporaryDirectory(dir=_work_root()) as tmp:
        run = Run("self-check", tiny, 1, Path(tmp))
        run.setup()
        run.warm_up(False)
        run.repetition(tracer)
    fired = {name for name, *_ in tracer.take()}
    missing = [name for name in spans.SPAN_NAMES if name not in fired]
    if missing or run.failed:
        raise SystemExit(f"self-check failed: spans never fired {missing}, "
                         f"{run.failed} failed operations")


def _work_root() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            tamper=None) -> tuple[dict, list[str], Run]:
    """Run one workload; returns (metrics, report lines, run)."""
    workdir = Path(tempfile.mkdtemp(dir=_work_root()))
    try:
        run = Run(name, workload, seed, workdir, tamper)
        tracer = spans.Tracer() if trace else None
        if tracer:
            self_check(tracer)
        run.setup()
        events = run.warm_up(trace)
        plain: list[dict] = []
        traced: list[tuple[dict, dict]] = []
        gaps: list[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not plain or (tracer and not traced):
            if tracer and len(traced) < len(plain):
                times = run.repetition(tracer)
                recorded = tracer.take()
                gaps.extend(spans.root_gaps(recorded))
                traced.append((times, _per_layer(recorded, workload.markets)))
            else:
                plain.append(run.repetition())
        if tracer:
            return (*_trace_metrics(run, plain, traced, gaps, events), run)
        return (*_end_to_end_metrics(run, plain), run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _per_layer(recorded: list[list], markets: int) -> dict[str, float]:
    out = {}
    for name, totals in spans.layer_totals(recorded).items():
        if name.startswith("op."):
            continue
        for field in ("s", "self_s"):
            out[f"{name}.{field}"] = totals[field] / markets
        out[f"{name}.calls"] = totals["calls"] / markets
    return out


def _summary(samples: dict[str, list[float]], units: dict[str, str]
             ) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    for name, values in samples.items():
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        lines.append(f"{name:42s} median {statistics.median(values):12.6g}  "
                     f"q1 {q1:10.6g}  q3 {q3:10.6g}  n {len(values):3d}  "
                     f"{units[name]}")
    return metrics, lines


def _end_to_end_metrics(run: Run, plain: list[dict]) -> tuple[dict, list[str]]:
    samples = {name: [rep[name] for rep in plain if name in rep]
               for name in ("solve_minmax_s", "solve_lp_s", "verify_s", "pipeline_s")}
    samples["setup_s"] = run.setup_samples
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return _summary(samples, END_TO_END_UNITS)


def _trace_metrics(run: Run, plain: list[dict], traced: list[tuple[dict, dict]],
                   gaps: list[float], events: Counter) -> tuple[dict, list[str]]:
    markets = run.workload.markets
    units: dict[str, str] = {}
    samples: dict[str, list[float]] = {}
    for name in spans.SPAN_NAMES:
        for field, unit in (("s", "s"), ("self_s", "s"), ("calls", "count")):
            key = f"{name}.{field}"
            units[key] = unit
            samples[key] = [layers.get(key, 0.0) for _, layers in traced]
    counts = {
        "model.edges": _mean(f["edges"] for f in run.market_facts),
        "model.max_program_list": _mean(f["max_program_list"] for f in run.market_facts),
        "minmax.grid_size": _mean(f["grid_size"] for f in run.market_facts),
        "minsum.promote_steps": events["lp_promote"] / markets,
        "minsum.repair_steps": events["lp_repair"] / markets,
        "twocost.y_raises": events["y_update"] / markets,
        "twocost.z_raises": events["z_update"] / markets,
        "twocost.free_promotes": events["free_promote"] / markets,
        "cli.output_bytes": run.output_bytes() / markets,
        **_line_counts(),
    }
    for name, value in counts.items():
        units[name] = ("lines" if name.endswith(".lines")
                      else "bytes" if name.endswith("_bytes") else "count")
        samples[name] = [value]
    plain_total = [rep["pipeline_s"] for rep in plain]
    traced_total = [times["pipeline_s"] for times, _ in traced]
    samples["trace.overhead_ratio"] = [statistics.median(traced_total)
                                       / statistics.median(plain_total)]
    units["trace.overhead_ratio"] = "ratio"
    samples["trace.max_root_gap_s"] = [max(gaps, default=0.0)]
    units["trace.max_root_gap_s"] = "s"
    samples["fail_ratio"] = [run.failed / run.attempted]
    units["fail_ratio"] = "ratio"
    return _summary(samples, units)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def record_digests() -> None:
    """Write sha256 digests of every solution on the recorded seeds."""
    out: dict = {}
    for name, workload in WORKLOADS.items():
        out[name] = {}
        for seed in sorted({workload.default_seed, *RECORDED_SEEDS}):
            workdir = Path(tempfile.mkdtemp(dir=_work_root()))
            try:
                run = Run(name, workload, seed, workdir)
                run.recorded = None
                run.setup()
                run.warm_up(False)
                if run.failed or None in run.reference.values():
                    raise SystemExit(f"{name} seed {seed}: outputs did not verify")
                out[name][str(seed)] = dict(sorted(run.reference.items()))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def run_all(seconds: float) -> int:
    """Every workload on its default seed, untraced then traced, one child
    process per run, one after the other."""
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seconds", str(seconds), "--trace", str(trace)], check=False)
            if proc.returncode != 0:
                return proc.returncode
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        return run_all(args.seconds)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    metrics, lines, run = measure(args.workload, workload, seed, args.seconds,
                                  bool(args.trace))
    print(f"# workload {args.workload} seed {seed} markets {workload.markets} "
          f"trace {args.trace} digests {'recorded' if run.recorded else 'verify-only'}")
    print(f"# machine nproc {os.cpu_count()} python {platform.python_version()} "
          f"{platform.machine()}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
