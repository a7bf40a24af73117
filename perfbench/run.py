"""Benchmark of the cellmonoid CLI and library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload is one fixed command run as a fresh child process, again and
again for about S seconds, one child at a time. The inputs are fixed; the
seed only orders the plain and the traced child of a traced round. Every
child's report is hashed and compared with the hash recorded below, so a run
also checks that the program's output did not change.

With `--trace 0` each round is a fresh import of `cellmonoid.cli`, a child
of reference.py and a workload child; times are taken relative to the
reference and scaled to the speed of a fixed host (see SCALED), and peak
RSS is a median. With `--trace 1` each round is one plain child and one
child whose public `cellmonoid` functions are wrapped from outside (see
tracer.py); per-layer times are the fastest over the traced children.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
every sample, the errors and the context of the run. `--smoke` runs a tiny
version of every workload once plainly and once traced, in a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = Path(".bench_build") / "perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    kind: str  # child.py mode: "cli" takes CLI arguments, "library" a family and n
    args: Tuple[str, ...]
    sha256: str  # of the report bytes at the recorded commit
    smoke_args: Tuple[str, ...]
    smoke_sha256: str


# Why each workload exists is stated in BENCHMARK.json; README.md lists which
# layer each one isolates and which metrics a change to that layer should move.
WORKLOADS: Dict[str, Workload] = {
    "oracle-q": Workload(
        "cli", ("analyze", "--family", "tpartial", "--n", "3"),
        "49d87c5dcff60b628fc25c8a66cbcb7c776d6e06ad004ca13400221ccb123824",
        ("analyze", "--family", "tfull", "--n", "3"),
        "a6582379c1d64d6ea7e5076f271e32f7eb5360f1c80a6d8389aa24e9e342cbb6"),
    "datum-q": Workload(
        "library", ("tpartial", "4"),
        "5fb71718f0ca57780eb1659437740fec4b4bda8100ccf98edf0c9ad565d7be66",
        ("syminv", "3"),
        "68f233ebf5c243099e3e61cc06ad033b7f7adae96f4e88b6c9846807aac1b7a6"),
    "twist-jones": Workload(
        "cli", ("twist", "--family", "jones", "--n", "5", "--delta", "2"),
        "4629748b52aed00e6ba7c7a99467295762b6e6d248028ab149e3deab8bc65f2a",
        ("twist", "--family", "jones", "--n", "4", "--delta", "2"),
        "89687c461564ffea35bb77832746d94aea71adc85d10110142049764a2f428c9"),
    "modular-fp3": Workload(
        "cli", ("analyze", "--family", "tfull", "--n", "4", "--field", "fp:3"),
        "103a95bba25549b8e11490ba5a67db47c6be10571c25dab19f199eb8f54c0149",
        ("analyze", "--family", "tpartial", "--n", "3", "--field", "fp:3"),
        "5e41287a809800579d0e25fcd9da54427d67541311e7796a13afe19d5fae9600"),
}

# Per-layer metric -> (what to read from a traced child, which span or counter).
# "incl": inclusive time of the outermost calls; "self": that time less the
# time spent in other modules' wrapped functions; "calls": number of calls;
# "counter": a counter kept by the tracer.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "monoid.family_s": ("incl", "monoid.family"),
    "green.compute_green_s": ("incl", "green.compute_green"),
    "green.build_eggbox_s": ("incl", "green.build_eggbox"),
    "green.schutzenberger_s": ("incl", "green.schutzenberger"),
    "groupcell.standard_group_data_s": ("incl", "groupcell.standard_group_data"),
    "cellbasis.build_cell_datum_s": ("incl", "cellbasis.build_cell_datum"),
    "cellbasis.analyze_s": ("self", "cellbasis.analyze"),
    "exactalg.mat_rank_s": ("incl", "exactalg.mat_rank"),
    "exactalg.mat_rank_calls": ("calls", "exactalg.mat_rank"),
    "exactalg.mat_rank_cells": ("counter", "exactalg.mat_rank_cells"),
    "exactalg.mat_inverse_s": ("incl", "exactalg.mat_inverse"),
    "exactalg.mat_inverse_calls": ("calls", "exactalg.mat_inverse"),
    "cellbasis.coordinates_calls": ("counter", "cellbasis.coordinates_calls"),
    "kernel.products": ("counter", "kernel.products"),
    "twist.verify_twisting_s": ("incl", "twist.verify_twisting"),
    "twist.compatibility_class_s": ("incl", "twist.compatibility_class"),
    "verify.trace_form_semisimple_s": ("self", "verify.trace_form_semisimple"),
    "verify.verify_cell_axioms_s": ("self", "verify.verify_cell_axioms"),
    "cli.self_s": ("self", "cli.main"),
    "trace.overhead_s": ("overhead", ""),
}

# On a shared host other tenants slow the CPU itself: a child's CPU time slows
# as much as its wall time. Fast and slow spells, about 1.6x apart, last from a
# few seconds to minutes, so a raw time moves with the host. Every workload
# child therefore runs right after a child of reference.py, a fixed task that
# uses no cellmonoid code, and each sample is divided by that reference's
# time. A metric is REFERENCE_S, the reference's time in a fast spell, times
# the median of these ratios over the run: seconds at that host's speed. A
# change to cellmonoid moves only the numerators. The detail line keeps every
# raw sample.
SCALED = {"wall_s": "ref_wall_s", "cpu_s": "ref_cpu_s", "setup_s": "ref_wall_s"}
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_S = 0.180  # reference.py's wall time in a fast spell of a 2-core Xeon VM
REFERENCE_TOTAL = "20520857"  # what reference.py prints; checks that it did the work


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: List[str], env: Dict[str, str], timeout: float, tag: str) -> Child:
    """Run one child to its end and take its own rusage from os.wait4.

    Peak RSS comes from this child's rusage, not RUSAGE_CHILDREN, which keeps
    the largest value over every child reaped so far.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK_DIR / f"{tag}.out", WORK_DIR / f"{tag}.err"
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before the
            # timer is disarmed; then reap and read the child's rusage.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(proc.returncode, state["killed"], wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def workload_argv(w: Workload, smoke: bool, report: Path, trace: Optional[Path]) -> List[str]:
    args = [*(w.smoke_args if smoke else w.args), "--report", str(report)]
    if w.kind == "cli" and trace is None:
        return [sys.executable, "-m", "cellmonoid.cli", *args]
    head = [sys.executable, str(CHILD)] + (["--trace", str(trace)] if trace else [])
    return head + [w.kind, *args]


def file_sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


IMPORT_PROBE = ("import time; t = time.perf_counter(); import cellmonoid.cli; "
                "print(time.perf_counter() - t, cellmonoid.cli.__file__)")


class BenchRun:
    """One benchmark run: how its children are started, how many ran, which failed."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.env = child_env(root)
        self.deadline = deadline
        self.attempted = 0
        self.errors: List[str] = []  # one per failed child

    @property
    def failed(self) -> int:
        return len(self.errors)

    def timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter()))

    def import_probe(self) -> Tuple[float, str]:
        """A fresh interpreter's import time of cellmonoid.cli, and the path imported."""
        child = spawn([sys.executable, "-c", IMPORT_PROBE], self.env, self.timeout(), "setup")
        fields = child.stdout.strip().split(" ", 1)
        if child.code != 0 or len(fields) != 2:
            raise BenchError(f"cannot import cellmonoid.cli from {self.root / 'src'}: "
                             f"{child.stderr.strip()[-500:]}")
        return float(fields[0]), fields[1]

    def reference(self) -> Child:
        """One child of reference.py, checked by the total it prints."""
        child = spawn([sys.executable, str(REFERENCE)], self.env, self.timeout(), "reference")
        if child.code != 0 or child.stdout.strip() != REFERENCE_TOTAL:
            raise BenchError(f"reference.py printed {child.stdout.strip()[-100:]!r}, not "
                             f"{REFERENCE_TOTAL}: {child.stderr.strip()[-500:]}")
        return child

    def run_workload(self, name: str, w: Workload, smoke: bool,
                     traced: bool) -> Tuple[Optional[Child], Optional[Dict]]:
        """One workload child; returns it and, when traced, its trace totals."""
        tag = f"{name}-{'traced' if traced else 'plain'}"
        report = WORK_DIR / f"{tag}.report.json"
        trace_path = WORK_DIR / f"{tag}.trace.json" if traced else None
        for p in (report, trace_path):
            if p is not None and p.exists():
                p.unlink()
        child = spawn(workload_argv(w, smoke, report, trace_path), self.env, self.timeout(), tag)
        self.attempted += 1
        expected = w.smoke_sha256 if smoke else w.sha256
        digest = file_sha256(report)
        problem = None
        if child.timed_out:
            problem = "timed out"
        elif child.code != 0:
            problem = f"exit code {child.code}: {child.stderr.strip()[-500:]}"
        elif digest != expected:
            problem = f"report sha256 {digest} differs from the recorded {expected}"
        if problem is not None:
            self.errors.append(f"{tag}: {problem}")
            return None, None
        trace = None
        if traced:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return child, trace


def layer_value(kind: str, key: str, trace: Dict) -> Tuple[Optional[float], Optional[str]]:
    spans, counters = trace["spans"], trace["counters"]
    if kind == "counter":
        if key in counters:
            return counters[key], None
        return None, trace["missing"].get(key, f"tracer kept no counter {key}")
    if key not in spans:
        module, func = key.split(".", 1)
        return None, f"cellmonoid.{module} has no public function {func}"
    field = {"incl": "incl_s", "self": "self_s", "calls": "calls"}[kind]
    return spans[key][field], None


def layer_metrics(units: Dict[str, str], traces: List[Dict],
                  plain_walls: List[float], traced_walls: List[float]) -> Dict[str, Dict]:
    """Per-layer metrics over the traced children of one run."""
    metrics: Dict[str, Dict] = {}
    for name, unit in units.items():
        kind, key = LAYER_METRICS.get(name, ("unknown", name))
        entry: Dict = {"value": None, "unit": unit}
        if kind == "overhead":
            if plain_walls and traced_walls:
                entry["value"] = min(traced_walls) - min(plain_walls)
            else:
                entry["missing"] = "no successful plain and traced child pair"
        elif kind == "unknown":
            entry["missing"] = "perfbench/run.py does not define this metric"
        elif not traces:
            entry["missing"] = "no successful traced child"
        else:
            values, reasons = [], set()
            for trace in traces:
                value, reason = layer_value(kind, key, trace)
                if reason is None:
                    values.append(value)
                else:
                    reasons.add(reason)
            if reasons:
                entry["missing"] = "; ".join(sorted(reasons))
            elif kind in ("incl", "self"):
                entry["value"] = min(values)
            else:
                entry["value"] = statistics.median_low(values)
        metrics[name] = entry
    return metrics


def measure(bench: BenchRun, name: str, seconds: float, seed: int, trace: bool,
            spec: Dict) -> Tuple[Dict[str, Dict], Dict]:
    """Rounds of child processes until `seconds` have passed, then the metrics."""
    w = WORKLOADS[name]
    rng = random.Random(seed)
    samples: Dict[str, List[float]] = {
        k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "traced_wall_s",
                        "ref_wall_s", "ref_cpu_s")}
    traces: List[Dict] = []
    start = time.perf_counter()
    round_s: List[float] = []
    while True:
        t_round = time.perf_counter()
        # Untraced, a round is the import probe, a reference child and the
        # workload child, in that order, so that both samples sit next to the
        # reference they are divided by. Traced, the seed orders the plain and
        # the traced child.
        steps = ["plain", "traced"] if trace else ["setup", "reference", "plain"]
        if trace:
            rng.shuffle(steps)
        for step in steps:
            if step == "setup":
                samples["setup_s"].append(bench.import_probe()[0])
                continue
            if step == "reference":
                ref = bench.reference()
                continue
            child, totals = bench.run_workload(name, w, smoke=False, traced=step == "traced")
            if child is None:
                continue
            if step == "traced":
                samples["traced_wall_s"].append(child.wall_s)
                traces.append(totals)
            else:
                samples["wall_s"].append(child.wall_s)
                samples["cpu_s"].append(child.cpu_s)
                samples["peak_rss_mb"].append(child.peak_rss_mb)
                if not trace:
                    samples["ref_wall_s"].append(ref.wall_s)
                    samples["ref_cpu_s"].append(ref.cpu_s)
        round_s.append(time.perf_counter() - t_round)
        now = time.perf_counter()
        if (bench.errors or now - start + statistics.median(round_s) > seconds
                or now + max(round_s) > bench.deadline):
            break

    detail = {"rounds": len(round_s), "samples": {k: v for k, v in samples.items() if v}}
    if trace:
        return layer_metrics(spec["per_layer"], traces, samples["wall_s"],
                             samples["traced_wall_s"]), detail
    metrics: Dict[str, Dict] = {}
    for metric, unit in spec["end_to_end"].items():
        values = samples.get(metric)
        if metric == "ok_ratio":
            value = (bench.attempted - bench.failed) / bench.attempted
        elif not values:
            value = None
        elif metric in SCALED:
            refs = samples[SCALED[metric]]
            value = REFERENCE_S * statistics.median(x / r for x, r in zip(values, refs))
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, detail


def read_spec(root: Path) -> Dict:
    try:
        doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
        "workloads": [w["name"] for w in doc["workloads"]],
        "run_seconds": doc["run_seconds"],
    }


def context(root: Path, module_file: str) -> Dict:
    """Facts that explain a number without gating it."""
    src_lines = sum(p.read_bytes().count(b"\n") for p in sorted((root / "src").rglob("*.py")))
    return {
        "src_lines": src_lines,
        "commit": git_commit(root),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cellmonoid": module_file,
    }


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit id, or None outside a git checkout.

    Only a checkout whose root holds .git counts, so a copy of the sources
    placed inside some other git repository does not report that one's HEAD.
    """
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def prepare(root: Path) -> Tuple[BenchRun, Dict, str]:
    if not (root / "src" / "cellmonoid" / "cli.py").is_file():
        raise BenchError(f"no cellmonoid sources under {root / 'src'}; run from a checkout root")
    spec = read_spec(root)
    bench = BenchRun(root, time.perf_counter() + RUN_LIMIT_S)
    # The first import compiles the package; users run with warm bytecode.
    _, module_file = bench.import_probe()
    if not Path(module_file).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"cellmonoid imports from {module_file}, not from {root / 'src'}")
    return bench, spec, module_file


def run_benchmark(root: Path, name: str, seed: int, seconds: Optional[float], trace: bool) -> int:
    bench, spec, module_file = prepare(root)
    if name not in WORKLOADS or name not in spec["workloads"]:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if seconds is None:
        seconds = spec["run_seconds"]
    metrics, detail = measure(bench, name, seconds, seed, trace, spec)
    correct = bench.failed == 0
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace), **detail,
                      "errors": bench.errors, "context": context(root, module_file)}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def run_smoke(root: Path) -> int:
    """Each workload's tiny instance once plainly and once traced."""
    bench, spec, module_file = prepare(root)
    for name, w in WORKLOADS.items():
        t0 = time.perf_counter()
        plain, _ = bench.run_workload(name, w, smoke=True, traced=False)
        traced, totals = bench.run_workload(name, w, smoke=True, traced=True)
        ok = plain is not None and traced is not None
        metrics = layer_metrics(spec["per_layer"], [totals] if ok else [],
                                [plain.wall_s] if ok else [], [traced.wall_s] if ok else [])
        print(json.dumps({"workload": name, "correct": ok, "seconds": time.perf_counter() - t0,
                          "metrics": metrics}))
    print(json.dumps({"workload": None, "errors": bench.errors,
                      "context": context(root, module_file)}))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": {}}))
    return 0 if bench.failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.smoke:
            return run_smoke(root)
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        return run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
