#!/usr/bin/env python3
"""Benchmark of the spinfoam-oqs command-line pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload foam_batch --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload of BENCHMARK.json, each in its own
fresh process.  ``relax_long`` (see ``cases.py``) runs only when named.

One process, one client, closed loop: each case of a seeded batch (see
``cases.py``) is driven in-process through ``spinfoam_oqs.cli.main`` and
the next case starts only when the previous one has finished.  There is
no warm-up, so the batch pays the cold caches a new CLI process pays.
The run stops at the block boundary nearest to ``--seconds``.  Each
case's outputs are checked after its timed span (``checks.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics listed in BENCHMARK.json.  With ``--trace 1`` the run
first measures the workload untraced in a child process for half the
time, then traced for the other half, and reports the per-layer metrics
from spans recorded around each layer's public functions (``spans.py``);
the spans are written to ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import cases as casegen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

IMPORTS = ("spinfoam_oqs.cli", "spinfoam_oqs.scenario", "spinfoam_oqs.bathfit")
# Set-up is timed in this many fresh child processes plus this process.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run (missing package, failed child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child_import_seconds() -> float:
    code = ("import importlib, time; t = time.perf_counter(); "
            f"[importlib.import_module(m) for m in {IMPORTS!r}]; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import failed in a fresh process: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_package() -> float:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        for name in IMPORTS:
            importlib.import_module(name)
    except ImportError as exc:
        raise BenchError(f"cannot import the package: {exc}") from exc
    return time.perf_counter() - start


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def argv_for(command: str, config: Path, out: Path) -> list[str]:
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "sample":
        argv += ["--n", str(casegen.SAMPLE_N)]
    return argv


class Batch:
    """Closed-loop runner of one workload's cases, with per-case results."""

    def __init__(self, workload: str, seed: int, recorder=None):
        # checks imports numpy, so only after the package import was timed.
        from checks import check_case

        self.check_case = check_case
        self.cli = importlib.import_module("spinfoam_oqs.cli")
        self.workload, self.seed, self.recorder = workload, seed, recorder
        self.dir = WORK / f"{workload}-s{seed}-{os.getpid()}"
        self.times: list[float] = []
        self.ok: list[bool] = []
        self.kinds: list[str] = []
        self.sizes: list[str] = []
        self.failures: list[str] = []
        self.extras: dict[str, list[float]] = {}
        self.absent: set[str] = set()
        self.blocks = 0

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        # Stop at the block boundary nearest to ``seconds``: a further block
        # starts only if half of its expected length still fits.  A block
        # far slower than expected is cut short so the process ends in time.
        hard_stop = start + 2 * seconds + 10
        for block in casegen.blocks(self.workload, self.seed):
            elapsed = time.perf_counter() - start
            if self.blocks and elapsed + elapsed / self.blocks / 2 > seconds:
                break
            for case in block:
                if time.perf_counter() >= hard_stop:
                    return
                self.run_case(case)
            self.blocks += 1

    def run_case(self, case: casegen.Case) -> None:
        case_dir = self.dir / case.case_id
        out = case_dir / "out"
        case_dir.mkdir(parents=True)
        config = case_dir / "config.json"
        config.write_text(json.dumps(case.config, indent=1) + "\n", encoding="utf-8")
        for name, text in case.files.items():
            (case_dir / name).write_text(text, encoding="utf-8")
        argvs = [argv_for(c, config, out) for c in case.commands]

        sink = io.StringIO()
        codes, error = [], None
        rec = self.recorder
        if rec is not None:
            rec.case, rec.active = case.case_id, True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in argvs:
                    codes.append(self.cli.main(argv))
        except Exception:  # noqa: BLE001 - a crashing case is a failed case
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.active = False

        problems = []
        if error is not None:
            problems.append(error)
        elif any(code != 0 for code in codes):
            problems.append(f"exit codes {codes}: {sink.getvalue().strip()[-300:]}")
        else:
            try:
                problems = self.check_case(case, case_dir, out, sink.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        self.times.append(elapsed)
        self.ok.append(not problems)
        self.kinds.append(case.kind)
        self.sizes.append(f"jmax={case.shape['jmax']} d={case.shape['d']}")
        if problems:
            self.failures.append(f"{case.case_id} ({case.kind}): " + "; ".join(problems))
            return
        self.collect(case, out)
        shutil.rmtree(case_dir)

    def collect(self, case: casegen.Case, out: Path) -> None:
        """Figures the program reports about itself, read from its outputs."""
        extras = self.extras
        extras.setdefault("scenario.output_bytes", []).append(
            sum(p.stat().st_size for p in out.iterdir() if p.is_file()))
        if "evolve" in case.commands:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if "clamped_eigenvalues" in report:
                extras.setdefault("lindblad.clamped_eigenvalues", []).append(
                    report["clamped_eigenvalues"])
            else:
                self.absent.add("lindblad.clamped_eigenvalues")
        if "fit" in case.commands:
            report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
            extras.setdefault("bathfit.fit_bath.evaluations", []).append(report["evaluations"])
            extras.setdefault("bathfit.fit_cost_mean", []).append(report["cost"])

    def close(self) -> None:
        if all(self.ok) and self.dir.exists():
            shutil.rmtree(self.dir)

    def summary(self) -> dict:
        ok_times = sorted(t for t, ok in zip(self.times, self.ok) if ok)
        n = len(ok_times)
        if n == 0:
            raise BenchError("no case passed")
        tail_index = max(n - 11, 0)
        return {
            "cases_per_s": n / sum(self.times),
            "case_p50_ms": 1e3 * statistics.median(ok_times),
            "case_tail_ms": 1e3 * ok_times[tail_index],
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "passed": n,
        }

    def report_lines(self) -> list[str]:
        attempted = len(self.times)
        failed = attempted - sum(self.ok)
        lines = [f"{self.workload} seed {self.seed}: {attempted} cases in {self.blocks} "
                 f"blocks, {sum(self.times):.3f} s in cases"]
        total = sum(self.times)
        for label, keys in (("kind", self.kinds), ("size", self.sizes)):
            count, key_time = Counter(keys), Counter()
            for key, t in zip(keys, self.times):
                key_time[key] += t
            for key in sorted(count):
                lines.append(f"  {label} {key}: {100 * count[key] / attempted:.1f}% of cases, "
                             f"{100 * key_time[key] / total:.1f}% of case time")
        lines.append(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted})")
        costs = self.extras.get("bathfit.fit_cost_mean")
        if costs:
            lines.append(f"  fit_cost_mean {statistics.fmean(costs)!r} over {len(costs)} fits")
        for failure in self.failures[:5]:
            lines.append(f"  FAILED {failure}")
        return lines


def emit(metrics: dict, kind: str, attempted: int, failed: int) -> None:
    """Print the result line for the BENCHMARK.json metrics of one kind."""
    out = {}
    for spec in SPEC[kind]:
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def run_untraced(workload: str, seed: int, seconds: float) -> None:
    samples = [child_import_seconds() for _ in range(SETUP_CHILDREN)]
    samples.append(import_package())
    batch = Batch(workload, seed)
    batch.run(seconds)
    batch.close()
    summary = batch.summary()
    metrics = dict(summary)
    metrics["setup_s"] = statistics.median(samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in batch.report_lines():
        print(line)
    print(f"  case_tail_ms is p{summary['tail_percentile']:.1f} of {summary['passed']} cases")
    print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
    print(f"  openblas threads: {blas_threads()} (nproc {len(os.sched_getaffinity(0))})")
    attempted = len(batch.times)
    emit(metrics, "end_to_end", attempted, attempted - sum(batch.ok))


def run_traced(workload: str, seed: int, seconds: float) -> None:
    from spans import LAYERS, Recorder, summarize

    half = seconds / 2
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(half), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise BenchError(f"untraced reference run failed: {child.stderr.strip()[-300:]}")
    reference = json.loads(child.stdout.strip().splitlines()[-1])

    import_package()
    recorder = Recorder()
    absent = list(recorder.install())
    batch = Batch(workload, seed, recorder)
    try:
        batch.run(half)
    finally:
        recorder.uninstall()
    batch.close()
    summary = batch.summary()
    metrics = summarize(recorder.spans, len(batch.times), sum(batch.times))
    metrics.update({k: statistics.fmean(v) for k, v in batch.extras.items()})
    metrics["trace.overhead_ratio"] = (
        summary["cases_per_s"] / reference["metrics"]["cases_per_s"]["value"])
    absent += sorted(batch.absent)
    # A figure a workload never produces (no fits in foam_batch) reads 0.
    for spec in SPEC["per_layer"]:
        metrics.setdefault(spec["name"], 0.0)
    metrics["trace.absent"] = len(absent)

    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{workload}-s{seed}.jsonl"
    with open(trace_file, "w", encoding="utf-8") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span) + "\n")

    for line in batch.report_lines():
        print(line)
    print(f"  untraced reference: {reference['attempted']} cases, "
          f"{reference['metrics']['cases_per_s']['value']:.4f} cases/s")
    print(f"  absent: {absent or 'none'}")
    print("  self-time share of case time by layer:")
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.share"]):
        print(f"    {layer:12s} {100 * metrics[f'{layer}.share']:6.2f}%")
    print("  self time per case by function (s):")
    functions = [n[:-len(".self_s")] for n in metrics if n.endswith(".self_s")]
    for name in sorted(functions, key=lambda f: -metrics[f + ".self_s"]):
        print(f"    {name:40s} {metrics[name + '.self_s']:.6f}  calls {metrics[name + '.calls']:.1f}")
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    attempted = len(batch.times) + reference["attempted"]
    failed = (len(batch.times) - sum(batch.ok)) + reference["failed"]
    emit(metrics, "per_layer", attempted, failed)


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{workload} failed: {proc.stderr.strip()[-300:]}")
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"  {workload}.{name} = {metric['value']!r} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=casegen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One client on one core.  With two BLAS threads on a 2-core machine the
    # small (at most 256 x 256) products ran 1.45x slower and spread wider.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        if args.workload == "all":
            run_all(args.seed, args.seconds, args.trace)
        elif args.trace:
            run_traced(args.workload, args.seed, args.seconds)
        else:
            run_untraced(args.workload, args.seed, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
