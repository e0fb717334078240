"""Benchmark of the schmidt package: three seeded workloads, end to end and by layer.

    python3 perfbench/run.py --workload {paper-cli,wide-ket,square-json,all}
                             --seed N [--trace 0|1] [--seconds S]

Run it from the repository root; it needs ``src/schmidt`` and nothing that
is not already installed. Workloads (closed loop, one client, one process):

- paper-cli: each operation is a fresh ``python -m schmidt.cli`` process
  running one of the paper's examples, ``analyze --expr`` or ``analyze
  --file``, in table and JSON format, plus two inputs that reproduce ROADMAP
  defects, with the outcome a correct program gives. Start-up dominates.
- wide-ket: in-process, long canonical ket text of random k x N states
  (k = 2-4, N = 256-4096) through parse_state, build_report, render_report
  and json.dumps. Parsing and amplitude assembly dominate.
- square-json: in-process, schmidt-state-v1 files of d x (d+1) states
  (d = 16-96), random and double-Gaussian, through state_from_doc,
  build_report and json.dumps. The eigensolver dominates.

A run makes a fixed number of passes over its workload's cycle of shapes,
each pass with fresh seeded inputs; the number fills ``run_seconds`` of
BENCHMARK.json at the seed commit. ``--seconds``, if given, must equal
``run_seconds``: runs of other lengths would not be comparable.

With ``--trace 0`` the last line of output holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, from a run
that measures half its passes untraced and half with spans around every
public function, and the output also holds a table of layer self times per
input shape. Inputs are written under ``perfbench/out`` and removed at the end.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import speed
from inputs import write_inputs
from tracing import COUNT_METRICS, SELF_TIME_METRICS, import_split, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("paper-cli", "wide-ket", "square-json")
# Seconds one pass of each workload's cycle takes at the seed commit on a
# 2-vCPU x86_64 VM running at the reference speed of speed.py. A run makes
# run_seconds / CYCLE_S passes, a number that depends on the run's length
# only, so the tail always falls on the same rank of the same size class.
CYCLE_S = {"paper-cli": 3.1, "wide-ket": 5.7, "square-json": 8.8}
# Fresh workload processes per run; setup_s is the median of their set-up times.
SETUP_RUNS = 11
# Bare interpreter starts per traced run, for import.python_s.
PYTHON_START_RUNS = 5
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the tail latency.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it: the (TAIL_BEYOND + 1)-th slowest operation. A run too short
    to have that many beyond the median reports the median.
    """
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(n / 2), 1)
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def passes_for(workload: str, seconds: int) -> int:
    """Passes per run: at least two, so that a traced run has an untraced half."""
    return max(2, round(seconds / CYCLE_S[workload]))


def launch_worker(workload: str, manifest: str, setup_only: bool,
                  spans_file: str | None = None, importtime: bool = False) -> tuple[dict, str]:
    """Start one workload process and return its result and, with importtime, its stderr.

    The result's ``setup_scaled_s`` is its set-up time at the reference
    speed, from a speed sample taken here before the launch and one the
    worker takes right after its set-up.
    """
    before = speed.sample()
    result_path = os.path.join(os.path.dirname(manifest), f"result-{time.perf_counter_ns()}.json")
    command = [sys.executable, *(["-X", "importtime"] if importtime else []), WORKER,
               workload, manifest, result_path]
    if spans_file is not None:
        command += ["--trace", spans_file]
    if setup_only:
        command.append("--setup-only")
    command += ["--launch", repr(time.time())]
    proc = subprocess.run(command, env=_env(), timeout=WORKER_TIMEOUT_S,
                          stderr=subprocess.PIPE if importtime else None, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_scaled_s"] = speed.scale([result["setup_s"]], [before, result["setup_speed"]])[0]
    return result, proc.stderr or ""


def python_start_s() -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(PYTHON_START_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --- run metadata -----------------------------------------------------------------


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            path = next((line.split()[-1] for line in maps if "openblas" in line), None)
    except OSError:
        path = None
    if path is not None:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                break
    return info


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines() -> int:
    """Line count of src/**/*.py."""
    lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    lines += handle.read().count(b"\n")
    return lines


def run_metadata(load_start: tuple) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "src_lines": _src_lines(),
    }


# --- one workload -----------------------------------------------------------------


def _median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples) if samples else 0.0


def end_to_end(setups: list[float], result: dict) -> tuple[dict, str]:
    latencies = sorted(speed.scale(result["latencies"], result["speed"]))
    size = result["cycle_len"]
    tally = result["tally"]
    q, tail_value, beyond = tail(latencies)
    fail_frac = tally["failed"] / tally["attempted"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "ok_frac": 1.0 - fail_frac,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    note = (f"tail = p{q:.1f} of {len(latencies)} ops ({beyond} beyond), "
            f"speed kernel median {statistics.median(result['speed']) * 1e3:.2f} ms "
            f"(reference {speed.REFERENCE_S * 1e3:g} ms), "
            f"fail_frac {fail_frac:.4f} ({tally['failed']}/{tally['attempted']}), "
            f"{len(latencies) // size} passes of {size} inputs in {result['measured_s']:.1f} s, set-up samples "
            + " ".join(f"{t:.3f}" for t in setups))
    return metrics, note


def per_layer(result: dict, imports: list[dict], python_s: float) -> tuple[dict, str]:
    layers = result["layers"]
    ops = len(result["traced"])
    counts = result["counts"]
    self_times = result["layer_self_s"]
    metrics = {
        "import.python_s": python_s,
        "import.numpy_s": _median_of(imports, "numpy_s"),
        "import.schmidt_s": _median_of(imports, "schmidt_s"),
    }
    metrics.update(layers)
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0) / ops
    metrics["linalg.eigen_residual_max"] = result["eigen_residual_max"]
    untraced = speed.scale(result["untraced"], result["untraced_speed"])
    traced = speed.scale(result["traced"], result["traced_speed"])
    metrics["bench.trace_overhead_frac"] = (
        (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0
    )
    mean_op = sum(result["traced"]) / ops
    rows = [f"  {name:<28} {t * 1e3:10.3f} ms/op {t / mean_op:7.1%}" for name, t in self_times.items()]
    rows.append(f"  {'(outside any span)':<28} {(1 - layers['bench.span_cover_frac']) * mean_op * 1e3:10.3f}"
                f" ms/op {1 - layers['bench.span_cover_frac']:7.1%}")
    return metrics, "layer self time per traced operation:\n" + "\n".join(rows)


def shape_table(spans: dict) -> str:
    """Layer self times per input shape, median over the traced operations, in ms.

    "outside" is the operation wall time no layer span covers.
    """
    rows = defaultdict(list)
    for label, ops, wall in zip(spans["labels"], spans["ops"], spans["walls"]):
        layers, _ = summarize([ops], [wall])
        layers["wall"] = wall
        layers["outside"] = wall * (1.0 - layers["bench.span_cover_frac"])
        rows[label].append(layers)
    columns = ["wall"] + [m for m in SELF_TIME_METRICS
                          if any(op[m] for ops in rows.values() for op in ops)] + ["outside"]
    lines = ["| input | ops | " + " | ".join(columns) + " |", "|---" * (len(columns) + 2) + "|"]
    for label, ops in sorted(rows.items(), key=lambda kv: statistics.median(o["wall"] for o in kv[1])):
        cells = [f"{statistics.median(o[c] for o in ops) * 1e3:.2f}" for c in columns]
        lines.append(f"| {label} | {len(ops)} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, declared: dict) -> dict:
    load_start = os.getloadavg()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        manifest = write_inputs(workload, seed, passes_for(workload, seconds), work)
        setups, imports = [], []

        def setup_only():
            setup, stderr = launch_worker(workload, manifest, True, importtime=trace)
            setups.append(setup["setup_scaled_s"])
            if trace:
                imports.append(import_split(stderr))

        # Set-up samples before and after the measured process, so that one
        # slow spell on the shared machine does not move their median.
        for _ in range(SETUP_RUNS // 2):
            setup_only()
        spans_file = os.path.join(work, "spans.json") if trace else None
        result, _ = launch_worker(workload, manifest, False, spans_file)
        setups.append(result["setup_scaled_s"])
        for _ in range(SETUP_RUNS // 2):
            setup_only()
        if trace:
            with open(spans_file, encoding="utf-8") as handle:
                spans = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(OUT):
            os.rmdir(OUT)

    if trace:
        imports = result.get("child_imports", imports)
        metrics, note = per_layer(result, imports, python_start_s())
        note += "\nlayer self time per input shape (ms):\n" + shape_table(spans)
    else:
        metrics, note = end_to_end(setups, result)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    tally = result["tally"]
    return {
        "workload": workload,
        "note": note,
        "checks": {k: v for k, v in tally["failures"].items() if v},
        "meta": run_metadata(load_start),
        "result": {
            "correct": tally["wrong_answers"] == 0,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
        },
    }


def _row(out: dict) -> str:
    metrics = out["result"]["metrics"]
    cells = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if "ok_frac" in metrics:
        cells.insert(-1, f"fail_frac {1 - metrics['ok_frac']['value']:.6g} 1")
    return f"{out['workload']:<12} " + " | ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the schmidt package.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal run_seconds of BENCHMARK.json, which sets the run's length")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "schmidt", "__init__.py")):
        print(f"error: no schmidt package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds} differs from run_seconds {seconds} of BENCHMARK.json",
              file=sys.stderr)
        return 2

    # Write the bytecode of the package and of the benchmark before any
    # set-up is timed, so that no set-up sample pays for compiling it.
    for folder in (SRC, HERE):
        compileall.compile_dir(folder, quiet=1)
    sys.path.insert(0, SRC)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = [run_workload(w, args.seed, seconds, bool(args.trace), declared) for w in workloads]
    for out in outputs:
        print(f"== {out['workload']}: {out['note']}")
        print(f"failed checks: {json.dumps(out['checks'])}")
        print(f"meta: {json.dumps(out['meta'])}")
    for out in outputs:
        print(_row(out))
    if len(outputs) == 1:
        print(json.dumps(outputs[0]["result"]))
    else:
        print(json.dumps({out["workload"]: out["result"] for out in outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
