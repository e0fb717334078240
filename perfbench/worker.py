"""One workload process: set up, then time every pass of the inputs.

Started by ``run.py``:

    python3 perfbench/worker.py WORKLOAD MANIFEST RESULT --launch T
        [--setup-only] [--trace SPANS_FILE]

Set-up is the wall time from ``--launch`` (the parent's clock just before it
started this process) to the first timed operation. For wide-ket and
square-json that is the interpreter, the ``schmidt`` import and loading the
manifest of generated inputs with their references. paper-cli runs every
operation in a fresh CLI process, so its set-up is the interpreter and
loading the manifest.

Every latency comes with the ``speed`` samples taken either side of it, and
the set-up time with one taken right after it.

The run measures every pass the manifest holds, each a cycle of the same
shapes with inputs of its own, so every run holds the same mix of input
sizes. With ``--trace`` it measures the first half of the passes untraced
and the second half traced, and writes the spans of the traced half to
SPANS_FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import speed
from checks import Tally, check_cli_output, check_report_doc, check_report_table, check_roundtrip
from inputs import load_inputs
from tracing import Tracer, import_split, instrument, summarize

CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
CLI_TIMEOUT_S = 60


def _no_span(name):
    return nullcontext()


def run_passes(cycles: list[list[dict]], run_op) -> tuple[list[float], list[float]]:
    """Run every input of every pass in order.

    Returns the latencies, and the speed samples taken before the first
    operation and after each one.
    """
    latencies, samples = [], [speed.sample()]
    for cycle in cycles:
        for item in cycle:
            latencies.append(run_op(item))
            samples.append(speed.sample())
    return latencies, samples


# --- paper-cli: one fresh CLI process per operation ---------------------------


class CliRunner:
    """Runs CLI operations, traced through ``cli_child.py`` when a tracer is set."""

    def __init__(self, tally: Tally, work: str):
        self.tally = tally
        self.work = work
        self.tracer: Tracer | None = None
        self.imports: list[dict] = []

    def __call__(self, item: dict) -> float:
        argv = item["argv"]
        spans_path = os.path.join(self.work, "child-spans.json")
        if self.tracer is None:
            command = [sys.executable, "-m", "schmidt.cli", *argv]
        else:
            command = [sys.executable, "-X", "importtime", CLI_CHILD, spans_path, "--", *argv]
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        latency = time.perf_counter() - start
        failed, answered = check_cli_output(item, proc.returncode, proc.stdout)
        self.tally.record(failed, answered)
        if self.tracer is not None:
            self._collect(proc, spans_path)
        return latency

    def _collect(self, proc, spans_path: str) -> None:
        tracer = self.tracer
        with open(spans_path, encoding="utf-8") as handle:
            child = json.load(handle)
        os.remove(spans_path)
        tracer.ops.append(child["spans"])
        tracer.counts.update(child["counts"])
        tracer.eigen_residual_max = max(tracer.eigen_residual_max, child["eigen_residual_max"])
        tracer.counts["cli.output_bytes"] += len(proc.stdout.encode())
        if proc.returncode == 3:
            tracer.counts["cli.refused"] += 1
        elif proc.returncode == 2:
            tracer.counts["cli.rejected"] += 1
        self.imports.append(import_split(proc.stderr))


# --- wide-ket and square-json: operations inside this process -----------------


class InProcessRunner:
    """Calls the package's public functions the way the CLI does."""

    def __init__(self, workload: str, tally: Tally):
        # Imported here, not at the top: paper-cli's set-up does not include it.
        import schmidt.cli as cli
        import schmidt.ketparse as ketparse
        from schmidt.errors import ConvergenceError, SchmidtError

        self.cli, self.ketparse = cli, ketparse
        self.refusal, self.input_error = ConvergenceError, SchmidtError
        self.operation = self.wide_ket if workload == "wide-ket" else self.square_json
        self.tally = tally
        self.tracer: Tracer | None = None

    def wide_ket(self, item: dict, text: str, span) -> dict:
        """ket text -> parse_state -> build_report -> render_report and json.dumps."""
        report = self.cli.build_report(self.ketparse.parse_state(text))
        table = self.cli.render_report(report)
        with span("cli.render_json"):
            rendered = json.dumps(report.to_dict())
        return {"table": table, "json": rendered}

    def square_json(self, item: dict, text: str | None, span) -> dict:
        """schmidt-state-v1 file -> state_from_doc -> build_report -> json.dumps."""
        with span("cli.load"):
            with open(item["path"], encoding="utf-8") as handle:
                state = self.cli.state_from_doc(json.load(handle))
        report = self.cli.build_report(state)
        with span("cli.render_json"):
            rendered = json.dumps(report.to_dict())
        return {"table": None, "json": rendered}

    def __call__(self, item: dict) -> float:
        tracer = self.tracer
        span = _no_span
        if tracer is not None:
            tracer.begin_op()
            span = tracer.span
        outputs, error = None, None
        text = None
        if item["path"].endswith(".txt"):
            # Read outside the timing and dropped after the operation, so the
            # benchmark holds one input text at a time.
            with open(item["path"], encoding="utf-8") as handle:
                text = handle.read()
        start = time.perf_counter()
        try:
            outputs = self.operation(item, text, span)
        except self.refusal:
            error = "refused"
        except self.input_error:
            error = "rejected"
        except Exception:  # a crash fails this operation; the run goes on
            traceback.print_exc()
            error = "crash"
        latency = time.perf_counter() - start
        if error is None:
            failed = self.check(item, outputs)
        else:
            failed = [error]
        self.tally.record(failed, answered=error is None)
        if tracer is not None:
            if error in ("refused", "rejected"):
                tracer.counts[f"cli.{error}"] += 1
            elif outputs is not None:
                size = len(outputs["json"]) + len(outputs["table"] or "")
                tracer.counts["cli.output_bytes"] += size
        return latency

    @staticmethod
    def check(item: dict, outputs: dict) -> list[str]:
        try:
            doc = json.loads(outputs["json"])
        except ValueError:
            return ["parse_output"]
        failed = check_report_doc(doc, item["ref"])
        if outputs["table"] is not None:
            failed += check_roundtrip(doc, item["ref"])
            failed += [f for f in check_report_table(outputs["table"], item["ref"]) if f not in failed]
        return failed


def _label(item: dict) -> str:
    """A name for the input of one operation, for tables of traced runs."""
    if "argv" in item:
        return " ".join(item["argv"][:2] + [item["format"]])
    shape = "x".join(str(n) for n in item["shape"][:2])
    return f"{item['kind']} {shape}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_FILE")
    args = parser.parse_args(argv)

    tally = Tally()
    cycles = load_inputs(args.manifest)
    if args.workload == "paper-cli":
        runner = CliRunner(tally, os.path.dirname(args.manifest))
    else:
        runner = InProcessRunner(args.workload, tally)
    setup_s = time.time() - args.launch
    result = {"setup_s": setup_s, "setup_speed": speed.sample()}
    if not args.setup_only:
        if args.trace:
            half = len(cycles) // 2
            result["untraced"], result["untraced_speed"] = run_passes(cycles[:half], runner)
            runner.tracer = Tracer()
            if isinstance(runner, InProcessRunner):
                instrument(runner.tracer)
            result["traced"], result["traced_speed"] = run_passes(cycles[half:], runner)
            tracer = runner.tracer
            result["layers"], result["layer_self_s"] = summarize(tracer.ops, result["traced"])
            result["counts"] = dict(tracer.counts)
            result["eigen_residual_max"] = tracer.eigen_residual_max
            if isinstance(runner, CliRunner):
                result["child_imports"] = runner.imports
            with open(args.trace, "w", encoding="utf-8") as handle:
                labels = [_label(item) for cycle in cycles[half:] for item in cycle]
                json.dump({"labels": labels, "walls": result["traced"], "ops": tracer.ops}, handle)
        else:
            start = time.perf_counter()
            result["latencies"], result["speed"] = run_passes(cycles, runner)
            result["measured_s"] = time.perf_counter() - start
            who = resource.RUSAGE_CHILDREN if args.workload == "paper-cli" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result["tally"] = tally.as_dict()
        result["cycle_len"] = len(cycles[0])
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
