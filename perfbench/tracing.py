"""Spans around the package's public functions, recorded from benchmark code.

``instrument`` replaces each public function at the module attribute its
caller looks up (``schmidt.cli.schmidt_decompose``, ``schmidt.modes.hermitian_eigen``
and so on), so spans nest the way the calls do:
``cli.report > modes.decompose > linalg.eigen``. Nothing under ``src/`` is
edited. Spans stay in memory, one list per operation, until the run writes
them out.

This module imports only the standard library, so that a traced child can
import it before ``schmidt`` and time that import on its own.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Per-layer metrics that are sums of span self times, from span names.
SELF_TIME_METRICS = {
    "ketparse.parse_s": ("ketparse.parse_state", "ketparse.parse"),
    "ketparse.assemble_s": ("ketparse.assemble",),
    "ketparse.format_s": ("ketparse.format",),
    "modes.from_amplitudes_s": ("modes.from_amplitudes",),
    "modes.decompose_self_s": ("modes.decompose",),
    "modes.reconstruct_s": ("modes.reconstruct",),
    "modes.summary_s": ("modes.summary",),
    "linalg.eigen_s": ("linalg.eigen",),
    "density.busy_s": ("density.pure_density", "density.partial_trace",
                       "density.conditional_state", "density.classical_mixture"),
    "cli.load_s": ("cli.load",),
    "cli.report_self_s": ("cli.report", "cli.comparison"),
    "cli.render_table_s": ("cli.render_table",),
    "cli.render_json_s": ("cli.render_json",),
}
# Counters recorded at the same boundaries, reported per operation.
COUNT_METRICS = (
    "ketparse.chars", "ketparse.amplitudes", "ketparse.errors", "modes.matrix_elems",
    "linalg.eigen_calls", "linalg.eigen_dim_sum", "density.calls",
    "cli.output_bytes", "cli.refused", "cli.rejected",
)


class _JsonProxy:
    """Stands in for ``schmidt.cli.json`` so that the CLI's ``json.dumps`` is traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Nested spans ``[name, start, end, parent]`` grouped by operation."""

    def __init__(self):
        self.ops: list[list[list]] = []
        self.counts = Counter()
        self.eigen_residual_max = 0.0
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self.ops.append([])
        self._stack = []

    @contextmanager
    def span(self, name: str):
        spans = self.ops[-1]
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(spans))
        spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of ketparse, modes, linalg, density and cli."""
    import schmidt.catalog as catalog
    import schmidt.cli as cli
    import schmidt.ketparse as ketparse
    import schmidt.modes as modes
    from schmidt.errors import ParseError

    counts = tracer.counts

    def count(key, amount=1):
        counts[key] += amount

    parse_state = ketparse.parse_state

    def traced_parse_state(*args, **kwargs):
        try:
            return parse_state(*args, **kwargs)
        except ParseError:
            count("ketparse.errors")
            raise

    parse_state_span = tracer.wrap("ketparse.parse_state", traced_parse_state)
    ketparse.parse_state = cli.parse_state = parse_state_span
    ketparse.parse_expression = tracer.wrap(
        "ketparse.parse", ketparse.parse_expression,
        lambda args, result: count("ketparse.chars", len(args[0])),
    )
    ketparse.KetExpression.to_state = tracer.wrap(
        "ketparse.assemble", ketparse.KetExpression.to_state,
        lambda args, result: count("ketparse.amplitudes", result.amplitudes.size),
    )
    cli.format_state = tracer.wrap("ketparse.format", cli.format_state)

    from_amplitudes = modes.BipartitePureState.from_amplitudes.__func__
    modes.BipartitePureState.from_amplitudes = classmethod(
        tracer.wrap("modes.from_amplitudes", from_amplitudes)
    )
    cli.schmidt_decompose = tracer.wrap(
        "modes.decompose", cli.schmidt_decompose,
        lambda args, result: count("modes.matrix_elems", args[0].amplitudes.size),
    )
    for name in ("schmidt_number", "entanglement_entropy", "is_entangled"):
        setattr(cli, name, tracer.wrap("modes.summary", getattr(cli, name)))
    cli.reconstruct = tracer.wrap("modes.reconstruct", cli.reconstruct)

    def after_eigen(args, result):
        count("linalg.eigen_calls")
        count("linalg.eigen_dim_sum", len(result.eigenvalues))
        tracer.eigen_residual_max = max(tracer.eigen_residual_max, float(result.residual))

    modes.hermitian_eigen = tracer.wrap("linalg.eigen", modes.hermitian_eigen, after_eigen)

    for owner, name in ((cli, "pure_density"), (cli, "partial_trace"),
                        (cli, "conditional_state"), (catalog, "classical_mixture")):
        setattr(owner, name, tracer.wrap(
            f"density.{name}", getattr(owner, name),
            lambda args, result: count("density.calls"),
        ))

    cli.build_report = tracer.wrap("cli.report", cli.build_report)
    cli.build_comparison = tracer.wrap("cli.comparison", cli.build_comparison)
    cli.render_report = tracer.wrap("cli.render_table", cli.render_report)
    cli._load_state_file = tracer.wrap("cli.load", cli._load_state_file)
    cli.AnalysisReport.to_dict = tracer.wrap("cli.render_json", cli.AnalysisReport.to_dict)
    cli.json = _JsonProxy(tracer.wrap("cli.render_json", json.dumps))


def summarize(ops: list[list[list]], walls: list[float]) -> tuple[dict, dict]:
    """Per-operation layer metrics and per-operation self time of each span name.

    A span's self time is its duration minus its children's durations;
    ``bench.span_cover_frac`` is the share of operation wall time that
    top-level spans cover.
    """
    self_time = defaultdict(float)
    covered = 0.0
    for spans in ops:
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
        for (name, start, end, _), children in zip(spans, child_time):
            self_time[name] += end - start - children
    count = max(len(ops), 1)
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_time.get(name, 0.0) for name in names) / count
    out["bench.span_cover_frac"] = covered / sum(walls) if walls else 0.0
    return out, {name: t / count for name, t in sorted(self_time.items())}


def import_split(stderr: str) -> dict:
    """Seconds spent importing numpy, and schmidt without numpy, from ``-X importtime``.

    A top-level line follows the nested lines of the modules it imported, so
    numpy counts against schmidt only when its first import nests inside it.
    """
    numpy_us = schmidt_us = 0
    numpy_nested = False
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1])
        name = fields[2].rstrip()
        top_level = not name.startswith("  ")
        if name.strip() == "numpy":
            numpy_us, numpy_nested = cumulative, not top_level
        elif top_level and name.strip().startswith("schmidt"):
            schmidt_us += cumulative - (numpy_us if numpy_nested else 0)
            numpy_nested = False
        elif top_level:
            numpy_nested = False
    return {"numpy_s": numpy_us / 1e6, "schmidt_s": schmidt_us / 1e6}
