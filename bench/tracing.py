"""Spans around samcmc's public functions, recorded from outside the package.

`traced(tracer)` swaps each target below for a wrapper, in every loaded
samcmc module that holds it, and puts the originals back on exit. Nothing
under src/ is edited. A wrapper records its call on a stack, so a span's
self time is its duration less the time of the spans it caused.

Layer boundaries keep one span per call (name, start, end, parent) in
memory; `write_spans` writes them out when the run ends. The three
per-step functions (`gain_at`, `threshold_at`, `KahanSum.add`) run up to
tens of thousands of times per round, so they keep only call counts and
self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from pathlib import Path

import samcmc
import samcmc.cli

# (module, attribute, span name); a span name ending in ".main" is
# suffixed with the subcommand
FUNCTIONS = [
    ("samc", "run_samc_batch", "samc.run_samc_batch"),
    ("samle", "run_samle_batch", "samle.run_samle_batch"),
    ("sa", "validate_schedule", "sa.validate_schedule"),
    ("oracle", "noise_covariance", "oracle.noise_covariance"),
    ("oracle", "stationary_dist", "oracle.stationary_dist"),
    ("oracle", "poisson_solve", "oracle.poisson_solve"),
    ("oracle", "load_chain_file", "oracle.load_chain_file"),
    ("harness", "load_config", "harness.load_config"),
    ("harness", "run_single", "harness.run_single"),
    ("harness", "write_outputs", "harness.write_outputs"),
    ("harness", "run_replications", "harness.run_replications"),
    ("cli", "main", "cli.main"),
]
HOT_FUNCTIONS = [
    ("sa", "gain_at", "sa.gain_at"),
    ("sa", "threshold_at", "sa.threshold_at"),
]
METHODS = [
    ("sa", "KahanSum", "add", "sa.KahanSum.add", True),
    ("sa", "KahanSum", "add_rows", "sa.KahanSum.add_rows", False),
]


class Tracer:
    """Call stack, per-name totals and the list of finished spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []    # [name, start_ns, child_ns, span id]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter_ns(), 0, self._next_id])

    def exit(self, keep_span: bool = True, **work: float) -> None:
        end = time.perf_counter_ns()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.setdefault(name, {"calls": 0, "self_ns": 0})
        stat["calls"] += 1
        stat["self_ns"] += duration - child
        for key, value in work.items():
            stat[key] = stat.get(key, 0) + value
        if keep_span:
            self.spans.append({
                "id": span_id, "name": name, "start_ns": start,
                "end_ns": end, "self_ns": duration - child,
                "parent": self._stack[-1][3] if self._stack else None})

    def take_stats(self) -> dict[str, dict[str, float]]:
        """Totals since the last call, which start again from zero."""
        stats, self.stats = self.stats, {}
        return stats

    def span(self, name: str):
        return _SpanContext(self, name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, *exc):
        self.tracer.exit()


def _work_of(span: str, bound: inspect.BoundArguments, result) -> dict:
    """Units of work a layer call did, read from its arguments and result."""
    args = bound.arguments
    if span == "samc.run_samc_batch":
        return {"chain_steps": len(args["seeds"]) * args["k_max"],
                "truncation_events": sum(len(t.sigma_events) for t in result)}
    if span == "samle.run_samle_batch":
        return {"iterations": args["k_max"],
                "chain_iters": len(args["seeds"]) * args["k_max"]}
    if span == "harness.write_outputs":
        return {"bytes": sum(Path(p).stat().st_size for p in result)}
    if span == "sa.KahanSum.add_rows":
        return {"rows": len(args["rows"])}
    return {}


def _wrap(tracer: Tracer, fn, span: str):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        name = span
        if span == "cli.main":
            argv = bound.arguments.get("argv") or sys.argv[1:]
            name = f"cli.main.{argv[0]}"
        tracer.enter(name)
        work = {}
        try:
            result = fn(*args, **kwargs)
            work = _work_of(span, bound, result)
        finally:
            tracer.exit(**work)
        return result

    return wrapper


def _wrap_hot(tracer: Tracer, fn, span: str):
    """A wrapper for the per-step functions, kept as cheap as it can be.

    They run once per chain-step, tens of thousands of times a round, so
    binding their arguments and keeping a span each, as `_wrap` does,
    would add more time than the calls themselves take, and that time
    would land in the self time of the engine around them.
    """
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(span)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(False)

    return wrapper


def _samcmc_modules():
    return [mod for name, mod in sys.modules.items()
            if name == "samcmc" or name.startswith("samcmc.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every target through `tracer` while the block runs."""
    swaps = []     # (namespace, attribute, original)
    modules = _samcmc_modules()
    for module, attr, span in FUNCTIONS + HOT_FUNCTIONS:
        original = getattr(getattr(samcmc, module), attr)
        wrap = _wrap_hot if (module, attr, span) in HOT_FUNCTIONS else _wrap
        wrapper = wrap(tracer, original, span)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    swaps.append((mod, name, original))
                    setattr(mod, name, wrapper)
    for module, cls_name, attr, span, hot in METHODS:
        cls = getattr(getattr(samcmc, module), cls_name)
        original = cls.__dict__[attr]
        wrapper = (_wrap_hot if hot else _wrap)(tracer, original, span)
        swaps.append((cls, attr, original))
        setattr(cls, attr, wrapper)
    try:
        yield tracer
    finally:
        for namespace, name, original in reversed(swaps):
            setattr(namespace, name, original)


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
