"""Span tracing for the traced benchmark run.

The benchmark traces from outside the program: it replaces module-level
names that zigzag3 callers bind (``zigzag3.cli.encode_parts_array``,
``zigzag3.repair.inverse``, ...) with wrappers that record one span per
call, and puts the originals back afterwards.  Nothing under ``src/`` is
touched.

A span records its layer, the benchmark operation and pass it ran in, its
duration and the time covered by its direct child spans, so a layer's self
time is ``duration - child_time``.  A call made inside a span of the same
layer (``gf3.inverse`` calling ``gf3.solve_square``) is marked ``nested``
and is left out of that layer's totals, so time and call counts are not
taken twice.  Spans are kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    layer: str
    op: str
    pass_index: int
    label: str = ""
    duration: float = 0.0
    child_time: float = 0.0
    nested: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans; ``op`` and ``pass_index`` tag every span opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self.pass_index = -1
        self._stack: list[Span] = []

    def call(self, layer: str, fn: Callable, args, kwargs, annotate: Optional[Callable]):
        span = Span(layer, self.op, self.pass_index)
        span.nested = any(s.layer == layer for s in self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.duration = time.perf_counter() - start
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            self.spans.append(span)
        if annotate is not None:
            annotate(span, args, result)
        return result


# -- what each layer records besides its time ------------------------------


def _shard_bytes(span: Span, args, result) -> None:
    span.counts["bytes"] = os.path.getsize(args[0])


def _sent_per_stripe(span: Span, args, report) -> None:
    span.counts["sent_per_stripe"] = report.total_sent / report.stripes


def _download_nnz(span: Span, args, plan) -> None:
    span.counts["nnz"] = sum(int(np.count_nonzero(m.array)) for m in plan.downloads.values())


def _sweep_checks(span: Span, args, report) -> None:
    ks = tuple(args[0])
    span.label = f"k{ks[0]}" if len(ks) == 1 else f"k{ks[0]}-{ks[-1]}"
    span.counts["checks_run"] = len(report.checks)
    span.counts["checks_failed"] = len(report.failures)


# (layer, defining module, attribute, annotate).  A dotted attribute names
# a method on a class of that module.
TARGETS = (
    ("cli.main", "zigzag3.cli", "main", None),
    ("cluster.ingest", "zigzag3.cluster", "ingest", None),
    ("cluster.write_shard_file", "zigzag3.cluster", "write_shard_file", _shard_bytes),
    ("cluster.shard_from_bytes", "zigzag3.cluster", "shard_from_bytes", None),
    ("cluster.extract", "zigzag3.cluster", "extract", None),
    ("cluster.repair_node", "zigzag3.cluster", "ClusterState.repair_node", _sent_per_stripe),
    ("code.build_coding_matrices", "zigzag3.code", "build_coding_matrices", None),
    ("code.encode_parts_array", "zigzag3.code", "encode_parts_array", None),
    ("code.decode_shards_array", "zigzag3.code", "decode_shards_array", None),
    ("repair.plan_repair", "zigzag3.repair", "plan_repair", _download_nnz),
    ("repair.compute_downloads", "zigzag3.repair", "compute_downloads", None),
    ("repair.execute_repair", "zigzag3.repair", "execute_repair", None),
    ("gf3.rank", "zigzag3.gf3", "rank", None),
    ("gf3.solve", "zigzag3.gf3", "inverse", None),
    ("gf3.solve", "zigzag3.gf3", "solve_left", None),
    ("gf3.solve", "zigzag3.gf3", "solve_square", None),
    ("verification.run_sweep", "zigzag3.verification", "run_sweep", _sweep_checks),
)


def _wrap(tracer: Tracer, layer: str, fn: Callable, annotate) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, annotate)

    return traced


class Instrumentation:
    """Context manager that installs the wrappers on every binding.

    Each target function is replaced wherever a loaded ``zigzag3`` module
    holds it under a module-level name, since ``from .x import f`` gives
    the importing module its own binding.  Methods are replaced on their
    class.  Leaving the context restores every original.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "zigzag3"]
        for layer, module_name, attr, annotate in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._replace(cls, meth, _wrap(self.tracer, layer, orig, annotate))
                continue
            orig = getattr(owner, attr)
            wrapper = _wrap(self.tracer, layer, orig, annotate)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._replace(module, name, wrapper)
        return self

    def _replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()
