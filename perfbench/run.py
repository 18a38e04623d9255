"""zigzag3 benchmark: file lifecycle, repair and condition sweep, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk-k8 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

Every workload runs the same pass of operations against the program in
``src/`` of the checkout this file sits in:

  encode    ``zigzag3 encode`` (in process, via ``zigzag3.cli.main``)
  decode.*  ``zigzag3 decode`` from four shard subsets: lost0, lost1_rowsum,
            lost1_zigzag, lost2 (none, one or two systematic nodes missing)
  repair.*  ``ClusterState.repair_node`` after ``fail_node`` on the row-sum
            parity, the zigzag parity and two systematic nodes
  sweep     ``run_sweep([k])`` for k = 2..9, what ``zigzag3 verify
            --k-range 2..9`` runs

A pass is a fresh set-up, DATA_ROUNDS data rounds (encode, decodes,
repairs) and one sweep.  The workloads differ in the code parameter and the
file size, which moves the cost between layers; see WORKLOADS.  Load is one
closed-loop caller in one process with no threads.  Passes repeat until
``--seconds`` is used up (at least three).  Every operation is checked; a
failed check, an exception or a non-zero CLI exit code is a failed
operation, is reported by name and makes the run exit with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (see E2E for how samples are
reduced).  With
``--trace 1`` passes alternate between traced and untraced, the metrics
are the per-layer ones from the traced passes (see spans.py), and
``trace.overhead_ratio`` is the traced over the untraced pass time.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so BLAS/OpenMP pools add no threads to
# the single closed-loop caller.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Instrumentation, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
MiB = 1 << 20

SWEEP_KS = tuple(range(2, 10))
# The first pass runs cold (allocator arenas, page faults), so at least two
# warm passes follow it.
MIN_PASSES = 3
# Data rounds per pass, before its one sweep.  Four give each data op about
# 28 samples in a 50-second bulk-k8 run and leave the sweep a third of it.
DATA_ROUNDS = 4


@dataclass(frozen=True)
class Workload:
    k: int
    payload_bytes: int
    why: str


WORKLOADS = {
    "bulk-k8": Workload(
        8, 512 * 1024,
        "512 KiB at k=8, 3,072 small stripes, 4 data rounds per sweep: per-symbol data-path work "
        "(ingest, packing + CRC, parity, per-stripe matmuls) dominates; repair planning is cheap",
    ),
    "verify-k2-9": Workload(
        4, 64 * 1024,
        "64 KiB at k=4: little file data, so the k=2..9 condition sweep (dense GF(3) "
        "elimination behind the MDS, repair and duality checks) dominates",
    ),
}
SMOKE = Workload(3, 4096, "tiny file for the benchmark's own self-test")


def decode_subsets(k: int) -> dict[str, list[int]]:
    """Shard subsets for decode: which systematic nodes are missing and
    which parity stands in for them."""
    return {
        "lost0": list(range(k)),
        "lost1_rowsum": list(range(1, k)) + [k],
        "lost1_zigzag": list(range(1, k)) + [k + 1],
        "lost2": list(range(2, k + 2)),
    }


def repair_targets(k: int) -> list[tuple[str, int]]:
    return [("rowsum", k), ("zigzag", k + 1), ("systematic", 0), ("systematic", k // 2)]


# -- metrics ----------------------------------------------------------------

# Each timing is reported as its fastest sample in the run.  On a shared
# host, contention from other tenants only ever slows an operation down, and
# on a 2-core VM the fastest of 28 samples varied about half as much between
# 50-second windows as the median did.  The median, minimum and maximum are
# printed beside it with the sample count.  setup_s is the median of its
# set-ups, one per pass; counts are the same in every pass.
E2E = {
    "setup_s": ("s", statistics.median),
    "encode_MiBps": ("MiB/s", max),
    **{f"decode_MiBps.{s}": ("MiB/s", max) for s in decode_subsets(2)},
    **{f"repair_MiBps.{t}": ("MiB/s", max) for t in ("rowsum", "zigzag", "systematic")},
    **{f"repair_reads_per_stripe.{t}": ("symbols", statistics.median)
       for t in ("rowsum", "zigzag", "systematic")},
    "stored_bytes_per_user_byte": ("ratio", statistics.median),
    "verify_s": ("s", min),
}

# (name, unit, layer, op prefix or None for the whole pass, span label, value)
# value: "time" sums span durations, "self" sums self times, "calls" counts
# spans, "sum:<c>" sums a count, "each:<c>" is the median count per span.
# Time and sums are totals within one pass (all its data rounds and its
# sweep); the metric is their median over the traced passes.
LAYER_METRICS = [
    ("cli.self_s.encode", "s", "cli.main", "encode", None, "self"),
    ("cli.self_s.decode", "s", "cli.main", "decode.", None, "self"),
    ("cluster.ingest_s", "s", "cluster.ingest", None, None, "time"),
    ("cluster.write_shard_file_s", "s", "cluster.write_shard_file", None, None, "time"),
    ("cluster.shard_bytes_written", "count", "cluster.write_shard_file", None, None, "sum:bytes"),
    ("cluster.shard_from_bytes_s", "s", "cluster.shard_from_bytes", None, None, "time"),
    ("cluster.extract_s", "s", "cluster.extract", None, None, "time"),
    *[
        row
        for t in ("rowsum", "zigzag", "systematic")
        for row in (
            (f"cluster.repair_node_self_s.{t}", "s", "cluster.repair_node", f"repair.{t}", None, "self"),
            (f"cluster.sent_symbols_per_stripe.{t}", "count", "cluster.repair_node",
             f"repair.{t}", None, "each:sent_per_stripe"),
        )
    ],
    ("code.build_coding_matrices_s", "s", "code.build_coding_matrices", None, None, "time"),
    ("code.encode_parts_array_s", "s", "code.encode_parts_array", None, None, "time"),
    *[
        (f"code.decode_shards_array_s.{s}", "s", "code.decode_shards_array", f"decode.{s}", None, "time")
        for s in decode_subsets(2)
    ],
    ("code.decode_shards_array_s.systematic_repair", "s", "code.decode_shards_array",
     "repair.systematic", None, "time"),
    *[
        row
        for t in ("rowsum", "zigzag")
        for row in (
            (f"repair.plan_repair_s.{t}", "s", "repair.plan_repair", f"repair.{t}", None, "time"),
            (f"repair.compute_downloads_s.{t}", "s", "repair.compute_downloads", f"repair.{t}", None, "time"),
            (f"repair.execute_repair_s.{t}", "s", "repair.execute_repair", f"repair.{t}", None, "time"),
            (f"repair.download_nnz.{t}", "count", "repair.plan_repair", f"repair.{t}", None, "each:nnz"),
        )
    ],
    ("gf3.rank_s", "s", "gf3.rank", None, None, "time"),
    ("gf3.rank_calls", "count", "gf3.rank", None, None, "calls"),
    ("gf3.solve_s", "s", "gf3.solve", None, None, "time"),
    ("gf3.solve_calls", "count", "gf3.solve", None, None, "calls"),
    *[
        (f"verification.run_sweep_s.k{k}", "s", "verification.run_sweep", "sweep", f"k{k}", "time")
        for k in SWEEP_KS
    ],
    ("verification.checks_run", "count", "verification.run_sweep", "sweep", None, "sum:checks_run"),
    ("verification.checks_failed", "count", "verification.run_sweep", "sweep", None, "sum:checks_failed"),
]


def layer_value(spans, value: str):
    if value.startswith("each:"):
        return statistics.median(s.counts[value[5:]] for s in spans) if spans else 0
    if value.startswith("sum:"):
        return sum(s.counts[value[4:]] for s in spans)
    if value == "calls":
        return len(spans)
    if value == "self":
        return sum(s.self_time for s in spans)
    return sum(s.duration for s in spans)


def layer_metrics(tracer: Tracer, traced_passes: list[int]) -> dict[str, dict]:
    out = {}
    for name, unit, layer, op, label, value in LAYER_METRICS:
        per_pass = []
        for p in traced_passes:
            spans = [
                s for s in tracer.spans
                if s.pass_index == p and s.layer == layer and not s.nested
                and (op is None or s.op.startswith(op))
                and (label is None or s.label == label)
            ]
            per_pass.append(layer_value(spans, value))
        out[name] = {"value": statistics.median(per_pass), "unit": unit}
    return out


# -- the run ----------------------------------------------------------------


@dataclass
class Run:
    name: str
    workload: Workload
    seed: int
    inject_fault: bool
    payload: bytes = b""
    samples: dict = field(default_factory=dict)
    pass_times: dict = field(default_factory=dict)  # pass index -> seconds
    attempted: int = 0
    failures: list = field(default_factory=list)
    tracer: Tracer | None = None

    def sample(self, metric: str, pass_index: int, value: float) -> None:
        self.samples.setdefault(metric, []).append((pass_index, value))

    def op(self, name: str, pass_index: int, fn, check=None):
        """Time fn(); run check(result) outside the timed region.

        Returns (result, seconds), or None when the operation failed.
        """
        self.attempted += 1
        gc.collect()
        if self.tracer is not None:
            self.tracer.op, self.tracer.pass_index = name, pass_index
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                result = fn()
        except Exception as exc:  # noqa: BLE001 -- a failed op is reported, not fatal
            self.failures.append(f"pass {pass_index} {name}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        self.pass_times[pass_index] = self.pass_times.get(pass_index, 0.0) + seconds
        problem = check(result) if check is not None else None
        if problem:
            detail = err.getvalue().strip().splitlines()
            self.failures.append(
                f"pass {pass_index} {name}: {problem}" + (f" ({detail[-1]})" if detail else "")
            )
            return None
        return result, seconds


def import_program():
    """Import zigzag3 afresh from this checkout's src/ (part of set-up)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "zigzag3"]:
        del sys.modules[name]
    zz = importlib.import_module("zigzag3")
    cli = importlib.import_module("zigzag3.cli")
    verification = importlib.import_module("zigzag3.verification")
    if Path(zz.__file__).resolve().parent != (SRC / "zigzag3").resolve():
        raise ImportError(f"zigzag3 imported from {zz.__file__}, not from {SRC}")
    return zz, cli, verification


def set_up(run: Run):
    """Import the program afresh and build the cluster the repairs run against.

    Runs before every pass, so setup_s, the median, samples the host over
    the whole run.  The pass uses the objects this set-up made.
    """
    run.attempted += 1
    gc.collect()
    start = time.perf_counter()
    zz, cli, verification = import_program()
    cluster = zz.ClusterState.from_bytes(zz.CodeParams(run.workload.k), run.payload)
    run.sample("setup_s", -1, time.perf_counter() - start)
    originals = [node.payload.copy() for node in cluster.nodes]
    return cli, verification, cluster, originals


def flip_one_byte(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


def run_pass(run: Run, p: int, cli, verification, cluster, originals, work: Path) -> None:
    for r in range(DATA_ROUNDS):
        data_round(run, p, r, cli, cluster, originals, work)

    def sweep():
        return [verification.run_sweep([kk], seed=run.seed + p) for kk in SWEEP_KS]

    def check_sweep(reports):
        failed = [f"k={r.k_values[0]} {c.name}" for r in reports for c in r.failures]
        return f"sweep checks failed: {', '.join(failed)}" if failed else None

    res = run.op("sweep", p, sweep, check=check_sweep)
    if res is not None:
        run.sample("verify_s", p, res[1])


def data_round(run: Run, p: int, r: int, cli, cluster, originals, work: Path) -> None:
    wl = run.workload
    k, n = wl.k, 1 << (wl.k - 1)
    mib = len(run.payload) / MiB
    src = work / "input.bin"
    shard_dir = work / f"pass{p}-{r}"

    res = run.op("encode", p, lambda: cli.main(
        ["encode", "--k", str(k), "--input", str(src), "--out-dir", str(shard_dir)]
    ), check=lambda rc: f"exit code {rc}" if rc != 0 else None)
    if res is not None:
        run.sample("encode_MiBps", p, mib / res[1])
        stored = sum(f.stat().st_size for f in shard_dir.iterdir())
        run.sample("stored_bytes_per_user_byte", p, stored / len(run.payload))
    if run.inject_fault and p == 0 and r == 0:
        flip_one_byte(shard_dir / "node_1.shard")

    for subset, nodes in decode_subsets(k).items():
        out = shard_dir / f"decoded_{subset}.bin"
        argv = ["decode", "--shards", *[str(shard_dir / f"node_{i}.shard") for i in nodes],
                "--out", str(out)]

        def check_decode(rc, out=out):
            if rc != 0:
                return f"exit code {rc}"
            if out.read_bytes() != run.payload:
                return "decoded bytes differ from the payload"
            return None

        res = run.op(f"decode.{subset}", p, lambda argv=argv: cli.main(argv), check=check_decode)
        if res is not None:
            run.sample(f"decode_MiBps.{subset}", p, mib / res[1])
    shutil.rmtree(shard_dir, ignore_errors=True)

    stripes = cluster.meta.stripe_count
    for kind, node in repair_targets(k):

        def check_repair(report, node=node, kind=kind):
            if not np.array_equal(cluster.nodes[node].payload, originals[node]):
                return f"rebuilt node {node} differs from its copy from before the failure"
            if kind == "systematic":
                if report.total_reads > stripes * k * n:
                    return f"reads {report.total_reads} exceed stripes*kN = {stripes * k * n}"
            elif report.total_reads != stripes * (k * n + n - k):
                return f"reads {report.total_reads} != stripes*(kN+N-k) = {stripes * (k * n + n - k)}"
            return None

        cluster.fail_node(node)
        res = run.op(f"repair.{kind}", p, lambda node=node: cluster.repair_node(node), check=check_repair)
        if res is None:
            # Put the node back so the next operations start from a healthy cluster.
            cluster.nodes[node].payload = originals[node].copy()
            cluster.nodes[node].status = "healthy"
            continue
        report, seconds = res
        run.sample(f"repair_MiBps.{kind}", p, mib / seconds)
        run.sample(f"repair_reads_per_stripe.{kind}", p, report.total_reads / report.stripes)


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Set up, then run passes for about ``seconds``; returns the metrics."""
    work = WORK_DIR / f"{run.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    traced_passes, plain_passes = [], []
    try:
        run.payload = np.random.default_rng(run.seed).integers(
            0, 256, run.workload.payload_bytes, dtype=np.uint8
        ).tobytes()
        (work / "input.bin").write_bytes(run.payload)
        start = time.perf_counter()
        p = 0
        while p < MIN_PASSES or time.perf_counter() - start < seconds:
            cli, verification, cluster, originals = set_up(run)
            traced = trace and p % 2 == 0
            run.tracer = tracer if traced else None
            with Instrumentation(tracer) if traced else contextlib.nullcontext():
                run_pass(run, p, cli, verification, cluster, originals, work)
            (traced_passes if traced else plain_passes).append(p)
            p += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    return summarize(run, tracer, traced_passes, plain_passes)


def e2e_metrics(run: Run, passes: set[int]) -> dict[str, dict]:
    out = {}
    for name, (unit, estimate) in E2E.items():
        values = [v for p, v in run.samples.get(name, []) if p == -1 or p in passes]
        if values:
            out[name] = {
                "value": estimate(values), "unit": unit, "n": len(values),
                "median": statistics.median(values), "min": min(values), "max": max(values),
            }
    return out


def summarize(run: Run, tracer, traced_passes, plain_passes) -> dict:
    """End-to-end metrics from the untraced passes and, for a traced run,
    the per-layer metrics plus the traced passes' end-to-end metrics."""
    result = {"e2e": e2e_metrics(run, set(plain_passes))}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, traced_passes)
        result["e2e_traced"] = e2e_metrics(run, set(traced_passes))
        timed = [p for p in plain_passes if p in run.pass_times]
        traced = [p for p in traced_passes if p in run.pass_times]
        if timed and traced:
            ratio = statistics.median(run.pass_times[p] for p in traced) / statistics.median(
                run.pass_times[p] for p in timed
            )
            result["layers"]["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return result


# -- reporting --------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "asserts_on": __debug__,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
        "notes": [
            "shard writes are not fsynced: the flush policy is the CLI's own",
            "shard and input reads are served from the page cache",
        ],
    }


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, m in metrics.items():
        spread = (f"  n={m['n']} median={m['median']:.6g} min={m['min']:.6g} max={m['max']:.6g}"
                  if "n" in m else "")
        print(f"#   {name:46s} {m['value']:14.6g} {m['unit']}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload's pass on a tiny file (self-test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="flip one byte of a shard file before the first decode (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "zigzag3" / "__init__.py").is_file():
        print(f"error: no zigzag3 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# environment " + json.dumps(environment(args.seed)))
    attempted, failures, final = 0, [], {}
    for name in names:
        run = Run(name, SMOKE if args.smoke else WORKLOADS[name], args.seed, args.inject_fault)
        result = measure(run, args.seconds, bool(args.trace))
        attempted += run.attempted
        failures += [f"{name}: {f}" for f in run.failures]
        wl = run.workload
        pass_s = ", ".join(f"{t:.2f}" for t in run.pass_times.values())
        print(f"# workload {name}: k={wl.k}, {wl.payload_bytes} bytes; {wl.why}")
        print(f"# {len(run.pass_times)} passes, timed seconds per pass: {pass_s}")
        print_table(f"{name} end-to-end" + (" (untraced passes)" if args.trace else ""), result["e2e"])
        print(f"#   {'failed_op_ratio':46s} {len(run.failures) / run.attempted:14.6g} "
              f"failed/attempted ({len(run.failures)}/{run.attempted})")
        for metric, values in run.samples.items():
            print(f"# samples {name} {metric} " + " ".join(f"{v:.6g}" for _, v in values))
        metrics = result["e2e"]
        if args.trace:
            print_table(f"{name} end-to-end (traced passes)", result["e2e_traced"])
            print_table(f"{name} per layer", result["layers"])
            metrics = result["layers"]
        prefix = f"{name}/" if len(names) > 1 else ""
        final.update({prefix + m: {"value": v["value"], "unit": v["unit"]} for m, v in metrics.items()})
    for failure in failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": final,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
