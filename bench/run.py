"""The invsg benchmark: one workload per run, checked against pinned references.

    python3 bench/run.py --workload decompose --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory, and nothing needs building.  One warm-up pass runs
first, then whole passes over the workload's job list until the next
pass would overrun ``--seconds``; op times are scaled to a reference CPU
speed by ``SpeedProbe``.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric, taken
from spans recorded around the package's public functions (spans.py)
on passes that alternate with untraced ones.  The lines before it print
the same metrics by name with their units, the failures, the work
fingerprint and the run metadata; the full result, with the spans of
one traced pass, goes to ``bench/out/``.

An op fails when it raises or when its answer differs from its
reference; failures are counted and the run goes on.  ``correct`` is
false when an op returned a wrong answer, raised an exception that is
not one of the package's own typed errors, or when two passes did
different work.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("decompose", "correspondence", "closure", "cli")
SETUP_PROBES = 7
IMPORT_PROBES = 5
# one BLAS thread: figures then do not depend on what else runs on the
# machine's other cores; must be set before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SpeedProbe:
    """Tracks the machine's current speed from a background thread.

    Shared virtual CPUs change speed by up to 1.7x for spells of a few
    seconds (other tenants on the host core), which no run length averages
    out.  Every PERIOD_S a thread on the benchmark's CPU times a fixed
    kernel, and an interval's wall time is scaled by the kernel's
    reference time over its median time inside the interval and on either
    side, so it reads as seconds at the speed where the kernel takes its
    reference time: the fast state of the 2-vCPU Xeon VM the benchmark was
    tuned on.  The spells slow Python object work, numpy indexing and dense
    linear algebra by different amounts, so each workload names the kernel
    that kept its figures steadiest over ten seeds there.  Raw wall times
    are kept next to the scaled ones.  The thread takes about 1% of the CPU.
    """

    PERIOD_S = 0.05
    REF_S = {"python": 0.47e-3, "indexing": 0.6e-3, "linalg": 0.52e-3}

    def __init__(self, np, kind: str):
        rng = np.random.default_rng(0)
        self.np = np
        self.kind = kind
        self.ref_s = self.REF_S[kind]
        self.matrix = rng.normal(size=(48, 48))
        self.table = rng.integers(0, 1 << 14, size=1 << 14)
        self.index = rng.integers(0, 1 << 14, size=1 << 15)
        self._samples: list[tuple[float, float]] = []  # (end time, kernel seconds), sorted
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        if self.kind == "linalg":
            self.np.linalg.svd(self.matrix)
        else:  # Python dict work, which holds the interpreter lock throughout
            d = {}
            for k in range(2000):
                d[(k, k & 7)] = k
            sum(d[(k, k & 7)] for k in range(2000))
            if self.kind == "indexing":
                int(self.table[self.index].sum())
        end = time.perf_counter()
        with self._lock:
            bisect.insort(self._samples, (end, end - start))

    def scale(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the wall interval [start, end]:
        the median over the samples inside it and two on either side (one
        sample can be slowed by the measured work itself); needs samples
        taken after ``end``."""
        with self._lock:
            lo = max(bisect.bisect_left(self._samples, (start,)) - 2, 0)
            hi = bisect.bisect_right(self._samples, (end, math.inf)) + 2
            window = [seconds for _, seconds in self._samples[lo:hi]]
        return (end - start) * self.ref_s / statistics.median(window)

    def timed(self, run):
        """Run ``run()``; return (its result, scaled seconds)."""
        start = time.perf_counter()
        result = run()
        end = time.perf_counter()
        self.sample()
        self.sample()
        return result, self.scale(start, end)


@dataclass
class Outcome:
    op: str
    order: int
    seconds: float  # scaled to the reference speed when a SpeedProbe runs
    ok: bool
    wrong: bool = False  # a wrong answer or an exception that is not a typed invsg error
    reason: str | None = None
    exit_mismatch: bool = False
    maxrss_kib: int = 0
    raw_seconds: float = 0.0


@dataclass
class Pass:
    outcomes: list[Outcome]
    work: Counter = field(default_factory=Counter)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def raw_seconds(self) -> float:
        return sum(o.raw_seconds for o in self.outcomes)

    def signature(self) -> tuple:
        return tuple((o.op, o.ok, o.wrong) for o in self.outcomes), tuple(sorted(self.work.items()))


def run_pass(ops, warning_sink, tracer=None, probe: SpeedProbe | None = None) -> Pass:
    """Run every op once; an op that raises or answers wrongly is counted
    as failed and the pass goes on."""
    gc.collect()
    outcomes = []
    intervals = []
    work: Counter = Counter()
    clock = time.perf_counter
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = warning_sink.showwarning
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.trace_id = i
            start = clock()
            try:
                answer = op.run(work)
            except Exception as exc:  # the op's failure is the measurement
                end = clock()
                typed = type(exc).__module__.split(".")[0] == "invsg"
                outcome = Outcome(op.name, op.order, end - start, False, not typed, _describe(exc))
            else:
                end = clock()
                try:
                    reason = op.check(answer)
                except Exception as exc:  # a malformed answer
                    reason = "unreadable answer: " + _describe(exc)
                outcome = Outcome(
                    op.name, op.order, end - start, reason is None, reason is not None, reason,
                    exit_mismatch=op.exit_code is not None and getattr(answer, "code", None) != op.exit_code,
                    maxrss_kib=getattr(answer, "maxrss_kib", 0),
                )
            outcome.raw_seconds = end - start
            outcomes.append(outcome)
            intervals.append((start, end))
    if probe is not None:
        probe.sample()
        probe.sample()
        for outcome, (start, end) in zip(outcomes, intervals):
            outcome.seconds = probe.scale(start, end)
    return Pass(outcomes, work)


def _describe(exc: BaseException) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"


def measure(ops, seconds: float, warning_sink, tracer=None, probe: SpeedProbe | None = None):
    """Warm-up pass, then passes until the next would overrun ``seconds``.

    With a tracer, passes alternate untraced and traced (untraced first)
    and at least one of each runs.  Returns (warm-up, untraced, traced).
    """
    warm = run_pass(ops, warning_sink, probe=probe)
    plain: list[Pass] = []
    traced: list[Pass] = []
    began = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        if use_tracer:
            tracer.spans = [] if not traced else None
            tracer.install()
            try:
                p = run_pass(ops, tracer, tracer, probe)
            finally:
                tracer.uninstall()
            traced.append(p)
        else:
            plain.append(run_pass(ops, warning_sink, probe=probe))
        elapsed = time.perf_counter() - began
        last = (traced if use_tracer else plain)[-1].raw_seconds
        if elapsed + last > seconds and (tracer is None or traced):
            break
    return warm, plain, traced


def nearest_rank(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: always one of the values, so it
    never mixes the times of two different ops."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def op_medians(passes: list[Pass], raw: bool = False) -> list[float]:
    """Each op's median time over the passes, in job-list order."""
    attr = "raw_seconds" if raw else "seconds"
    return [statistics.median(col) for col in zip(*([getattr(o, attr) for o in p.outcomes] for p in passes))]


def max_order_ok(passes: list[Pass]) -> int:
    orders = sorted({o.order for p in passes for o in p.outcomes})
    best = 0
    for order in orders:
        if not all(o.ok for p in passes for o in p.outcomes if o.order <= order):
            break
        best = order
    return best


def end_to_end(passes: list[Pass], setup_s: float, cli_workload: bool) -> dict[str, float]:
    """The end-to-end metrics.  Timings start from each op's median over
    the counted passes: on a shared machine a slow spell then costs one
    sample of an op, not a whole pass."""
    ops = [o for p in passes for o in p.outcomes]
    times = op_medians(passes)
    failed = sum(not o.ok for o in ops)
    if cli_workload:
        peak_kib = max(o.maxrss_kib for o in ops)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "solve_s": sum(times),
        "op_p50_s": nearest_rank(times, 50),
        "op_p90_s": nearest_rank(times, 90),
        "ok_frac": 1 - failed / len(ops),
        "max_order_ok": max_order_ok(passes),
        "peak_rss_mb": peak_kib / 1024,
    }


def per_layer(setup_tracer, tracer, traced: list[Pass], plain: list[Pass], extra: dict) -> dict[str, float]:
    """Per-layer values: each total per traced pass, plus what the traced
    set-up did once (the groups are built there)."""
    n = len(traced)
    setup_totals = setup_tracer.totals()
    totals = tracer.totals()
    out = {k: setup_totals.get(k, 0) + totals.get(k, 0) / n for k in set(setup_totals) | set(totals)}
    products = totals.get("graded.subspace_product.calls", 0)
    out["graded.closure.useful_ratio"] = totals.get("graded.closure.new", 0) / products if products else 0.0
    out["cli.exit_mismatch"] = sum(o.exit_mismatch for p in traced for o in p.outcomes) / n
    for key, value in traced[0].work.items():
        out[f"work.{key}"] = value
    # raw wall time, like the spans: span time plus the remainder make up
    # the mean traced pass exactly
    out["trace.pass.s"] = statistics.fmean(p.raw_seconds for p in traced)
    out["trace.spans.s"] = tracer.top_level_s / n
    out["trace.remainder.s"] = out["trace.pass.s"] - out["trace.spans.s"]
    out["trace.untraced_pass.s"] = statistics.fmean(p.raw_seconds for p in plain)
    out["trace.overhead_frac"] = sum(op_medians(traced)) / sum(op_medians(plain)) - 1
    out.update(extra)
    return out


def timed_subprocess(argv: list[str], env: dict, probe: SpeedProbe) -> float:
    """Wall time of one child process, scaled to the reference speed."""

    def run():
        return subprocess.run(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, timeout=120)

    proc, seconds = probe.timed(run)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return seconds


def setup_seconds(workload: str, seed: int, probe: SpeedProbe) -> list[float]:
    """Fresh process to ready, measured from outside: start the
    interpreter, import numpy and invsg, build the groups, make the inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--probe-setup"]
    return [timed_subprocess(argv, dict(os.environ), probe) for _ in range(SETUP_PROBES)]


def import_seconds(probe: SpeedProbe) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [timed_subprocess([sys.executable, "-c", "import invsg.cli"], env, probe) for _ in range(IMPORT_PROBES)]


def pin_to_current_cpu() -> int | None:
    """Keep this process and its children on the CPU it started on, so
    that the speed probe reads the CPU the measured work runs on."""
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None
    os.sched_setaffinity(0, {cpu})
    return cpu


def metadata(args, np) -> dict:
    """Machine, library and run facts recorded with every result."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "invsg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    nproc = os.cpu_count()
    threads = blas_threads()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "blas_threads_within_nproc": threads is not None and threads <= nproc,
        "nproc": nproc,
        "cpu": cpu_model(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "invsg" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'invsg'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    pinned = pin_to_current_cpu()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import invsg
    import spans
    import workloads

    if Path(invsg.__file__).resolve().parent != (SRC / "invsg").resolve():
        print(f"bench: imported invsg from {invsg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup = workloads.SETUP[args.workload]
        in_process = args.trace == 1
        if args.probe_setup:
            setup(args.seed, workdir, in_process)
            return 0
        declared = declared_metrics()
        modules = {name: getattr(invsg, name) for name in spans.LAYERS if name != "cli"}
        modules["cli"] = workloads.cli
        if args.trace:
            setup_tracer = spans.Tracer(invsg, modules)
            began = time.perf_counter()
            setup_tracer.install()
            try:
                ops = setup(args.seed, workdir, in_process)
            finally:
                setup_tracer.uninstall()
            traced_setup_s = time.perf_counter() - began
            tracer = spans.Tracer(invsg, modules)
        else:
            ops = setup(args.seed, workdir, in_process)
            tracer = None
        sink = spans.Tracer(invsg, modules)  # counts the warnings of untraced passes
        with SpeedProbe(np, workloads.PROBE_KERNEL[args.workload]) as probe:
            warm, plain, traced = measure(ops, args.seconds, sink, tracer, probe)
            if args.trace:
                import_s = statistics.median(import_seconds(probe)) if args.workload == "cli" else 0.0
            else:
                setup_s = statistics.median(setup_seconds(args.workload, args.seed, probe))

        counted = plain + traced
        signatures = {p.signature() for p in [warm, *counted]}
        failures = sorted({(o.op, o.reason) for p in counted for o in p.outcomes if not o.ok})
        wrong = any(o.wrong for p in counted for o in p.outcomes)
        attempted = sum(len(p.outcomes) for p in counted)
        failed = sum(not o.ok for p in counted for o in p.outcomes)

        if args.trace:
            extra = {"trace.setup.s": traced_setup_s, "cli.import.s": import_s}
            values = per_layer(setup_tracer, tracer, traced, plain, extra)
            kind = "per_layer"
        else:
            values = end_to_end(plain, setup_s, args.workload == "cli")
            kind = "end_to_end"
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in declared[kind].items()}

        meta = metadata(args, np)
        meta["pinned_cpu"] = pinned
        meta["samples"] = {
            "passes": len(plain),
            "traced_passes": len(traced),
            "ops_per_pass": len(ops),
            "op_samples": attempted,
            "setup_probes": 0 if args.trace else SETUP_PROBES,
        }
        result = {
            "correct": not wrong and len(signatures) == 1,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "metrics": metrics,
            "failures": [{"op": op, "reason": reason} for op, reason in failures],
            "work_per_pass": dict(counted[0].work),
            "passes_did_same_work": len(signatures) == 1,
            "raw_solve_s": sum(op_medians(plain, raw=True)),
            "pass_seconds": [p.seconds for p in plain],
            "raw_pass_seconds": [p.raw_seconds for p in plain],
            "traced_pass_seconds": [p.seconds for p in traced],
            "op_seconds": [
                {
                    "op": o.op,
                    "seconds": [p.outcomes[i].seconds for p in plain],
                    "raw_seconds": [p.outcomes[i].raw_seconds for p in plain],
                }
                for i, o in enumerate(plain[0].outcomes)
            ],
            "metadata": meta,
        }
        if args.trace:
            result["spans"] = {
                "fields": ["op", "id", "parent", "name", "start", "end"],
                "ops": [op.name for op in ops],
                "records": tracer.spans,
            }
        name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(result, indent=1, default=str))

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"passes {len(plain)} untraced + {len(traced)} traced, {len(ops)} ops each")
        print(f"python {meta['python']}  numpy {meta['numpy']}  blas {meta['blas']}  "
              f"nproc {meta['nproc']}  cpu {meta['cpu']}  commit {meta['git_commit']}")
        for metric, m in metrics.items():
            print(f"  {metric:58s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_frac':58s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        print(f"  {'solve_s unscaled wall time':58s} {result['raw_solve_s']:.6g} s")
        print(f"  work per pass: {dict(sorted(counted[0].work.items()))}")
        for op, reason in failures:
            print(f"  FAILED {op}: {reason}")
        if len(signatures) != 1:
            print("  WRONG: passes did different work")
        print(f"  full result: {OUT.relative_to(ROOT) / name}")
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(final))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
