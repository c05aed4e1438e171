"""zetasieve benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload eval-large-n --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of the traced run.
The lines before it give the same numbers by name and unit, and a result
file with the environment, the input sizes and every failed op is written
under bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Distinct ops of a timed run: always all run, so that ten latencies lie
# beyond the 90th percentile, and then repeated until --seconds are up.
MIN_OPS = 100
TRACED_OPS = 50  # distinct ops of a traced run
SETUP_SAMPLES = 5

# Machine-speed calibration.  On a shared machine the same op can take 1.5x
# longer from one second to the next, because of other tenants.  Two fixed
# kernels that do not touch zetasieve, a numpy exp-and-sum over an array
# beyond L2 and a scalar cmath loop, are timed between ops, at most
# CAL_INTERVAL apart.  Every reported time is divided by the slowdown
# measured around it: kernel time / CAL_REF, averaged over the kernels that
# match the workload's kind of work (workload.calibration).  Times then read
# as on a machine where the kernels take CAL_REF seconds.  Raw times are
# kept in the result file.  The scalar loop runs about 4 ms: with a 1 ms
# loop the readings were noisier, and converge-tables latencies spread about
# twice as much from run to run on a loaded machine.
CAL_POINTS = np.linspace(1.0, 2.0, 500_000) * (0.5 + 14j)  # 8 MB, read 1 line in 2
CAL_LOOP = 12_000
CAL_INTERVAL = 0.05
CAL_REF = {"numpy": 1.8e-3, "python": 4.0e-3}
CAL_START = 0.25  # seconds for a fresh interpreter to import numpy

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up sample in a fresh process, timed from --t0.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


PACKAGE = SRC / "zetasieve" / "__init__.py"


def _require_package() -> None:
    if not PACKAGE.is_file():
        sys.exit(f"error: {PACKAGE} not found; run from a zetasieve checkout")


def _import_package():
    """Import zetasieve from this checkout's src/, never from elsewhere."""
    _require_package()
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("zetasieve")
    if Path(module.__file__).resolve() != PACKAGE.resolve():
        sys.exit(f"error: imported zetasieve from {module.__file__}, not {PACKAGE}")
    return module


def _make(name: str, seed: int):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.ConvergeTables:
        OUT.mkdir(exist_ok=True)
        return cls(seed, OUT / f"converge-table-{os.getpid()}.csv")
    return cls(seed)


def calibrate() -> dict[str, float]:
    """Seconds taken by each calibration kernel, right now."""
    start = time.perf_counter()
    np.exp(CAL_POINTS[::8]).sum()
    middle = time.perf_counter()
    z, acc = 0.5 + 3j, 0j
    for k in range(2, CAL_LOOP):
        w = cmath.exp(-z * (0.1 * k))
        acc += w / (1.0 - w)
    return {"numpy": middle - start, "python": time.perf_counter() - middle}


def slowdown(samples, kinds) -> float:
    """Machine slowdown against CAL_REF, from calibration samples."""
    return statistics.fmean(
        sample[k] / CAL_REF[k] for sample in samples for k in kinds
    )


def _setup_samples(args) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times of fresh processes: start to ready for
    the first op.  Each is scaled by the time a fresh interpreter then takes
    to import numpy, against CAL_START: set-up is process start and imports,
    which the kernels timed between ops track poorly on a loaded machine."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only",
            "--t0", repr(time.monotonic()),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=True)
        setup_s = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", "import numpy"], timeout=150, check=True)
        samples.append((setup_s, setup_s * CAL_START / (time.monotonic() - start)))
    return samples


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and a.args == b.args
    return a == b


class Loop:
    """Runs ops one after another, timing each call and nothing else, and
    times the calibration kernels between calls (outside the timed part).

    ``ops`` and ``outputs`` hold each distinct op once, with the output of
    its first run; ``latencies`` and ``starts`` hold every timed call.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.ops, self.outputs, self.latencies, self.starts = [], [], [], []
        self.repeat_differs: set[int] = set()  # indexes of ops that did
        self.cal_times, self.cal_values = [], []

    def _calibrate(self) -> None:
        now = time.perf_counter()
        if not self.cal_times or now - self.cal_times[-1] >= CAL_INTERVAL:
            self.cal_values.append(calibrate())
            self.cal_times.append(time.perf_counter())

    def scaled_latencies(self) -> list[float]:
        """Latencies divided by the slowdown measured just before and after
        each op."""
        kinds = self.workload.calibration
        out = []
        for start, latency in zip(self.starts, self.latencies):
            after = bisect.bisect_left(self.cal_times, start)
            near = self.cal_values[max(after - 1, 0) : after + 1]
            out.append(latency / slowdown(near, kinds))
        return out

    def run_op(self, op):
        """Times one op and returns its output."""
        self._calibrate()
        wl, tracer = self.workload, self.tracer
        if tracer is not None:
            tracer.op = op.index
            span = tracer.open(wl.span_name(op))
        start = time.perf_counter()
        try:
            outcome = wl.run(op)
        except Exception as exc:  # an op's failure is its output; checked later
            outcome = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            error = outcome if isinstance(outcome, Exception) else None
            tracer.close(span, error=error, note=getattr(outcome, "term_count", None))
        collect = getattr(wl, "collect", None)
        if collect is not None and not isinstance(outcome, Exception):
            outcome = collect(op, outcome)
        self.latencies.append(elapsed)
        self.starts.append(start)
        return outcome

    def for_seconds(self, seconds: float) -> None:
        """Runs the first MIN_OPS ops of the seeded sequence, then runs them
        again, in the same order, until ``seconds`` have passed.

        The distinct ops, and so the count of checked and of failed ones,
        are then the same on every run with the same seed, however many
        calls fit in the time.  A repeat must return exactly what the op's
        first run returned.
        """
        start = time.perf_counter()
        self.replay(itertools.islice(self.workload.ops(), MIN_OPS))
        for op, first in itertools.cycle(list(zip(self.ops, self.outputs))):
            if time.perf_counter() - start >= seconds:
                break
            if not _same(self.run_op(op), first):
                self.repeat_differs.add(op.index)
        self._calibrate()

    def replay(self, ops) -> None:
        for op in ops:
            self.ops.append(op)
            self.outputs.append(self.run_op(op))
        self._calibrate()


def _environment(args) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zetasieve").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches_per_core": caches,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _report(args, metrics: dict, units: dict, attempted: int, failures: dict,
            loop: Loop, extra: dict) -> None:
    import workloads

    reasons: dict[str, int] = {}
    for found in failures.values():
        for reason in found:
            reasons[reason] = reasons.get(reason, 0) + 1
    unexplained = [r for r in reasons if r not in workloads.KNOWN_DEFECTS]
    result = {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    by_index = {op.index: op for op in loop.ops}
    OUT.mkdir(exist_ok=True)
    record = {
        "environment": _environment(args),
        "sizes": loop.workload.sizes(loop.ops),
        "result": result,
        "failed_ratio": len(failures) / attempted,
        "failure_reasons": reasons,
        "known_defects": sorted(workloads.KNOWN_DEFECTS),
        "failed_ops": [
            {"op": repr(by_index[i]), "reasons": found}
            for i, found in sorted(failures.items())
        ],
        **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    print(f"  {'failed_ratio':40s} {record['failed_ratio']:14.6g} 1  {reasons or ''}")
    print(f"  result file: {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(result))


def _end_to_end(args) -> None:
    samples = _setup_samples(args)
    _import_package()
    workload = _make(args.workload, args.seed)
    start = time.perf_counter()
    workload.setup()
    own_setup = time.perf_counter() - start

    loop = Loop(workload)
    loop.for_seconds(args.seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = workload.check(loop.ops, loop.outputs)
    for index in loop.repeat_differs:
        failures.setdefault(index, []).append("repeat-differs")

    def summary(latencies, setup):
        deciles = statistics.quantiles(latencies, n=10)
        return {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": deciles[4] * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss,
        }

    lat = loop.scaled_latencies()
    metrics = summary(lat, [scaled for _, scaled in samples])
    p90 = metrics["latency_p90_ms"] / 1e3
    extra = {
        "unscaled_metrics": summary(loop.latencies, [raw for raw, _ in samples]),
        "calibration": {
            "kernels": list(workload.calibration),
            "reference_s": CAL_REF,
            "slowdown_quartiles": statistics.quantiles(
                [slowdown([c], workload.calibration) for c in loop.cal_values], n=4
            ),
            "samples": len(loop.cal_values),
        },
        "setup_samples_s": samples,
        "in_process_setup_s": own_setup,
        "timed_calls": len(lat),
        "ops_beyond_p90": sum(1 for x in lat if x > p90),
    }
    _report(args, metrics, dict(END_TO_END), len(loop.ops), failures, loop, extra)


def _traced(args) -> None:
    import tracing

    package = _import_package()
    workload = _make(args.workload, args.seed)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        workload.setup()
    finally:
        tracer.restore()

    # The first TRACED_OPS ops are run once to warm the process up; the
    # traced replay is then compared with an untraced replay that follows it.
    plain = Loop(workload)
    plain.replay(itertools.islice(workload.ops(), TRACED_OPS))
    cache = package.admissible.admissible_up_to.cache_info
    before = cache()
    traced = Loop(workload, tracer)
    tracer.install()
    try:
        traced.replay(plain.ops)
    finally:
        tracer.restore()
    after = cache()
    again = Loop(workload)
    again.replay(plain.ops)

    failures = workload.check(traced.ops, traced.outputs)
    for op, a, b, c in zip(traced.ops, plain.outputs, traced.outputs, again.outputs):
        if not (_same(a, b) and _same(a, c)):
            failures.setdefault(op.index, []).append("tracing-changed-output")

    extra = {
        "admissible_hits": after.hits - before.hits,
        "admissible_misses": after.misses - before.misses,
        "overhead_ratio": sum(again.scaled_latencies()) / sum(traced.scaled_latencies()),
    }
    for out in traced.outputs:
        if isinstance(out, tuple):  # converge: (exit code, table)
            extra["rows"] = extra.get("rows", 0) + out[1].count("\n") - 1
        elif isinstance(out, list):  # zeros: root records
            extra["roots"] = extra.get("roots", 0) + len(out)
            extra["roots_unverified"] = extra.get("roots_unverified", 0) + sum(
                1 for r in out if not r.verified
            )
    metrics = tracing.layer_metrics(tracer.spans, len(traced.ops), extra)
    units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    _report(args, metrics, units, len(traced.ops), failures, traced,
            {"trace_inputs": extra, "spans_file": str(spans.relative_to(ROOT))})


def _all(args) -> int:
    import workloads

    results, code = {}, 0
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            code = done.returncode
            continue
        results[name] = json.loads(done.stdout.splitlines()[-1])
    if code == 0:
        print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    _require_package()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return _all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    if args.setup_only:
        _import_package()
        workload = _make(args.workload, args.seed)
        workload.setup()
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0
    if args.trace:
        _traced(args)
    else:
        _end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
