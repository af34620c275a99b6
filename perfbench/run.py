"""rcpolar benchmark: one pinned workload per run, closed loop, threads=1.

Usage, from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` times whole operations with no wrappers installed, each
between two passes of a speed reference from ``speed.py``, and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is the result object; the line before it holds
the run record (environment, per-operation times, output digests), which is
also written with the spans under ``.perfbench_out/``.  ``--smoke`` runs
every workload at a tiny size and checks the metric names, the layers each
workload reaches, and the seed commit's profile ordering.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 5


def _digest(outputs):
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_program():
    """Import rcpolar from this checkout's src/, and nowhere else."""
    if not (SRC / "rcpolar" / "__init__.py").is_file():
        raise SystemExit(f"error: no rcpolar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rcpolar
    if Path(rcpolar.__file__).resolve().parent != SRC / "rcpolar":
        raise SystemExit(f"error: rcpolar imported from {rcpolar.__file__}")


def _git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    """Facts that make two runs comparable, or show why they are not."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "rcpolar").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
    }


def setup_sample(name, seed):
    """Seconds from starting a fresh interpreter until the workload is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def setup_samples(name, seed):
    """SETUP_SAMPLES set-up times, each as wall and scaled seconds."""
    import speed
    samples = []
    before = speed.imports(ROOT)
    for _ in range(SETUP_SAMPLES):
        wall = setup_sample(name, seed)
        after = speed.imports(ROOT)
        samples.append({"seconds": wall, "imports_s": (before + after) / 2,
                        "scaled_s": speed.scaled(
                            wall, before, after, speed.IMPORTS_REFERENCE_S)})
        before = after
    return samples


class Runner:
    """Runs one workload's operations and keeps a record of each."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.ops = []        # dicts: seed, traced, seconds, scaled_s, ...
        self._outputs = {}   # seed -> outputs of the first op at that seed
        self._kernel_s = None  # the last speed-kernel pass

    def op_seed(self):
        default = self.workload.default_seed
        return self.seed if default is None or self.ops else default

    def run_op(self, traced=False):
        """Run one operation between two passes of the speed kernel."""
        import speed
        if self._kernel_s is None:
            self._kernel_s = speed.kernel()
        record = self._run_op(traced)
        after = speed.kernel()
        record["kernel_s"] = (self._kernel_s + after) / 2
        record["scaled_s"] = speed.scaled(record["seconds"], self._kernel_s,
                                          after)
        self._kernel_s = after
        return record

    def _run_op(self, traced):
        seed = self.op_seed()
        record = {"seed": seed, "traced": traced}
        start = time.perf_counter()
        try:
            outputs = self.workload.op(seed)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            record["seconds"] = time.perf_counter() - start
            record["problems"] = [f"{type(exc).__name__}: {exc}"]
            self.ops.append(record)
            return record
        record["seconds"] = time.perf_counter() - start
        problems = self.workload.check(outputs, seed)
        first = self._outputs.setdefault(seed, outputs)
        if outputs != first:
            problems.append("outputs differ from the first operation at "
                            "the same seed")
        record["digest"] = _digest(outputs)
        record["problems"] = problems
        self.ops.append(record)
        return record

    def seconds(self, traced, key="scaled_s"):
        return [op[key] for op in self.ops if op["traced"] == traced]

    def summary(self):
        failed = sum(1 for op in self.ops if op["problems"])
        digests = sorted({op["digest"] for op in self.ops
                          if op["seed"] == self.seed and "digest" in op})
        return {"attempted": len(self.ops), "failed": failed,
                "digest": digests[0] if len(digests) == 1 else digests}


def timed_run(runner, seconds):
    """End-to-end metrics: closed loop of untraced operations."""
    import spans
    spans.check_untraced()
    start = time.monotonic()
    peak_kib = None
    while True:
        runner.run_op()
        # One operation in a fresh process is what a user of the CLI runs;
        # later operations only add allocator history.
        peak_kib = peak_kib or resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        times = runner.seconds(False, "seconds")
        elapsed = time.monotonic() - start
        if len(times) >= 2 and elapsed + statistics.median(times) > seconds:
            break
    op_s = statistics.median(runner.seconds(False))
    return {"op_s": (op_s, "s"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB")}, {}


def traced_run(runner, seconds, spans_path):
    """Per-layer metrics: untraced and traced operations, alternating."""
    import spans
    tracer = spans.Tracer()
    start = time.monotonic()
    runner.run_op()                       # untraced; pinned seed if any
    ranges = []
    while True:
        tracer.install()
        lo = len(tracer.spans)
        pair_start = time.monotonic()
        runner.run_op(traced=True)
        ranges.append((lo, len(tracer.spans)))
        tracer.remove()                   # raises if a wrapper is left
        runner.run_op()
        pair = time.monotonic() - pair_start
        if time.monotonic() - start + pair > seconds:
            break

    per_op = [spans.layer_totals(tracer.spans, lo, hi) for lo, hi in ranges]
    metrics = {}
    for name in spans.SPAN_NAMES:
        # Counts repeat exactly from one operation to the next.
        calls = statistics.median_low([t[name]["calls"] for t in per_op])
        self_s = statistics.median([t[name]["self_s"] for t in per_op])
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name == "codec.sc_decode":
            words = statistics.median_low([t[name]["words"] for t in per_op])
            metrics[f"{name}.words"] = (words, "count")
            metrics[f"{name}.us_per_word"] = (
                1e6 * self_s / words if words else 0.0, "us")
    traced = statistics.median(runner.seconds(True))
    untraced = statistics.median(runner.seconds(False))
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    extra = {"traced_op_s": traced, "untraced_op_s": untraced,
             "traced_calls_repeat": all(
                 [t[n]["calls"] for n in spans.SPAN_NAMES]
                 == [per_op[0][n]["calls"] for n in spans.SPAN_NAMES]
                 for t in per_op)}
    tracer.write(spans_path, {"ranges": ranges})
    return metrics, extra


def run(name, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result line, record)."""
    import speed
    from workloads import WORKLOADS
    load_start = os.getloadavg()
    workload = WORKLOADS[name](size)
    setup = [] if trace else setup_samples(name, seed)
    tag = f"{name}-seed{seed}-trace{trace}" + ("" if size == "full" else
                                               f"-{size}")
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(work)
        runner = Runner(workload, seed)
        if trace:
            metrics, extra = traced_run(runner, seconds,
                                        OUT / f"{tag}.spans.jsonl")
        else:
            metrics, extra = timed_run(runner, seconds)
            metrics["setup_s"] = (statistics.median(
                s["scaled_s"] for s in setup), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = runner.summary()
    op_wall_s = statistics.median(runner.seconds(False, "seconds"))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "environment": environment(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "setup_samples_s": setup,
        "ops": runner.ops,
        "digest": summary["digest"],
        "fail_frac": summary["failed"] / summary["attempted"],
        "units_per_op": workload.units_per_op,
        "unit": workload.unit,
        "op_wall_s": op_wall_s,
        "kernel_s": statistics.median(runner.seconds(False, "kernel_s")),
        "reference_s": speed.REFERENCE_S,
        "units_per_s": workload.units_per_op / op_wall_s,
        **extra,
    }
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def smoke():
    """Self-test at tiny sizes; returns the number of failed checks."""
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0

    def check(ok, what):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    check(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
          "workload names match BENCHMARK.json")
    for name, cls in WORKLOADS.items():
        layer = {}
        for trace in (0, 1):
            result, _ = run(name, 1, 0, trace, size="smoke")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want[trace],
                  f"{name} trace={trace}: metric names and units match")
            check(result["correct"],
                  f"{name} trace={trace}: outputs correct")
            layer.update({k: v["value"] for k, v in result["metrics"].items()})
        called = {n.rsplit(".", 1)[0] for n in layer
                  if n.endswith(".calls") and layer[n] > 0}
        check(called == set(cls.layers),
              f"{name}: spans reached {sorted(called ^ set(cls.layers))} "
              f"differ from the listed layers" if called != set(cls.layers)
              else f"{name}: exactly the listed layers are reached")
        self_s = {n[:-len(".self_s")]: v for n, v in layer.items()
                  if n.endswith(".self_s") and not n.startswith("trace.")}
        top = max(self_s, key=self_s.get)
        if name == "design":
            check(top == "reliability.check_mean_update",
                  f"design: largest self time is {top} "
                  "(seed profile: reliability.check_mean_update)")
        elif name == "campaign":
            check(top == "codec.sc_decode",
                  f"campaign: largest self time is {top} "
                  "(seed profile: codec.sc_decode)")
        elif name == "bler-short":
            sampling = sum(v for n, v in self_s.items()
                           if n.startswith(("channel.", "simulate.")))
            codec = sum(v for n, v in self_s.items()
                        if n.startswith("codec."))
            check(sampling > codec,
                  f"bler-short: channel+simulate {sampling:.3f}s vs codec "
                  f"{codec:.3f}s (seed profile: sampling exceeds codec)")
    return failures


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Randomised string hashing reorders sets and dicts from one process
        # to the next, and that moves the allocator's peak RSS by up to 20%.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at a tiny size")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS
    if args.smoke:
        OUT.mkdir(exist_ok=True)
        return 1 if smoke() else 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        work = OUT / f"setup-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            WORKLOADS[args.workload]("full").prepare(work)
            print(time.monotonic())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    OUT.mkdir(exist_ok=True)
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
