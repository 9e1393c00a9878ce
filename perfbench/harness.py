"""Benchmark harness: set-up probes, timed passes, checks, metrics, output.

One run measures one workload in this process, a single closed-loop client
that calls ``groupvar.cli.main`` in-process.  With ``--trace 0`` it reports
the end-to-end metrics of one untimed-warm-up, timed pass.  With ``--trace 1``
it repeats the same operation list with spans installed and reports the
per-layer metrics; both passes must write byte-identical files.
"""

from __future__ import annotations

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

from . import spans as spans_mod
from . import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
# CPU speed on the 2-vCPU VMs the benchmark was designed on switches between
# a fast and a 1.6x slower state every few seconds, and the share of slow
# time differs from run to run by more than any code change worth measuring.
# So every operation is bracketed by a fixed calibration kernel (1000 scipy
# expm of a 3x3 skew matrix, the program's own hottest call) and its time is
# rescaled to the kernel's median time on the reference VM (Intel Xeon).
REF_PROBE_S = 0.013
MODULES = tuple(dict.fromkeys(span.split(".")[0] for span, _, _ in spans_mod.SPANS))


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread; call before anything imports numpy."""
    for var in THREAD_PINS:
        os.environ[var] = "1"


def median_with_count(values) -> tuple[float, int]:
    """Median of the samples and how many there were."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def count_failures(outcomes: list[wl.Outcome]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct when no output is wrong."""
    failed = sum(1 for o in outcomes if o.failures)
    return len(outcomes), failed, not any(o.wrong for o in outcomes)


def combined_digest(files: dict[str, str]) -> str:
    """One SHA-256 over a relative-path -> digest map, independent of order."""
    text = "".join(f"{name}\0{files[name]}\n" for name in sorted(files))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
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
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, naming the code in a non-git checkout."""
    files = {str(p.relative_to(src)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(src.rglob("*.py"))}
    return combined_digest(files)


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": _git_commit(),
        "source_sha256": source_digest(ROOT / "src" / "groupvar"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, one client, in-process groupvar.cli.main",
    }


# ---------------------------------------------------------------------------
# set-up


def import_cli():
    """Import ``groupvar.cli`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "groupvar" / "__init__.py").is_file():
        raise FileNotFoundError(f"no groupvar package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import groupvar.cli

    if Path(groupvar.cli.__file__).resolve().parent != src / "groupvar":
        raise ImportError(f"groupvar imported from {groupvar.cli.__file__}")
    groupvar.cli.build_parser()
    return groupvar.cli


def run_operation(cli, op: wl.Operation, out: Path):
    """Run every command of ``op``.

    Returns (seconds, exit codes, console output of each command that
    exited non-zero).
    """
    out.mkdir(parents=True, exist_ok=True)
    exits, messages = [], []
    t0 = time.perf_counter()
    for argv in op.commands(out):
        code, text = wl.run_cli(cli.main, argv)
        exits.append(code)
        if code != 0:
            messages.append(f"{argv[0]}: {text.strip()}")
    return time.perf_counter() - t0, exits, messages


def probe_setup(args) -> int:
    """Set-up probe body: import, build the parser, run the warm-up, report."""
    cli = import_cli()
    work = OUT / f"work-{os.getpid()}"
    try:
        run_operation(cli, wl.warmup_operation(args.workload, args.seed), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ready", flush=True)
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up.

    These are raw wall times: the calibration kernel cannot run before the
    interpreter has imported numpy, so set-up is not rescaled.
    """
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err}")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# passes


def calibration_probe() -> float:
    """Seconds the calibration kernel takes now on this CPU."""
    import numpy as np
    import scipy.linalg

    xi = np.array([[0.0, -0.3, 0.2], [0.3, 0.0, -0.1], [-0.2, 0.1, 0.0]])
    t0 = time.perf_counter()
    for _ in range(1000):
        scipy.linalg.expm(xi)
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """How much slower than the reference the CPU ran around an operation."""
    return (before + after) / (2.0 * REF_PROBE_S)


def run_pass(cli, ops, work: Path, tracer=None) -> dict:
    """Time the fixed operation list; then check and digest its outputs.

    ``op_s`` are raw wall times and ``op_ref_s`` the same times rescaled to
    the reference CPU speed; ``wall_s`` and ``wall_raw_s`` are their sums.
    """
    times, speeds, exits, messages = [], [], [], []
    for op in ops:
        if tracer is not None:
            tracer.op = op.index
        before = calibration_probe()
        seconds, codes, text = run_operation(cli, op, work / f"op{op.index:03d}")
        speeds.append(speed_factor(before, calibration_probe()))
        times.append(seconds)
        exits.append(codes)
        messages.append(text)
    ref_times = [t / f for t, f in zip(times, speeds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes, digests, descent, newton, written = [], [], 0, 0, 0
    for op, codes in zip(ops, exits):
        out = work / f"op{op.index:03d}"
        outcomes.append(wl.check_operation(op, out, codes))
        digests.append(wl.digests(out))
        d, k = wl.solver_phases(out)
        descent += d
        newton += k
        written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"wall_s": sum(ref_times), "wall_raw_s": sum(times), "op_s": times,
            "op_ref_s": ref_times, "speed": speeds, "exits": exits,
            "messages": messages,
            "outcomes": outcomes, "digests": digests, "peak_rss_mb": peak_rss_mb,
            "descent_iterations": descent, "newton_steps": newton,
            "bytes_written": written}


def layer_metrics(tracer, missing, plain: dict, traced: dict) -> dict:
    stats = spans_mod.layer_stats(tracer.span_names(), tracer.starts,
                                  tracer.ends, tracer.parents)
    metrics = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for span, _, _ in spans_mod.SPANS:
        if span in missing:
            continue
        entry = stats.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{span}.calls"] = (entry["calls"], "count")
        metrics[f"{span}.s"] = (entry["s"], "s")
        metrics[f"{span}.self_s"] = (entry["self_s"], "s")
        module_self[span.split(".")[0]] += entry["self_s"]
    for module, seconds in module_self.items():
        metrics[f"share.{module}"] = (seconds / traced["wall_raw_s"], "1")
    metrics["harmonic.descent_iterations"] = (traced["descent_iterations"], "count")
    metrics["harmonic.newton_steps"] = (traced["newton_steps"], "count")
    metrics["serialization.bytes_written"] = (traced["bytes_written"], "B")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "1")
    metrics["raw.wall_s"] = (plain["wall_raw_s"], "s")
    metrics["raw.op_p50_s"] = (statistics.median(plain["op_s"]), "s")
    metrics["calib.speed_factor"] = (statistics.median(plain["speed"]), "1")
    metrics["trace.missing_spans"] = (len(missing), "count")
    return metrics


def write_spans(tracer, path: Path) -> None:
    """Spans as numpy columns; ``name`` and ``parent`` index ``names`` and rows."""
    import numpy as np

    np.savez(path, names=np.array(tracer.names),
             name=np.frombuffer(tracer.name_ids, dtype=np.int32),
             start=np.frombuffer(tracer.starts), end=np.frombuffer(tracer.ends),
             parent=np.frombuffer(tracer.parents, dtype=np.int32),
             op=np.frombuffer(tracer.ops, dtype=np.int32))


# ---------------------------------------------------------------------------
# entry


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return probe_setup(args)

    cli = import_cli()
    setup = [] if args.trace else measure_setup(args)
    ops = wl.operations(args.workload, args.seed, args.seconds)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run_operation(cli, wl.warmup_operation(args.workload, args.seed),
                      work / "warmup")
        plain = run_pass(cli, ops, work / "plain")
        traced = tracer = None
        missing: list[str] = []
        if args.trace:
            tracer = spans_mod.Tracer()
            restore, missing = spans_mod.install(tracer)
            try:
                traced = run_pass(cli, ops, work / "traced", tracer)
            finally:
                spans_mod.uninstall(restore)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = plain["outcomes"]
    if traced is not None:
        for outcome, a, b in zip(outcomes, plain["digests"], traced["digests"]):
            if a != b:
                outcome.fail("traced outputs differ from untraced outputs", wrong=True)
    attempted, failed, correct = count_failures(outcomes)
    op_p50, samples = median_with_count(plain["op_ref_s"])

    if args.trace:
        metrics = layer_metrics(tracer, missing, plain, traced)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (plain["wall_s"], "s"),
            "op_p50_s": (op_p50, "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MiB"),
            "pass_ratio": ((attempted - failed) / attempted, "1"),
        }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "operations": [
            {"index": op.index, "commands": op.commands(Path("OUT")),
             "seconds": t, "speed_factor": f, "exits": e, "messages": m,
             "failures": o.failures, "wrong": o.wrong,
             "sha256": combined_digest(d), "files": d}
            for op, t, f, e, m, o, d in zip(ops, plain["op_s"], plain["speed"],
                                            plain["exits"], plain["messages"],
                                            outcomes, plain["digests"])],
        "wall_raw_s": plain["wall_raw_s"],
        "setup_samples_s": setup,
        "op_samples": samples,
        "fail_ratio": failed / attempted,
        "missing_spans": missing,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        write_spans(tracer, OUT / f"{args.workload}-spans.npz")

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['git_commit']} src={env['source_sha256'][:12]}")
    print(f"operations: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted!r} op_p50_s over {samples} samples")
    print(f"raw wall time {plain['wall_raw_s']:.3f} s, median CPU speed factor "
          f"{statistics.median(plain['speed']):.3f} (times below are rescaled to "
          f"reference speed)")
    for op, outcome, texts in zip(ops, outcomes, plain["messages"]):
        for reason in outcome.failures:
            tag = "WRONG" if reason in outcome.wrong else "FAILED"
            print(f"{tag} op {op.index} seed {op.seed}: {reason}")
        for text in texts if outcome.failures else []:
            print(f"  {text.splitlines()[-1]}")
    if missing:
        print(f"missing spans: {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"details: {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
