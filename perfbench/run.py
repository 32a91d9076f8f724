#!/usr/bin/env python3
"""End-to-end benchmark of the infoflow CLI, with per-layer spans.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json. For each workload the
benchmark writes seeded inputs (``inputs.py``, in a child process), then
drives ``infoflow.cli.main`` in this process as a closed loop: one client,
one invocation at a time, passes over the workload's invocation list until
``--seconds`` are used. Every output is checked against the numpy reference
in ``oracle.py``, and outputs must repeat byte for byte across passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate; the traced ones wrap the
module boundaries (``tracing.py``) and give the per-layer metrics, and the
difference between the two is reported as the tracing overhead. Each run
writes a record (machine, versions, input sizes, samples, metrics) and, when
traced, its spans under ``.bench_runs/`` in the checkout.
"""

import os

# Pinned before numpy loads: OpenBLAS otherwise starts one thread per core and
# process CPU time exceeds wall time.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
os.environ.pop("INFOFLOW_SEED", None)  # the CLI's default seed must not leak in

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # fresh-interpreter start-ups per run, at least
SETUP_EDGE = 3  # of which this many at the start and at least this many at the end
MIN_ROUNDS = 2  # byte-identity across passes needs at least two
KERNEL_STEPS = 200_000
KERNEL_REPEATS = 3
DIGITS_CAP = 2.0**-52  # ref_digits saturates at double precision


@dataclass
class Book:
    """Failure accounting and the first-pass verdict of each invocation."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    devs: list = field(default_factory=list)
    first: dict = field(default_factory=dict)


@dataclass
class Sample:
    wall: float
    cpu: float
    output_bytes: int
    traced: bool = False
    first_span: int = 0
    last_span: int = 0
    counts: dict = field(default_factory=dict)


def _fingerprint(inv, res) -> str:
    h = hashlib.sha256(f"{res.rc}\0{res.stdout}\0{res.stderr}".encode())
    for path in inv.outputs:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"\0missing")
    return h.hexdigest()


def verify(inv, res, book: Book) -> None:
    """Full oracle on an invocation's first run; byte identity with it afterwards."""
    book.attempted += 1
    digest = _fingerprint(inv, res)
    if inv.name not in book.first:
        try:
            errors, devs = inv.check(res)
        except Exception as exc:  # a malformed output must count as a failure, not end the run
            errors, devs = [f"check raised {type(exc).__name__}: {exc}"], []
        book.devs.extend(devs)
        book.first[inv.name] = (digest, errors)
    else:
        first_digest, first_errors = book.first[inv.name]
        errors = list(first_errors)
        if digest != first_digest:
            errors.append("output differs from the first pass")
    if errors:
        book.failed += 1
        book.errors.append(f"{inv.name}: {errors[0]}")


def invoke(cli, inv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.call(cli.main, inv.argv) if tracer else cli.main(inv.argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash in the program is a failed invocation, not a failed run
            rc = -1
            err.write(traceback.format_exc())
    return workloads.Result(rc, out.getvalue(), err.getvalue())


def run_pass(cli, invocations, book: Book, tracer=None) -> Sample:
    first_span, counts0 = tracer.snapshot() if tracer else (0, {})
    t0, c0 = time.perf_counter(), time.process_time()
    results = [invoke(cli, inv, tracer) for inv in invocations]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    sample = Sample(wall, cpu, 0, traced=tracer is not None)
    if tracer:
        last_span, counts1 = tracer.snapshot()
        sample.first_span, sample.last_span = first_span, last_span
        sample.counts = {k: v - counts0.get(k, 0) for k, v in counts1.items()}
    for inv, res in zip(invocations, results):
        verify(inv, res, book)
        sample.output_bytes += len(res.stdout.encode()) + len(res.stderr.encode())
        sample.output_bytes += sum(os.path.getsize(p) for p in inv.outputs if os.path.exists(p))
    return sample


class StartupTimer:
    """Wall times of a fresh `python -m infoflow.cli --version`.

    Every real CLI call pays this interpreter, numpy and infoflow start-up.
    The machine's speed drifts over seconds, so the samples are spread over
    the run: some at the start, one before each round of passes, the rest at
    the end. The first start-up only warms the file cache and is discarded.
    """

    def __init__(self, env: dict):
        self.env = env
        self.samples: list[float] = []
        self._once()

    def _once(self) -> float:
        cmd = [sys.executable, "-m", "infoflow.cli", "--version"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith("infoflow "):
            raise RuntimeError(f"`{' '.join(cmd)}` failed: {proc.stderr.strip()[-300:]}")
        return elapsed

    def sample(self, n: int = 1) -> None:
        self.samples += [self._once() for _ in range(n)]


def measure(cli, plan, seconds: float, book: Book, startup: StartupTimer, tracer=None) -> list[Sample]:
    """Closed loop over the pass until the next round would overrun `seconds`.

    With a tracer each round is one untraced and one traced pass, in
    alternating order, traced first so that the memory probe sees the first
    parse of the run.
    """
    samples = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        startup.sample()
        order = [None] if tracer is None else ([tracer, None] if rounds % 2 == 0 else [None, tracer])
        for tr in order:
            if tr is None:
                samples.append(run_pass(cli, plan.timed, book))
            else:
                with tr.installed():
                    samples.append(run_pass(cli, plan.timed, book, tr))
        rounds += 1
        elapsed = time.perf_counter() - begin
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return samples


def bench_kernels(kernels) -> tuple[dict, bool | None]:
    """Steps per second of every available Euler kernel on one fixed path.

    Times each backend with ``bench`` from benchmarks/bench_kernels.py on its
    seed-0 increments, and checks bit identity when more than one backend exists.
    """
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_kernels import bench

    dw = np.random.default_rng(0).standard_normal((KERNEL_STEPS, 2)) * math.sqrt(1e-3)
    dw1, dw2 = np.ascontiguousarray(dw[:, 0]), np.ascontiguousarray(dw[:, 1])
    rates, paths = {}, {}
    for name, fn in kernels.available_backends().items():
        best, out1, out2 = bench(fn, dw1, dw2, KERNEL_REPEATS)
        rates[name] = KERNEL_STEPS / best
        paths[name] = (out1, out2)
    if len(paths) < 2:
        return rates, None
    ref1, ref2 = next(iter(paths.values()))
    return rates, all(np.array_equal(a, ref1) and np.array_equal(b, ref2) for a, b in paths.values())


def layer_metrics(sample: Sample, spans: list) -> dict:
    self_s, total_s, calls = tracing.self_times(spans, sample.first_span, sample.last_span)
    c = sample.counts

    def per_s(count: float, layer: str) -> float:
        return count / total_s[layer] if total_s.get(layer, 0.0) > 0 else 0.0

    draws = c.get("estimator.bootstrap.draws", 0)
    return {
        "series.load_csv_s": self_s["series.load_csv"],
        "series.load_csv_mb_per_s": per_s(c.get("series.load_csv.bytes", 0) / 1e6, "series.load_csv"),
        "series.align_s": self_s["series.align"],
        "series.subsample_s": self_s["series.subsample"],
        "simulator.window_s": self_s["simulator.window"],
        "estimator.covariances_s": self_s["estimator.covariances"],
        "estimator.fit_mle_s": self_s["estimator.fit_mle"],
        "estimator.fisher_ci_s": self_s["estimator.fisher_ci"],
        "estimator.flow_s": self_s["estimator.flow"],
        "estimator.calls": sum(n for name, n in calls.items() if name.startswith("estimator.")),
        "estimator.bootstrap_ci_s": self_s["estimator.bootstrap_ci"],
        "estimator.bootstrap_resamples_per_s": per_s(draws, "estimator.bootstrap_ci"),
        "estimator.bootstrap_accept_ratio": c["estimator.bootstrap.accepted"] / draws if draws else 0.0,
        "fieldmap.load_grid_s": self_s["fieldmap.load_grid"],
        "fieldmap.load_grid_mb_per_s": per_s(c.get("fieldmap.load_grid.bytes", 0) / 1e6, "fieldmap.load_grid"),
        "fieldmap.map_flows_s": self_s["fieldmap.map_flows"],
        "fieldmap.cells_per_s": per_s(c.get("fieldmap.cells", 0), "fieldmap.map_flows"),
        "fieldmap.cells_dropped": c.get("fieldmap.cells_dropped", 0),
        "fieldmap.write_flow_maps_s": self_s["fieldmap.write_flow_maps"],
        "simulator.simulate_s": self_s["simulator.simulate"],
        "simulator.steps_per_s": per_s(c.get("simulator.steps", 0), "simulator.simulate"),
        "theory.integrate_moments_s": self_s["theory.integrate_moments"],
        "theory.steps_per_s": per_s(c.get("theory.steps", 0), "theory.integrate_moments"),
        "theory.stationary_covariance_s": self_s["theory.stationary_covariance"],
        "validate.run_validation_s": self_s["validate.run_validation"],
        "validate.bands_failed": c.get("validate.bands_failed", 0),
        "cli.self_s": self_s[tracing.ROOT_SPAN],
        "cli.output_bytes": sample.output_bytes,
        "trace.coverage": total_s[tracing.ROOT_SPAN] / sample.wall,
    }


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_sha() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, kernels, inputs_sizes: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "git_sha": _git_sha(),
        "thread_pins": THREAD_PINS,
        "infoflow_pure_python": os.environ.get("INFOFLOW_PURE_PYTHON"),
        "loop": "closed, 1 client, 1 invocation at a time, in-process",
        "inputs": inputs_sizes,
    }


def prepare(args, work: Path):
    """Write the seeded inputs in a child process; build the plan and its references."""
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(work)],
        check=True,
        timeout=600,
    )
    with np.load(work / "arrays.npz") as npz:
        arrays = {key: npz[key] for key in npz.files}
    sizes = json.loads((work / "sizes.json").read_text())
    return workloads.WORKLOADS[args.workload](str(work), args.seed, arrays), sizes


def per_layer(samples: list[Sample], tracer, kernels, book: Book) -> tuple[dict, dict]:
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    per_sample = [layer_metrics(s, tracer.spans) for s in traced]
    metrics = {key: statistics.median(m[key] for m in per_sample) for key in per_sample[0]}
    rates, identical = bench_kernels(kernels)
    if identical is not None:
        book.attempted += 1
        if not identical:
            book.failed += 1
            book.errors.append("kernels: backends are not bit-identical")
    metrics["kernels.euler_steps_per_s"] = rates[kernels.BACKEND]
    metrics["fieldmap.load_grid_peak_mb"] = tracer.peak_mb["fieldmap.load_grid"]
    metrics["trace.run_s"] = statistics.median(s.wall for s in traced)
    # paired within each round, so that drift in machine speed cancels
    metrics["trace.overhead_s"] = statistics.median(t.wall - u.wall for u, t in zip(plain, traced))
    return metrics, {"steps_per_s": rates, "bit_identical": identical, "steps": KERNEL_STEPS}


def end_to_end(samples: list[Sample], setup: list[float], values: int, book: Book) -> dict:
    # The mean, not the median, of a run's passes: on a shared virtual machine
    # a vCPU can switch between a fast and a slow state every few seconds, so
    # pass times are bimodal and the median of a few passes jumps between modes.
    run_s = statistics.fmean(s.wall for s in samples)
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "cpu_s": statistics.fmean(s.cpu for s in samples),
        "values_per_s": values / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (book.attempted - book.failed) / book.attempted,
        "ref_digits": -math.log10(max(max(book.devs, default=0.0), DIGITS_CAP)),
    }


def run(args, work: Path, spec: dict) -> dict:
    from infoflow import cli, kernels

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    startup = StartupTimer(env)
    startup.sample(SETUP_EDGE)
    plan, sizes = prepare(args, work)

    book = Book()
    for inv in plan.once:
        verify(inv, invoke(cli, inv, None), book)
    tracer = tracing.Tracer() if args.trace else None
    samples = measure(cli, plan, args.seconds, book, startup, tracer)
    startup.sample(max(SETUP_EDGE, SETUP_SAMPLES - len(startup.samples)))
    plain = [s for s in samples if not s.traced]
    values = sum(inv.values for inv in plan.timed)
    if tracer:
        metrics, kernel_info = per_layer(samples, tracer, kernels, book)
    else:
        metrics, kernel_info = end_to_end(plain, startup.samples, values, book), None

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(set(units) ^ set(metrics))}")
    walls = [s.wall for s in plain]
    q = tail_percentile(len(walls))
    tail = {"percentile": q, "run_s": float(np.percentile(walls, q))} if q is not None else None
    max_dev = max(book.devs, default=0.0)
    record = run_record(args, kernels, sizes)
    record.update(
        {
            "values_per_pass": values,
            "passes": len(plain),
            "run_s_samples": walls,
            "run_s_tail": tail,
            "cpu_s_samples": [s.cpu for s in plain],
            "traced_run_s_samples": [s.wall for s in samples if s.traced],
            "setup_s_samples": startup.samples,
            "max_rel_dev": max_dev,
            "kernels": kernel_info,
            "errors": book.errors,
            "metrics": metrics,
        }
    )
    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracing.write_spans(str(out_dir / f"{stem}-spans.txt"), tracer.spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    tail_text = (
        f"p{q:g} {tail['run_s']:.4g} s" if tail else "no tail percentile: fewer than 20 samples"
    )
    report = [
        f"{args.workload} seed={args.seed} trace={args.trace} backend={kernels.BACKEND}",
        f"pass time over {len(walls)} passes: mean {statistics.fmean(walls):.4g} s, "
        f"median {statistics.median(walls):.4g} s, {tail_text}; max_rel_dev={max_dev:.3g}",
    ]
    report += [f"  {name:40s} {metrics[name]:>14.6g} {unit}" for name, unit in units.items()]
    report += [f"  FAILED {e}" for e in book.errors]
    print("\n".join(report), file=sys.stderr)
    return {
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "infoflow" / "cli.py").is_file():
        print(f"error: no infoflow sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import infoflow

    if not Path(infoflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported infoflow from {infoflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
