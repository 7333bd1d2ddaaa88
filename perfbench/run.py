"""advlab benchmark: one command for four workloads.

    python3 perfbench/run.py --workload {train,attack,roi,defend} \
        --seed N --seconds S --trace {0,1}

Run from the root of an advlab checkout; the program is imported from
its `src/` directory. Each run sets its inputs up, then runs closed-loop
passes of the workload for about S seconds (at least one pass) and checks
the outputs of every pass.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end ones (BENCHMARK.json `end_to_end`); the lines
before it print every metric under its workload-specific name with unit
and sample count, plus the machine and BLAS settings. With --trace 1 the
run alternates untraced and traced passes and reports the per-layer
metrics (BENCHMARK.json `per_layer`) from the traced ones; spans are
kept in memory and written to .bench_build/perfbench/traces/ at the end.

Exit status is 0 when every output check passed, 1 when one failed, and
non-zero without a result when the program cannot be imported.
"""

import os

# BLAS and OpenMP threads are pinned before numpy is imported, so every
# run measures the same single-threaded program on any core count.
THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("train", "attack", "roi", "defend")
# Set-ups timed before the passes and again after them, so that the
# median spans the run rather than one moment of a host whose speed
# drifts; about 0.2 s each for the experiments, 3 s for roi.
SETUP_REPEATS = {"train": 6, "attack": 6, "defend": 6, "roi": 1}
SELF_TIME_TOLERANCE = 0.01  # per-module self times must sum to the clocked traced pass within 1%

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("fidelity", "ratio"),
    ("ok_ratio", "ratio"),
)
# What the throughput and fidelity are called in each workload.
ITEMS_NAME = {
    "train": "train_samples_per_s",
    "attack": "adv_examples_per_s",
    "roi": "roi_masks_per_s",
    "defend": "attacked_evals_per_s",
}
FIDELITY_NAME = {
    "train": "clean_accuracy",
    "attack": "attack_success_rate",
    "roi": "roi_iou",
    "defend": "defended_clean_accuracy",
}


def import_program():
    """Import advlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "advlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no advlab sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import advlab

    if Path(advlab.__file__).resolve().parent != SRC / "advlab":
        sys.exit(f"perfbench: imported advlab from {advlab.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_setup(name: str, seed: int, workdir: Path, tiny: bool) -> list[float]:
    """Set-up times: a fresh interpreter imports advlab and makes the
    workload's inputs. Each is the CPU time the child spends from its
    first statement on, so neither interpreter start-up nor time spent
    waiting for other processes on a shared host is counted."""
    code = (
        "import time; t0 = time.process_time(); "
        f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; import workloads; "
        f"workloads.prepare({name!r}, {seed}, {str(workdir)!r}, {tiny}); "
        "print(time.process_time() - t0)"
    )
    times = []
    for _ in range(SETUP_REPEATS[name]):
        child = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        times.append(float(child.stdout.split()[-1]))
    return times


def closed_loop(step, seconds: float) -> None:
    """Call step() until the next call would end after `seconds`; at least once."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q)) if values else None


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, out=None) -> int:
    out = out or sys.stdout
    import_program()
    import layers
    import workloads
    from tracer import Tracer

    workdir = BUILD / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        if trace:
            layers.instrument(tracer)
            tracer.enabled, tracer.pass_id = True, "setup"
            try:
                workloads.prepare(name, seed, str(workdir), tiny)
            finally:
                tracer.enabled = False
                tracer.restore()
            setup_times = []
        else:
            setup_times = time_setup(name, seed, workdir, tiny)
        wl = workloads.make(name, seed, workdir, tiny)
        plain, traced = [], []

        def step():
            plain.append(wl.run_pass(tracer, time.perf_counter))
            if trace:
                layers.instrument(tracer)
                tracer.enabled, tracer.pass_id = True, f"pass{len(traced)}"
                try:
                    traced.append(wl.run_pass(tracer, time.perf_counter))
                finally:
                    tracer.enabled = False
                    tracer.restore()

        closed_loop(step, seconds)
        if not trace:
            setup_times += time_setup(name, seed, workdir, tiny)
        final = wl.final_checks()
        # Fidelity numbers are deterministic per seed: every pass must agree.
        fidelities = [r.fidelity for r in plain + traced if r.complete]
        workloads.check(final, bool(fidelities), "no pass completed")
        workloads.check(final, all(f == fidelities[0] for f in fidelities), "fidelity differs between passes")
        per_pass = []
        for k, r in enumerate(traced):
            if r.complete:
                per_pass.append(layers.pass_metrics(tracer, f"pass{k}", r.fidelity))
                gap = layers.self_time_gap(per_pass[-1], r.wall)
                workloads.check(
                    final, gap <= SELF_TIME_TOLERANCE, f"traced pass {k}: module self times miss its wall by {gap:.2%}"
                )
                bad = layers.unnested_spans(tracer, f"pass{k}")
                workloads.check(final, not bad, f"traced pass {k}: {len(bad)} spans open or unnested, e.g. {bad[:3]}")
        results = plain + traced + [final]
        attempted = sum(r.ops + r.checks for r in results)
        failures = [m for r in results for m in r.failures]
        violations = [m for r in results for m in r.violations]
        print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}", file=out)
        print("env " + json.dumps(environment(), sort_keys=True), file=out)
        for message in failures:
            print(f"FAILED  {message}", file=out)
        for message in violations:
            print(f"CHECK FAILED  {message}", file=out)
        if trace:
            metrics = traced_metrics(name, tracer, plain, per_pass, out)
        else:
            metrics = end_to_end_metrics(name, wl, setup_times, plain, attempted, len(failures) + len(violations), out)
        result = {
            "correct": not violations,
            "attempted": attempted,
            "failed": len(failures) + len(violations),
            "metrics": metrics,
        }
        print(json.dumps(result), file=out)
        return 1 if violations else 0
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(name, wl, setup_times, plain, attempted, failed, out) -> dict:
    done = [r for r in plain if r.complete]
    walls = [r.wall for r in done]
    fidelity = done[-1].fidelity if done else {}
    values = {
        "setup_s": _median(setup_times),
        "wall_s": _median(walls),
        "items_per_s": _median([wl.items() / w for w in walls]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fidelity": fidelity.get(FIDELITY_NAME[name]),
        "ok_ratio": 1.0 - failed / attempted,
    }
    n = len(walls)
    lines = [
        ("setup_s", values["setup_s"], "s", f"median of {len(setup_times)} set-ups, CPU time after start-up"),
        ("wall_s", values["wall_s"], "s", f"median of {n} passes"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "whole run"),
        ("error_rate", 1.0 - values["ok_ratio"], "ratio", f"{failed} of {attempted} calls and checks"),
        (ITEMS_NAME[name], values["items_per_s"], "1/s", f"median of {n} passes, {wl.items()} per pass"),
    ]
    if name == "roi":
        lat = [ms for r in done for ms in r.latencies_ms]
        lines += [
            ("roi_ms_p50", _percentile(lat, 50), "ms", f"{len(lat)} calls"),
            ("roi_ms_p99", _percentile(lat, 99), "ms", f"{len(lat)} calls"),
        ]
    for key in ("clean_accuracy", "attack_success_rate", "roi_iou", "defended_clean_accuracy"):
        if key in fidelity:
            lines.append((key, fidelity[key], "ratio", "deterministic per seed"))
    for key, value, unit, note in lines:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {key:<26} {shown:>12} {unit:<6} {note}", file=out)
    units = dict(END_TO_END)
    return {k: {"value": float(v if v is not None else 0.0), "unit": units[k]} for k, v in values.items()}


def traced_metrics(name, tracer, plain, per_pass, out) -> dict:
    """Medians over the traced passes of every per-layer metric."""
    import layers

    setup = layers.pass_metrics(tracer, "setup", {}) if any(s.pass_id == "setup" for s in tracer.spans) else {}
    plain_wall = _median([r.wall for r in plain if r.complete])
    metrics = {}
    print(f"  per-layer medians over {len(per_pass)} traced passes", file=out)
    for key, unit, _ in layers.PER_LAYER:
        if key == "trace.overhead_s":
            traced_wall = _median([m["trace.wall_s"] for m in per_pass])
            value = traced_wall - plain_wall if traced_wall is not None and plain_wall is not None else None
        else:
            value = _median([m.get(key) for m in per_pass])
            if value is None and key.startswith("bench.synth"):
                value = setup.get(key)  # `roi` synthesises its dataset during set-up
        if value is None:
            span = layers.source_span(key)
            missing = tracer.missing.get(span)
            if missing:
                reason = f"wrapped name missing: {', '.join(missing)}"
            else:
                reason = f"no {span} spans in {name}" if span else f"no defence rows in {name}"
            print(f"  {key:<44} {'absent':>12} {unit:<8} {reason}", file=out)
        else:
            print(f"  {key:<44} {value:>12.6g} {unit:<8}", file=out)
        metrics[key] = {"value": float(value if value is not None else 0.0), "unit": unit}
    wall = metrics["trace.wall_s"]["value"]
    if wall:
        shares = ", ".join(f"{m} {metrics[f'{m}.self_s']['value'] / wall:.1%}" for m in layers.MODULES)
        print(f"  self-time shares of trace.wall_s: {shares}", file=out)
    write_spans(name, tracer)
    return metrics


def write_spans(name: str, tracer) -> None:
    path = BUILD / "traces" / f"{name}-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in tracer.spans:
            record = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "pass": s.pass_id}
            if s.error:
                record["error"] = s.error
            fh.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="advlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the development seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
