"""Cost of a whole-set inference forward per row block, and of the gradient passes after it.

    python3 benchmarks/block_sweep.py --rows 400 --repeats 3

Builds `blob_cnn` x0.75 at 32x32 (the perfbench network) and, for each
block size from 8 to 256 rows, starts a fresh process that sets
`advlab.gradnet.network.FORWARD_BLOCK`, scores `rows` random images with
`Network.forward` three times, then takes `input_gradient` over the same
rows in `ATTACK_CHUNK`-row chunks, as training and attacks do after an
evaluation. Each block gets its own process because the allocator's
state carries over: glibc raises its mmap threshold to the largest block
it has freed, so after one large forward every later allocation of a
smaller size comes from the heap instead of fresh, zero-filled pages.
Block sizes take turns within every repeat, so drift on the host spreads
over all of them.

One markdown row per block: the median time per row of the forward and
of the gradient pass, the minor page faults of the gradient pass, the
tracemalloc peaks of one forward over the set and of one
`ATTACK_CHUNK`-row `input_gradient` and `param_gradients` (inputs are
allocated before tracing starts), and the process's peak RSS. BLAS runs
on one thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

BLOCKS = (8, 16, 24, 32, 48, 64, 128, 256)


def measure(block: int, rows: int) -> dict:
    """One block size, measured in this process."""
    import numpy as np

    from advlab.attacks import ATTACK_CHUNK
    from advlab.bench import network_specs
    from advlab.gradnet import build, network

    network.FORWARD_BLOCK = block
    specs, shape = network_specs("blob_cnn", 32, 0.75)
    net = build(specs, shape, seed=0)
    rng = np.random.default_rng(0)
    xs = rng.random((rows, *shape))
    ys = rng.integers(0, 2, rows)

    def faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    start = time.perf_counter()
    for _ in range(3):
        net.forward(xs)
    forward_s = (time.perf_counter() - start) / (3 * rows)
    before, start = faults(), time.perf_counter()
    for i in range(0, rows, ATTACK_CHUNK):
        net.input_gradient(xs[i : i + ATTACK_CHUNK], ys[i : i + ATTACK_CHUNK])
    gradient_s = (time.perf_counter() - start) / rows
    gradient_faults = faults() - before

    def traced_peak_mib(run) -> float:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    chunk = slice(0, ATTACK_CHUNK)
    return {
        "forward_ms_per_row": forward_s * 1e3,
        "gradient_ms_per_row": gradient_s * 1e3,
        "gradient_minor_faults": gradient_faults,
        "traced_peak_mib": traced_peak_mib(lambda: net.forward(xs)),
        "input_gradient_peak_mib": traced_peak_mib(lambda: net.input_gradient(xs[chunk], ys[chunk])),
        "param_gradients_peak_mib": traced_peak_mib(lambda: net.param_gradients(xs[chunk], ys[chunk])),
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)  # measure one block, print JSON
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.rows)))
        return 0

    runs = {b: [] for b in BLOCKS}
    for _ in range(args.repeats):
        for b in BLOCKS:
            cmd = [sys.executable, __file__, "--child", str(b), "--rows", str(args.rows)]
            runs[b].append(json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout))
    print(f"{args.rows} rows, {args.repeats} repeats, nproc {os.cpu_count()}")
    print(
        "| block | forward ms/row | gradient ms/row after | gradient minor faults | traced peak MiB"
        " | input_gradient peak MiB | param_gradients peak MiB | peak RSS MB |"
    )
    print("|---|---|---|---|---|---|---|---|")
    for b, got in runs.items():
        med = {k: statistics.median(r[k] for r in got) for k in got[0]}
        print(
            f"| {b} | {med['forward_ms_per_row']:.3f} | {med['gradient_ms_per_row']:.3f}"
            f" | {med['gradient_minor_faults']:.0f} | {med['traced_peak_mib']:.1f}"
            f" | {med['input_gradient_peak_mib']:.2f} | {med['param_gradients_peak_mib']:.2f}"
            f" | {med['max_rss_mb']:.1f} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
