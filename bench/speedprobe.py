"""
Speed probe: a fixed kernel that times how fast the machine runs right now.

The reference machine is shared with other tenants. Its speed drifts by
up to ~45% in phases of seconds to minutes, on CPU time as much as on
wall time, and the last level cache and memory bandwidth are contended
separately from the cores. run.py starts one probe process per run and
asks it for one pass of the kernel before the first operation and after
each one. The probe's mean pass time over the run, against
``REFERENCE_S``, gives the run's speed factor.

The kernel's inputs are fixed (not the workload seed) and it calls no
pstarann code, so only the machine moves it, never the program. Its
parts mirror what the program spends its time on:

- a dense symmetric eigenvalue problem that fits in the last level
  cache (the spectrum build, at a smaller n);
- matrix-vector products over a 72 MB matrix, which stream from the
  contended last level cache and memory like the n = 3107 spectrum build;
- elementwise numpy on panel-sized vectors (the sigmoid and densities);
- interpreter work on dicts and floats (the optimizer and CLI glue).

The kernel runs in its own process so that its 72 MB matrix does not
count in the benchmark's peak RSS. Run standalone, it prints the time of
ten passes:

    python3 bench/speedprobe.py --passes 10
"""

import os
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as run.py pins them for the program

# Mean pass time on the reference machine (2-vCPU Xeon, scipy-openblas
# 0.3.31, one BLAS thread), so that a speed factor of 1 is its usual speed.
REFERENCE_S = 0.19


def _kernel():
    """Build the fixed inputs; return a function that times one pass."""
    import numpy as np

    rng = np.random.default_rng(20190513)
    a = rng.standard_normal((800, 800))
    sym = a + a.T
    big = rng.standard_normal((3000, 3000))
    x = rng.standard_normal(3000)
    z = rng.standard_normal(27000)
    keys = rng.integers(0, 1000, 40000).tolist()

    def one_pass():
        t0 = time.perf_counter()
        acc = float(np.linalg.eigvalsh(sym)[-1])
        for _ in range(8):
            acc += float((big @ x)[0])
        for _ in range(200):
            acc += float(np.sum(1.0 / (1.0 + np.exp(-z))))
        for _ in range(4):
            counts = {}
            for key in keys:
                counts[key] = counts.get(key, 0.0) + key * 0.5
            acc += sum(counts.values())
        dt = time.perf_counter() - t0
        if acc != acc:
            raise RuntimeError("speed probe produced NaN")
        return dt

    one_pass()  # warm-up: first-touch page faults, BLAS initialisation
    return one_pass


def serve():
    """Answer each line on stdin with the seconds of one pass."""
    one_pass = _kernel()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    for _ in sys.stdin:
        sys.stdout.write(f"{one_pass()!r}\n")
        sys.stdout.flush()


class SpeedProbe:
    """Client of a probe process; use as a context manager.

    Calling the probe runs one pass in the probe process while this
    process waits, and returns its seconds.
    """

    reference_s = REFERENCE_S

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--serve"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__(None, None, None)
            raise RuntimeError("speed probe process failed to start")
        return self

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        import argparse

        ap = argparse.ArgumentParser(description="Time passes of the speed probe kernel.")
        ap.add_argument("--passes", type=int, default=10)
        n = ap.parse_args().passes
        one_pass = _kernel()
        times = [one_pass() for _ in range(n)]
        print(" ".join(f"{t:.4f}" for t in times))
        print(f"mean {sum(times) / n:.4f} s; speed factor {REFERENCE_S * n / sum(times):.4f}")
