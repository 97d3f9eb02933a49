"""Reference work the benchmark owns, timed next to the program's work.

The reference loop mixes the two kinds of work samcmc spends its time on,
small numpy calls on (20, 3) arrays and plain Python integer arithmetic,
so a change in the machine's speed moves it as it moves the workloads.
The reference import is what a fresh interpreter pays to import numpy and
a fixed set of standard-library packages: process start, file reads,
unmarshalling and extension loading, the work `import samcmc` does.
Neither touches samcmc (the self-test checks this), so no change to the
package can move them.
"""

from __future__ import annotations

import time

import numpy as np

# Median wall time of one loop on the machine the README describes. A
# round timed next to loops that ran this long is reported unscaled.
NOMINAL_S = 0.0165

# chain10 at B=20 works on (20, 2) arrays; the SA-MLE toy at B=20 and
# replications at B=400 work on arrays of 400 elements. The loop does both.
SMALL_REPS, MEDIUM_REPS = 900, 140

# Median wall time of one fresh interpreter running IMPORT_REFERENCE on the
# same machine.
IMPORT_NOMINAL_S = 0.315
IMPORT_REFERENCE = ("import numpy, json, decimal, email.parser, http.client, "
                    "argparse, dataclasses, unittest, asyncio")


def reference_loop() -> float:
    """Run the fixed work once and return its wall time in seconds."""
    a = np.linspace(0.0, 1.0, 60).reshape(20, 3)
    b = a[::-1].copy()
    big_a = np.linspace(0.0, 1.0, 1200).reshape(400, 3)
    big_b = big_a[::-1].copy()
    acc = 0.0
    start = time.perf_counter()
    for i in range(SMALL_REPS):
        c = a * 0.5 + b
        m = np.where(c > 0.75, c, a)
        s = np.sqrt((m * m).sum(axis=1))
        acc += float(s[i % 20])
        x = i
        for _ in range(8):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += x * 1e-12
    for i in range(MEDIUM_REPS):
        c = big_a * 0.5 + big_b
        m = np.where(c > 0.75, c, big_a)
        s = np.sqrt((m * m).sum(axis=1))
        acc += float(s[i % 400]) + float(np.random.default_rng(i).random(400)[0])
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("reference loop produced no work")
    return elapsed
