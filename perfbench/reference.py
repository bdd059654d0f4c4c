"""Fixed reference work that measures the machine's current speed.

A shared machine runs the same code at speeds up to about 1.8x apart, in
phases that last from seconds to many minutes, and CPU time stretches with
wall time.  A run's median follows the phase it landed in, so raw times of
runs made minutes apart spread more than any useful bound.  This module
holds a fixed piece of work, never changed and independent of ``qsteer``,
whose mix follows the workloads: per-item Philox generators and small
4x4 products (like the draw), batched 4x4 ``eigvalsh`` and products (like
the measure table), and float formatting and parsing (like the CSV writer
and the output checks).  It runs in a gap before and after every measured
item; the item's time is divided by the mean of the reference times in the
gaps just before and just after it and multiplied by ``REF_S``, which turns
it into seconds at a fixed reference speed.  A gap after a long item holds
several runs (``gap``): one 0.2 s run samples the speed noisily, while a
pass of several seconds averages the speed over its whole length.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal time of one ``Reference.run``: its wall time on a 2-vCPU
# "Intel(R) Xeon(R) Processor" host with Python 3.11 and numpy 2.4, rounded.
# Scaled times read as seconds on a machine of that speed.
REF_S = 0.2
# After an item, the reference work runs until it has taken this share of
# the item's time: once after a set-up probe, about three times after a 2 s
# families pass, seven to ten times after a 5-8 s verify or scatter pass.
# One run's time jitters by about 15% from sub-second changes of speed; a
# longer gap averages that out while staying next to the item it scales.
GAP_SHARE = 0.25
ITEMS = 3000
STACK = 4000
VALUES = 20000


class Reference:
    """The reference work, with its inputs made once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20071080)
        z = rng.standard_normal((STACK, 4, 4)) + 1j * rng.standard_normal((STACK, 4, 4))
        self.stack = z @ np.conj(np.swapaxes(z, 1, 2))
        self.values = [float(v) for v in rng.standard_normal(VALUES)]
        self.checksum = None

    def run(self) -> tuple[float, float]:
        """Do the work once; return its (wall, cpu) seconds."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(ITEMS):
            g = np.random.Generator(np.random.Philox(key=[i, 7]))
            z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
            m = z @ z.conj().T
            acc += (m / np.trace(m).real)[0, 0].real
        w = np.linalg.eigvalsh(self.stack)
        prod = np.einsum("nij,njk->nik", self.stack, self.stack)
        acc += float(np.sqrt(np.abs(prod.real) + 1.0).sum() + w.sum())
        for line in [f"{v!r},{v * 0.5!r}" for v in self.values]:
            a, b = line.split(",")
            acc += float(a) - float(b)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        # the work is deterministic; a different result means a broken numpy
        if self.checksum is None:
            self.checksum = acc
        elif acc != self.checksum:
            raise RuntimeError(f"reference work gave {acc!r}, earlier {self.checksum!r}")
        return wall, cpu

    def gap(self, item_s: float) -> tuple[float, float]:
        """Run the work at least once and for ``GAP_SHARE`` of ``item_s``;
        return the mean (wall, cpu) seconds of one run."""
        runs = [self.run()]
        while sum(w for w, _ in runs) < GAP_SHARE * item_s:
            runs.append(self.run())
        return (sum(w for w, _ in runs) / len(runs), sum(c for _, c in runs) / len(runs))
