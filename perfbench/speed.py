"""The machine's momentary speed, from a fixed reference kernel.

On a shared host the speed of a vCPU drifts by up to 2x over tens of seconds
to minutes, with no steal time and process CPU time tracking wall time.  A
run therefore times a fixed kernel between its operations and reports its
times scaled to the kernel's reference time `REFERENCE_S`:

    time at reference speed = measured time * REFERENCE_S / median kernel time

The kernel is independent of nllab: a small reverse-mode tape over 16x16
matmuls, elementwise ops and finiteness checks, in the style of the work nllab
does per node, plus a chain of small numpy calls.  A change to nllab moves the
measured time and not the kernel time.  Each probe runs between operations and
is never counted in an operation's time.  Each operation is scaled by the
probes taken around it.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's median time on a 2-vCPU Xeon (KVM guest); it sets the
# scale of every scaled time and never changes
REFERENCE_S = 0.7e-3
# least time between two probes; a probe takes under 1 ms, so under 1% overhead
PROBE_EVERY_S = 0.1
# probes around an op that give its local speed: about two seconds' worth
LOCAL_PROBES = 20

_rng = np.random.default_rng(12345)
_W = _rng.normal(scale=0.2, size=(16, 16))
_X = _rng.normal(size=(16, 4))
_A = _rng.normal(scale=0.2, size=(24, 24))
_V = np.ones((24, 1))


def kernel() -> float:
    """Fixed work: about 200 small numpy calls and 50 Python closures."""
    tape = []
    h = _X
    for _ in range(24):
        z = _W @ h
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("reference kernel overflowed")
        a = np.tanh(z)
        h = a * 0.5 + h
        tape.append(lambda g, a=a: (g * 0.5) * (1.0 - a * a))
    g = np.ones_like(h)
    for vjp in reversed(tape):
        g = _W.T @ vjp(g) + g
    x = _V
    for _ in range(100):
        x = np.tanh(_A @ x)
    return float(g.sum() + x.sum())


class Speed:
    """Probes of the reference kernel taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe_probe(self) -> None:
        """Probe if `PROBE_EVERY_S` has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale_ops(self, seconds: list, marks: list) -> list:
        """Each op's time at reference speed, from the probes taken around it.

        `marks[i]` is the number of probes taken before op i ended.  The speed
        drifts within a run as well as between runs, so each op is scaled by
        the median of the `LOCAL_PROBES` probes nearest to it.
        """
        k = np.asarray(self.samples)
        out = []
        for sec, m in zip(seconds, marks):
            lo = min(max(0, m - LOCAL_PROBES // 2), max(0, len(k) - LOCAL_PROBES))
            out.append(sec * REFERENCE_S / float(np.median(k[lo:lo + LOCAL_PROBES])))
        return out
