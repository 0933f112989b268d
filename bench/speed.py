"""How fast the machine runs right now, from fixed reference work.

The benchmark's host is shared with other machines' work: the same code
runs up to twice as fast in some minutes as in others, and two fresh
processes a minute apart can differ by 20%.  Raw seconds then measure the
host more than the program.  So ``run.py`` brackets every timed request
with a piece of reference work and divides the request's wall and CPU
seconds by the slowdown the reference work saw around it.

The reference work uses numpy, scipy and plain Python only, never
``tailshift``, so a change to the package leaves it as it is: between two
commits the normalised times compare as the raw times do, while the host's
swings cancel.  It has two parts, mirroring the two kinds of work the
workloads do:

* numpy: 40 chunks of 1000 x 10 rows through a correlated normal draw, a
  normal cdf, a Weibull quantile, a log density and a sort, the shape of one
  n=1000 estimate's kernels;
* python: 1200 rows through a plain-Python network loss, the shape of the
  ``blackbox`` callable.

A workload weighs the two parts by its traced shares (``python_share``);
the set-up probes of ``setup_s`` weigh them equally and run the reference
work in the probe's own interpreter, right after the timed set-up.
The slowdown is the weighted sum of each part's time over its time on a
quiet machine (``NUMPY_QUIET_S``, ``PYTHON_QUIET_S``: the 10th percentile
of 3000 measurements on a 2-vCPU Xeon virtual machine), so normalised
seconds are seconds on that machine when nothing else runs.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import ndtr

from common import BenchError

NUMPY_QUIET_S = 0.0220
PYTHON_QUIET_S = 0.0235
NUMPY_CHUNKS, NUMPY_ROWS, DIM = 40, 1000, 10
PYTHON_ROWS, HIDDEN = 1200, 16
ALPHA = 0.6
SETUP_PYTHON_SHARE = 0.5     # set-up is imports: bytecode, module code, extensions


class Speed:
    """Reference work whose time, against its quiet time, is the slowdown."""

    def __init__(self, python_share):
        if not 0.0 <= python_share <= 1.0:
            raise ValueError(f"python_share {python_share} outside [0, 1]")
        self.python_share = python_share
        rng = np.random.default_rng(20211)
        corr = np.full((DIM, DIM), 0.1) + 0.9 * np.eye(DIM)
        self._chol_t = np.linalg.cholesky(corr).T
        self._w1 = rng.standard_normal((HIDDEN, DIM)).tolist()
        self._b1 = rng.standard_normal(HIDDEN).tolist()
        self._w2 = rng.standard_normal(HIDDEN).tolist()
        self._rows = rng.standard_normal((PYTHON_ROWS, DIM)).tolist()
        self.checksum = None

    def _numpy_part(self):
        rng = np.random.default_rng(7)
        total = 0.0
        for _ in range(NUMPY_CHUNKS):
            z = rng.standard_normal((NUMPY_ROWS, DIM)) @ self._chol_t
            u = np.clip(ndtr(z), 1e-12, 1.0 - 1e-12)
            x = (-np.log1p(-u)) ** (1.0 / ALPHA)
            logd = np.sum(np.log(ALPHA) + (ALPHA - 1.0) * np.log(x) - x ** ALPHA, axis=-1)
            total += float(np.sort(logd)[-NUMPY_ROWS // 100:].mean())
        return total

    def _python_part(self):
        total = 0.0
        for row in self._rows:
            out = 0.0
            for weights, bias, w_out in zip(self._w1, self._b1, self._w2):
                pre = sum(w * v for w, v in zip(weights, row)) + bias
                if pre > 0.0:
                    out += w_out * pre
            total += out
        return total

    def _timed(self, part):
        t0 = time.perf_counter()
        value = part()
        return time.perf_counter() - t0, value

    def parts(self):
        """Seconds of each part the workload weighs, as {part: seconds}."""
        out, values = {}, []
        if self.python_share < 1.0:
            out["numpy"], v = self._timed(self._numpy_part)
            values.append(v)
        if self.python_share > 0.0:
            out["python"], v = self._timed(self._python_part)
            values.append(v)
        if self.checksum is None:
            self.checksum = values
        elif values != self.checksum:
            raise BenchError("reference work gave a different result")
        return out

    def slowdown(self, parts):
        """The weighted slowdown of a ``parts()`` result."""
        share = self.python_share
        return ((1.0 - share) * parts.get("numpy", 0.0) / NUMPY_QUIET_S
                + share * parts.get("python", 0.0) / PYTHON_QUIET_S)

    def measure(self):
        """Slowdown now: 1.0 on the quiet machine, 2.0 at half its speed."""
        return self.slowdown(self.parts())
