"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the same task run can take from 1x to 2x its quiet time,
depending on what other tenants do, in spells from a fraction of a second
to many minutes.  `bench` times one pass of this reference after every task
run and reports the task's mean wall time, and the set-up time, relative to
the mean pass time: host slowdowns stretch both alike, while a change to
the program moves only the program's side.

The reference does the three kinds of work the workloads do, in the same
libraries, and never calls affine_kit, so no change under src/ moves it:

* a Riccati-type ODE on 64 complex lanes, stepped by classical RK4 with
  small numpy arrays (interpreter and call overhead, as in transform);
* an Euler scheme on 20,000 paths of a square-root diffusion with full
  truncation (vector arithmetic and random draws, as in simulate and
  verify);
* formatting the 20,000 final states as ``%.12g`` CSV text, twice (as
  the CSV writer).

Its arrays stay under 1 MB, so it does not move ``peak_rss_mb``.
"""

from __future__ import annotations

import time

import numpy as np

RK4_STEPS = 500
EULER_PATHS, EULER_STEPS = 20_000, 150
TEXT_REPEATS = 2


def _riccati_rk4(u0: np.ndarray) -> complex:
    def rhs(y):
        phi_dot = 0.5 * y[:, 1] ** 2 + 0.08 * y[:, 1] - 0.02
        psi_dot = (0.125 * y[:, 1] ** 2 - 0.35 * y[:, 1] * y[:, 2] + 0.5 * y[:, 2] ** 2
                   - 2.0 * y[:, 1] - 0.1 + 2.0 * (np.exp(-0.2 * y[:, 2]) - 1.0))
        return np.stack([phi_dot, psi_dot, np.zeros_like(phi_dot)], axis=1)

    y = np.concatenate([np.zeros((len(u0), 1), dtype=complex), u0], axis=1)
    h = 1.0 / RK4_STEPS
    for _ in range(RK4_STEPS):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return complex(y.sum())


def _cir_euler(rng: np.random.Generator) -> np.ndarray:
    dt = 1.0 / EULER_STEPS
    x = np.full(EULER_PATHS, 0.04)
    for _ in range(EULER_STEPS):
        dw = rng.standard_normal(EULER_PATHS) * np.sqrt(dt)
        x = np.maximum(x + 2.0 * (0.04 - x) * dt + 0.5 * np.sqrt(x) * dw, 0.0)
    return x


def _to_text(values: np.ndarray) -> int:
    rows = "\n".join(",".join("%.12g" % v for v in values[i:i + 4])
                     for i in range(0, len(values), 4))
    return len(rows)


def run() -> float:
    """Wall time in seconds of one pass of the reference computation."""
    rng = np.random.default_rng(12345)
    u0 = (-rng.uniform(0.0, 1.5, (64, 2)) + 1j * rng.uniform(-1.5, 1.5, (64, 2)))
    t0 = time.perf_counter()
    _riccati_rk4(u0)
    final = _cir_euler(rng)
    for _ in range(TEXT_REPEATS):
        _to_text(final)
    return time.perf_counter() - t0
