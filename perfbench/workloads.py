"""Operation lists for the three benchmark workloads.

Every operation is an argv for the public ``arctic`` CLI entry point
``arctic.cli.main``.  The ``seed`` only moves the free inputs:

* ``saddle_scan``: each z is drawn from ``JITTER_POINTS`` evenly spaced
  points inside its criterion-6 grid cell (in the grid's own spacing); the
  last grid point stays fixed.  The draw is over a finite lattice so that the
  exact-output digest of every possible op can be recorded once.
* ``profile_artifacts``: each envelope z-range is shrunk inward by up to 2%
  (each end by up to 1% of the range, in the grid's own spacing).
* ``exact_verify``: has no free inputs; the seed does not change it.

``tiny=True`` gives a small variant of each workload for the self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("saddle_scan", "exact_verify", "profile_artifacts")
MODELS = ("aztec", "dyck", "red", "staircase", "staircase-alt", "vsasm")
JITTER_POINTS = 8
SADDLE_N = 4096
TINY_SADDLE_N = 512


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``exact`` files/fields are digest-checked."""

    argv: tuple[str, ...]
    exact_csv: str | None = None  # onepoint CSV path, relative to the work dir
    exact_checks: bool = False  # verify/oracle/saddle report checks

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _linear(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _log(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


# Criterion-6 grids: (grid, spacing) per model.
SADDLE_GRIDS = {
    "aztec": (_linear(1.1, 5.0, 16), "linear"),
    "dyck": (_log(0.05, 20.0, 16), "log"),
    "red": (_log(0.05, 20.0, 16), "log"),
    "staircase": (_linear(1.1, 6.0, 16), "linear"),
    "staircase-alt": (_linear(1.05, 2.0, 16), "linear"),
    "vsasm": (_linear(0.1, 4.0, 16), "linear"),
}


def _between(a: float, b: float, frac: float, spacing: str) -> float:
    if spacing == "log":
        return a * (b / a) ** frac
    return a + (b - a) * frac


def saddle_z_lattice(model: str) -> list[list[float]]:
    """Possible z values per grid slot: a lattice per cell, then the fixed end."""
    grid, spacing = SADDLE_GRIDS[model]
    cells = [
        [_between(a, b, (j + 0.5) / JITTER_POINTS, spacing) for j in range(JITTER_POINTS)]
        for a, b in zip(grid, grid[1:])
    ]
    return cells + [[grid[-1]]]


def _slots(model: str, tiny: bool) -> list[list[float]]:
    slots = saddle_z_lattice(model)
    return slots[7::4] if tiny else slots


def _saddle_op(model: str, n: int, z: float) -> Op:
    argv = ("saddle", "--model", model, "--n", str(n), "--x-model", "1.0", "--z", repr(z))
    return Op(argv, exact_checks=True)


def saddle_scan(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"saddle_scan:{seed}")
    n = TINY_SADDLE_N if tiny else SADDLE_N
    ops = []
    for model in MODELS:
        ops += [_saddle_op(model, n, rng.choice(slot)) for slot in _slots(model, tiny)]
    return ops


def all_saddle_ops(tiny: bool = False) -> list[Op]:
    """Every op any seed can produce, for recording digests."""
    n = TINY_SADDLE_N if tiny else SADDLE_N
    out = []
    for model in MODELS:
        out += [_saddle_op(model, n, z) for slot in _slots(model, tiny) for z in slot]
    return out


def exact_verify(seed: int, tiny: bool = False) -> list[Op]:
    del seed  # no free inputs
    if tiny:
        verify = [("aztec", 8, None), ("staircase", 6, None), ("dyck", 4, 4), ("vsasm", 7, None)]
        oracle = [("aztec", 3, None), ("red", 3, 3), ("vsasm", 5, None)]
    else:
        verify = [
            ("aztec", 32, None),
            ("staircase", 24, None),
            ("staircase-alt", 24, None),
            ("dyck", 12, 12),
            ("red", 12, 12),
            ("vsasm", 7, None),
            ("vsasm", 9, None),
        ]
        oracle = [
            ("aztec", 6, None),
            ("dyck", 5, 4),
            ("red", 5, 5),
            ("staircase", 8, None),
            ("staircase-alt", 8, None),
            ("vsasm", 7, None),
        ]
    ops = []
    for command, cases in (("verify", verify), ("oracle", oracle)):
        for model, n, k in cases:
            argv = (command, "--model", model, "--n", str(n))
            if k is not None:
                argv += ("--k", str(k))
            ops.append(Op(argv, exact_checks=True))
    return ops


# Criterion-7 envelope grids: (model, z_min, z_max, spacing, x).
ENVELOPES = (
    ("aztec", 1.05, 6.0, "linear", None),
    ("staircase", 1.02, 8.0, "linear", None),
    ("staircase-alt", 1.01, 1.99, "linear", None),
    ("vsasm", 0.02, 0.96, "linear", None),
    ("dyck", 0.02, 50.0, "log", 0.5),
    ("dyck", 0.02, 50.0, "log", 2.0),
    ("red", 0.02, 50.0, "log", 1.0),
)


def profile_artifacts(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"profile_artifacts:{seed}")
    ops = []
    sizes = (
        [("aztec", 512, None), ("staircase", 512, None), ("staircase-alt", 512, None),
         ("dyck", 256, 256), ("red", 256, 256), ("vsasm", 191, None)]
    )
    for model, n, k in sizes:
        if tiny:
            n, k = n // 16 | 1, None if k is None else k // 16
        out = f"onepoint_{model}.csv"
        argv = ("onepoint", "--model", model, "--n", str(n))
        if k is not None:
            argv += ("--k", str(k))
        ops.append(Op(argv + ("--out", out), exact_csv=out))
    count = 64 if tiny else 200
    for model, lo, hi, spacing, x in ENVELOPES:
        z_min = _between(lo, hi, rng.uniform(0.0, 0.01), spacing)
        z_max = _between(lo, hi, 1.0 - rng.uniform(0.0, 0.01), spacing)
        prefix = f"env_{model}" + ("" if x is None else f"_x{x:g}")
        argv = ("envelope", "--model", model, "--z-min", repr(z_min), "--z-max", repr(z_max),
                "--count", str(count), "--spacing", spacing)
        if x is not None:
            argv += ("--x-model", repr(x))
        ops.append(Op(argv + ("--out-prefix", prefix)))
    samples = 100 if tiny else 1000
    for model in ("vsasm", "aztec"):
        ops.append(Op(("curve", "--model", model, "--samples", str(samples),
                       "--out", f"curve_{model}.csv")))
    ops.append(Op(("plot", "--model", "aztec", "--z-min", "1.1", "--z-max", "5",
                   "--count", "24", "--out", "plot_aztec.svg")))
    return ops


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](seed, tiny)
