"""Command-line front end: verification suites, pipelines, and artifacts.

Every command writes a machine-readable JSON report with one entry per check
(name, expected, actual, tolerance, pass) and exits 0 only if all checks
pass; invalid invocations exit 2.  Exact rationals are serialized as
"num/den" strings, never floats, and all artifacts (JSON, CSV, SVG) are
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Sequence

from . import __version__
from .curves import ImplicitCurve, residual
from .linalg import ExactMatrix, det_bareiss, det_ratio_last_column, last_column_minors, lu_exact
from .models import EXACT_PROFILE_MAX, MODEL_OPS, ModelId, one_point_profile
from .models.vsasm import n_vsasm, n_vsasm_refined_counts, raz_strog_check
from .tangent import TangentLine, analytic_saddle, envelope, finite_n_saddle, tangent_family

# The commands call the oracle's `enumerate_vsasm` as an attribute of this module,
# where tests and the bench tracer replace it; `__getattr__` loads it on first use.
_this = sys.modules[__name__]

# Most tangent lines (--count) or curve samples (--samples) one command builds;
# an unbounded value would be built as one list and could exhaust memory.
GRID_MAX = 2**20
# Longest fitted `verify` time (``Model.verify_seconds``) accepted.  Near this
# bound the fits under-estimate measured times by up to about 1.7x, so every
# accepted input still ends well inside 10 minutes.
VERIFY_SECONDS_MAX = 120.0


@contextmanager
def _all_digits() -> Iterator[None]:
    """Print ints of any length inside the block.

    Python 3.11 refuses to convert ints above 4,300 digits to decimal; exact
    outputs under ``EXACT_PROFILE_MAX`` reach about 40,000 (2^131328).
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def __getattr__(name: str) -> Any:
    """``enumerate_vsasm``, read from :mod:`arctic.oracle` when first asked for (PEP 562).

    Only ``oracle`` and ``verify`` at VSASM sizes up to 7 run the brute-force
    oracle, so no other command imports (and, without a bytecode cache,
    compiles) it.
    """
    if name == "enumerate_vsasm":
        from .oracle import enumerate_vsasm

        return enumerate_vsasm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def fraction_str(f: Fraction) -> str:
    with _all_digits():
        return f"{f.numerator}/{f.denominator}"


class Check:
    __slots__ = ("name", "expected", "actual", "tolerance")

    def __init__(self, name: str, expected: Any, actual: Any, tolerance: Any = "exact") -> None:
        self.name, self.expected, self.actual, self.tolerance = name, expected, actual, tolerance

    @property
    def passed(self) -> bool:
        if self.tolerance == "exact":
            return self.expected == self.actual
        return abs(float(self.expected) - float(self.actual)) <= float(self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


class Report:
    __slots__ = ("command", "model", "params", "checks", "artifacts")

    def __init__(self, command: str, model: str, params: dict) -> None:
        self.command, self.model, self.params = command, model, params
        self.checks, self.artifacts = [], []

    def add(self, name: str, expected: Any, actual: Any, tolerance: Any = "exact") -> None:
        self.checks.append(Check(name, expected, actual, tolerance))

    @property
    def passed(self) -> bool:
        """True when there are checks and all of them pass; no checks fail."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "model": self.model,
            "params": self.params,
            "version": __version__,
            "checks": [c.as_dict() for c in self.checks],
            "artifacts": self.artifacts,
        }
        with _all_digits():
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_VIEW = 1000.0
_BRANCH_SAMPLES = 256


def _implicit_branches(curve: ImplicitCurve) -> list[list[tuple[float, float]]]:
    """Sample the (degree <= 2 in y) curve at ``_BRANCH_SAMPLES`` + 1 abscissae over
    its window, one or two branches."""
    coeff = dict(curve.coefficients)
    (x0, x1), (y0, y1) = curve.window
    branches: list[list[tuple[float, float]]] = [[], []]
    for i in range(_BRANCH_SAMPLES + 1):
        x = x0 + (x1 - x0) * i / _BRANCH_SAMPLES
        a = coeff.get((0, 2), 0.0)
        b = coeff.get((0, 1), 0.0) + coeff.get((1, 1), 0.0) * x
        c = sum(cv * x**ix for (ix, iy), cv in coeff.items() if iy == 0)
        if a == 0:
            ys = [-c / b] if b else []
        else:
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            r = math.sqrt(disc)
            ys = [(-b - r) / (2 * a), (-b + r) / (2 * a)]
        for branch, y in zip(branches, sorted(ys)):
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                branch.append((x, y))
    return [b for b in branches if len(b) >= 2]


def emit_svg(
    lines: Sequence[TangentLine],
    env_points: Sequence[tuple[float, float]],
    curve: ImplicitCurve | None,
    frame: tuple[float, float, float, float] | None = None,
) -> str:
    """Deterministic SVG 1.1 figure of tangents, envelope, and closed curve."""
    if not lines and not env_points and curve is None:
        raise ValueError("nothing to draw")
    xs: list[float] = [p[0] for p in env_points]
    ys: list[float] = [p[1] for p in env_points]
    if curve is not None:
        (cx0, cx1), (cy0, cy1) = curve.window
        xs += [cx0, cx1]
        ys += [cy0, cy1]
    for ln in lines:
        xs += [ln.exit_point[0], ln.target_point[0]]
        ys += [ln.exit_point[1], ln.target_point[1]]
    if frame is None:
        pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        frame = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
    fx0, fx1, fy0, fy1 = frame
    if not (fx1 > fx0 and fy1 > fy0):
        raise ValueError(f"degenerate frame {frame}")
    scale = _VIEW / max(fx1 - fx0, fy1 - fy0)

    def to_view(p: tuple[float, float]) -> tuple[float, float]:
        return ((p[0] - fx0) * scale, _VIEW - (p[1] - fy0) * scale)

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_VIEW:g} {_VIEW:g}">',
        f'<rect x="0" y="0" width="{_VIEW:g}" height="{_VIEW:g}" fill="white"/>',
    ]
    for ln in lines:
        (x1, y1), (x2, y2) = to_view(ln.exit_point), to_view(ln.target_point)
        parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            'stroke="#9ecae1" stroke-width="1"/>'
        )
    if curve is not None:
        for branch in _implicit_branches(curve):
            d = " ".join(
                ("M" if i == 0 else "L") + f"{fmt(vx)},{fmt(vy)}"
                for i, (vx, vy) in enumerate(to_view(p) for p in branch)
            )
            parts.append(f'<path d="{d}" fill="none" stroke="#de2d26" stroke-width="2"/>')
    if env_points:
        pts = " ".join(f"{fmt(vx)},{fmt(vy)}" for vx, vy in (to_view(p) for p in env_points))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#31a354" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _sized_model(args, parser: argparse.ArgumentParser) -> tuple[ModelId, int | None]:
    """The model named by --model and its k, after checking --n and --k."""
    model = ModelId(args.model)
    ops = MODEL_OPS[model]
    if args.k is not None and not ops.needs_k:
        parser.error(f"model {model.value} takes no --k, got --k {args.k}")
    try:
        ops.check_size(args.n, args.k)
    except ValueError as exc:
        parser.error(str(exc))
    if max(args.n, args.k or 0) > EXACT_PROFILE_MAX:
        parser.error(f"exact sizes go up to {EXACT_PROFILE_MAX}, got n={args.n}, k={args.k}")
    return model, args.k


def cmd_verify(args, parser) -> Report:
    model, k = _sized_model(args, parser)
    rep = Report("verify", model.value, {"n": args.n, "k": args.k})
    ops = MODEL_OPS[model]
    fitted = ops.verify_seconds(args.n, k) if ops.verify_seconds else 0.0
    if fitted > VERIFY_SECONDS_MAX:
        parser.error(
            f"verify --model {model.value} at n={args.n}, k={k} is fitted at {fitted:.0f} s,"
            f" above the verify cost bound of {VERIFY_SECONDS_MAX:.0f} s"
        )
    if not ops.has_paths:
        size = args.n
        counts = n_vsasm_refined_counts(size)
        if size <= 7:
            matrices, hist = _this.enumerate_vsasm(size)
            rep.add("vsasm count equals product formula", n_vsasm(size), len(matrices))
            rep.add("refined formula equals brute-force histogram", counts, hist)
        if size >= 5:
            rep.add(
                "refined generating identity at t=1/2",
                True,
                raz_strog_check(size, Fraction(1, 2), counts),
            )
        rep.add("refined counts sum to total", n_vsasm(size), sum(counts))
        return rep
    matrix = ops.matrix(args.n, k)
    exits = ops.exits(args.n, k)
    columns = [ops.b_column(args.n, k, ell) for ell in exits]
    # Bordered by A's own last column first, the elimination's first minor is det(A).
    own = [matrix[i, matrix.cols - 1] for i in range(matrix.rows)]
    det, *minors = map(Fraction, last_column_minors(matrix, [own, *columns]))
    rep.add("bareiss det equals closed partition", fraction_str(Fraction(ops.partition(args.n, k))), fraction_str(det))
    lu = lu_exact(matrix)
    rep.add("lu pivot product equals bareiss det", fraction_str(det), fraction_str(lu.determinant()))
    rep.add("lu factors reconstruct the matrix", True, lu.reconstruct() == matrix)
    l_inv = ops.closed_l_inv(args.n, k)
    rep.add(
        "closed L inverse inverts lu L",
        True,
        (l_inv @ lu.L) == ExactMatrix.identity(matrix.rows),
    )
    mismatches = []
    linv_last = l_inv.row(l_inv.rows - 1)
    u_nn = lu.U[lu.U.rows - 1, lu.U.cols - 1]
    for ell, b, minor in zip(exits, columns, minors):
        fast = det_ratio_last_column(linv_last, b, u_nn)
        if not ops.one_point(args.n, k, ell) == minor / det == fast:
            mismatches.append(ell)
    rep.add("one-point closed form equals det ratio for every exit", [], mismatches)
    return rep


def cmd_onepoint(args, parser) -> Report:
    model, k = _sized_model(args, parser)
    rep = Report("onepoint", model.value, {"n": args.n, "k": args.k})
    profile = one_point_profile(model, args.n, k)
    with _all_digits():
        rows = ["ell,value", *(f"{ell},{v.numerator}/{v.denominator}" for ell, v in profile.items())]
    bounded = all(0 <= v.numerator <= v.denominator for v in profile.values())  # denominators > 0
    rep.add("profile values within [0, 1]", True, bounded)
    reference_ell = MODEL_OPS[model].reference_ell
    if reference_ell is not None:
        ref = reference_ell(args.n, k)
        rep.add("reference exit has weight 1", "1/1", fraction_str(profile[ref]))
    if args.out:
        _write(Path(args.out), "\n".join(rows) + "\n")
        rep.artifacts.append(args.out)
    return rep


def cmd_oracle(args, parser) -> Report:
    model, k = _sized_model(args, parser)
    if args.dump and MODEL_OPS[model].has_paths:
        parser.error(f"--dump lists enumerated objects; the path model {model.value} has none")
    from . import oracle

    try:
        return _oracle_report(oracle, args, model, k)
    except oracle.BudgetExceededError as exc:  # input too large to enumerate
        parser.error(str(exc))


def _oracle_report(oracle, args, model: ModelId, k: int | None) -> Report:
    """Brute-force counts of the ``oracle`` command; the oracle's functions are read at call time."""
    ops = MODEL_OPS[model]
    if not ops.has_paths:
        size = args.n
        rep = Report("oracle", model.value, {"size": size})
        matrices, hist = _this.enumerate_vsasm(size)
        rep.add("brute-force count equals product formula", n_vsasm(size), len(matrices))
        rep.add("histogram equals refined formula", n_vsasm_refined_counts(size), hist)
        if args.dump:
            payload = "\n".join(json.dumps({"entries": m.entries}) for m in matrices)
            _write(Path(args.dump), payload + "\n")
            rep.artifacts.append(args.dump)
        return rep
    rep = Report("oracle", model.value, {"n": args.n, "k": args.k})
    spec = oracle.model_path_spec(model, args.n, k)
    exits = {ell: oracle.model_exit_point(model, args.n, ell, k) for ell in ops.exits(args.n, k)}
    # The sweep goes first: it refuses an input too large for its budget
    # before an elimination of the same size runs.
    masses = oracle.count_nilp(spec, list(exits.values()))
    det = det_bareiss(ops.matrix(args.n, k))
    count = Fraction(masses[spec.ends[-1]])  # the last path stopped at its own end
    rep.add("brute-force family count equals determinant", fraction_str(det), fraction_str(count))
    ref_mass = masses[exits[ops.reference_ell(args.n, k)]]
    mismatch = [
        ell
        for ell, pt in exits.items()
        if Fraction(masses[pt], ref_mass) != ops.one_point(args.n, k, ell)
    ]
    rep.add("exit masses reproduce the one-point profile", [], mismatch)
    return rep


def _tangents(args, parser) -> tuple[list[TangentLine], list[tuple[float, float]]]:
    """The tangent family over the --z-min/--z-max grid and its envelope points."""
    zmin, zmax, count = args.z_min, args.z_max, args.count
    if not 8 <= count <= GRID_MAX:
        parser.error(f"--count must be between 8 and {GRID_MAX}, got {count}")
    if not (math.isfinite(zmin) and math.isfinite(zmax)):
        parser.error(f"--z-min and --z-max must be finite, got {zmin}, {zmax}")
    if not zmin < zmax or (args.spacing == "log" and not zmin > 0):
        parser.error(f"need z_min < z_max, and z_min > 0 for log spacing; got {zmin}, {zmax}")
    if args.spacing == "log":
        grid = [zmin * (zmax / zmin) ** (i / (count - 1)) for i in range(count)]
    else:
        grid = [zmin + (zmax - zmin) * i / (count - 1) for i in range(count)]
    if not all(map(math.isfinite, grid)):
        parser.error(f"the {args.spacing} grid from --z-min {zmin} to --z-max {zmax} overflows")
    try:
        lines = tangent_family(ModelId(args.model), grid, args.x_model)
        points = envelope(lines)
    except ValueError as exc:
        parser.error(str(exc))
    return lines, points


def cmd_saddle(args, parser) -> Report:
    model = ModelId(args.model)
    rep = Report(
        "saddle",
        model.value,
        {"n": args.n, "z": args.z, "x_model": args.x_model, "tolerance": args.tol},
    )
    try:
        result = finite_n_saddle(model, args.n, args.z, args.x_model)
        target = analytic_saddle(model, args.z, args.x_model)
    except ValueError as exc:
        parser.error(str(exc))
    rep.add("finite-n argmax matches analytic saddle", target, result.xi_hat, args.tol)
    rep.add("argmax plateau is non-degenerate", False, result.degenerate)
    return rep


def cmd_envelope(args, parser) -> Report:
    model = ModelId(args.model)
    rep = Report(
        "envelope",
        model.value,
        {
            "z_min": args.z_min,
            "z_max": args.z_max,
            "count": args.count,
            "spacing": args.spacing,
            "x_model": args.x_model,
            "tolerance": args.tol,
        },
    )
    lines, points = _tangents(args, parser)
    curve = MODEL_OPS[model].limit_curve(args.x_model)
    residuals = [residual(curve, p) for p in points]
    rep.add("max envelope residual within tolerance", 0.0, max(residuals), args.tol)
    if args.out_prefix:
        csv_rows = ["z,xi_star,slope,intercept,env_x,env_y,residual"]
        for ln, pt, res in zip(lines[1:-1], points, residuals):
            csv_rows.append(
                f"{ln.z:.12g},{ln.xi:.12g},{ln.slope:.12g},{ln.intercept:.12g},"
                f"{pt[0]:.12g},{pt[1]:.12g},{res:.12g}"
            )
        csv_path = Path(args.out_prefix + ".csv")
        _write(csv_path, "\n".join(csv_rows) + "\n")
        svg_path = Path(args.out_prefix + ".svg")
        shown = lines[:: max(1, len(lines) // 16)]
        _write(svg_path, emit_svg(shown, points, curve))
        rep.artifacts += [str(csv_path), str(svg_path)]
    return rep


def cmd_curve(args, parser) -> Report:
    model = ModelId(args.model)
    rep = Report("curve", model.value, {"samples": args.samples})
    par = MODEL_OPS[model].parametric
    if par is None:
        parser.error(f"no parametric form for {model.value}; available: "
                     + ", ".join(sorted(m.value for m, ops in MODEL_OPS.items() if ops.parametric)))
    if not 2 <= args.samples <= GRID_MAX:
        parser.error(f"--samples must be between 2 and {GRID_MAX}, got {args.samples}")
    t0, t1 = par.t_range
    rows = ["t,x,y,residual"]
    worst = 0.0
    for i in range(args.samples):
        t = t0 + (t1 - t0) * i / (args.samples - 1)
        p = par.point(t)
        res = residual(par.implicit, p)
        worst = max(worst, res)
        rows.append(f"{t:.12g},{p[0]:.12g},{p[1]:.12g},{res:.12g}")
    rep.add("max parametric residual within tolerance", 0.0, worst, args.tol)
    if args.out:
        _write(Path(args.out), "\n".join(rows) + "\n")
        rep.artifacts.append(args.out)
    return rep


def cmd_plot(args, parser) -> Report:
    model = ModelId(args.model)
    rep = Report(
        "plot",
        model.value,
        {"z_min": args.z_min, "z_max": args.z_max, "count": args.count, "x_model": args.x_model},
    )
    lines, points = _tangents(args, parser)
    curve = MODEL_OPS[model].limit_curve(args.x_model)
    _write(Path(args.out), emit_svg(lines, points, curve))
    rep.artifacts.append(args.out)
    rep.add("figure written", True, Path(args.out).exists())
    return rep


def _positive(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    It is only read once built: ``parse_args`` returns a fresh namespace per
    call and the commands only call ``parser.error``.
    """
    parser = argparse.ArgumentParser(
        prog="arctic",
        description="Exact lattice-path verification and arctic-curve extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_names = [m.value for m in ModelId]

    def add_common(p, with_n=True, with_k=True):
        p.add_argument("--model", required=True, choices=model_names)
        if with_n:
            p.add_argument("--n", type=int, required=True)
        if with_n and with_k:
            p.add_argument("--k", type=int, default=None)
        p.add_argument("--json-out", default=None, help="write the JSON report here")

    p = sub.add_parser("verify", help="exact det/LU/one-point verification")
    add_common(p)

    p = sub.add_parser("onepoint", help="exact one-point profile as CSV")
    add_common(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="brute-force counts against determinants")
    add_common(p)
    p.add_argument("--dump", default=None, help="newline-delimited JSON dump of enumerated objects")

    p = sub.add_parser("saddle", help="finite-n saddle scan against the analytic saddle")
    add_common(p, with_k=False)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--x-model", type=float, default=1.0)
    p.add_argument("--tol", type=_positive, default=0.01)

    p = sub.add_parser("envelope", help="tangent family, envelope, and residuals")
    add_common(p, with_n=False)
    p.add_argument("--z-min", type=float, required=True)
    p.add_argument("--z-max", type=float, required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p.add_argument("--x-model", type=float, default=1.0)
    p.add_argument("--tol", type=_positive, default=1e-3)
    p.add_argument("--out-prefix", default=None)

    p = sub.add_parser("curve", help="parametric curve samples and residuals")
    add_common(p, with_n=False)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=_positive, default=1e-12)
    p.add_argument("--out", default=None)

    p = sub.add_parser("plot", help="SVG figure of tangents, envelope, and curve")
    add_common(p, with_n=False)
    p.add_argument("--z-min", type=float, required=True)
    p.add_argument("--z-max", type=float, required=True)
    p.add_argument("--count", type=int, default=24)
    p.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p.add_argument("--x-model", type=float, default=1.0)
    p.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "onepoint": cmd_onepoint,
    "oracle": cmd_oracle,
    "saddle": cmd_saddle,
    "envelope": cmd_envelope,
    "curve": cmd_curve,
    "plot": cmd_plot,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args, parser)
        text = report.to_json()
        if getattr(args, "json_out", None):
            _write(Path(args.json_out), text)
    except OSError as exc:  # an artifact path that cannot be written
        parser.error(str(exc))
    sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
