"""Command-line front end: verification suites, pipelines, and artifacts.

``main`` reads argv against one table of commands and flags, ``GRAMMAR``.
Every command writes a machine-readable JSON report with one entry per check
(name, expected, actual, tolerance, pass) and exits 0 only if all checks
pass; usage errors exit 2.  Exact rationals are serialized as "num/den"
strings, never floats, and all artifacts (JSON, CSV, SVG) are byte-identical
across runs for identical inputs.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator, NoReturn, Sequence

from . import __version__
from .curves import ImplicitCurve, residual
from .linalg import ExactMatrix, det_bareiss, det_ratio_last_column, last_column_minors, last_column_work, lu_exact
from .models import EXACT_PROFILE_MAX, MODEL_OPS, ModelId, one_point_profile
from .models.vsasm import VSASM_ENUM_MAX, n_vsasm, n_vsasm_refined_counts, raz_strog_check
from .tangent import TangentLine, envelope, finite_n_saddle, tangent_family

# Most tangent lines (--count) or curve samples (--samples) one command builds;
# an unbounded value would be built as one list and could exhaust memory.
GRID_MAX = 2**20
# Most elimination work (``linalg.last_column_work``) that `verify` accepts: 120 s
# at 2.5 ns per unit, within the 1.5-3.3 ns measured in-process on a 2-core Xeon.
VERIFY_WORK_MAX = 48_000_000_000


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


def enumerate_vsasm(size: int) -> tuple[list, list[int]]:
    """:func:`arctic.oracle.enumerate_vsasm`, its module loaded at the first call.

    Only ``oracle`` and ``verify`` at VSASM sizes up to ``VSASM_ENUM_MAX`` run
    the brute-force oracle, so no other command imports (and, without a bytecode
    cache, compiles) it.  The commands call this as a global of this module,
    where tests and the bench tracer replace it.
    """
    from . import oracle

    return oracle.enumerate_vsasm(size)


def fraction_str(f: Fraction) -> str:
    with _all_digits():
        return f"{f.numerator}/{f.denominator}"


class Report:
    __slots__ = ("command", "model", "params", "checks", "artifacts")

    def __init__(self, command: str, model: str, params: dict) -> None:
        self.command, self.model, self.params = command, model, params
        self.checks, self.artifacts = [], []

    def add(self, name: str, expected: Any, actual: Any, tolerance: Any = "exact") -> None:
        """Record one check as the dict the report prints, its verdict taken now."""
        if tolerance == "exact":
            ok = expected == actual
        else:
            ok = abs(float(expected) - float(actual)) <= float(tolerance)
        self.checks.append(
            {"name": name, "expected": expected, "actual": actual, "tolerance": tolerance, "pass": ok}
        )

    @property
    def passed(self) -> bool:
        """True when there are checks and all of them pass; no checks fail."""
        return bool(self.checks) and all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "model": self.model,
            "params": self.params,
            "version": __version__,
            "checks": self.checks,
            "artifacts": self.artifacts,
        }
        with _all_digits():
            return _json_text(payload) + "\n"


def _json_key(key: Any) -> str:
    """A dict key that is not a str, as json converts it: the JSON text of a scalar."""
    if key is None or isinstance(key, (int, float)):
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(value: Any, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    An indented dump never reaches json's C encoder, and its pure-Python one
    sets up an encoder and a chain of generators per call; this writer builds
    each container in one join.  Types are tried in json's order and anything
    else raises ``TypeError``; dict items are sorted as json sorts them, then
    each key is converted as json converts it.  ``newline`` is the line break
    and indent of the enclosing container.  Ints above 4,300 digits need
    :func:`_all_digits`.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(k if isinstance(k, str) else _json_key(k))}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_VIEW = 1000.0


def emit_svg(
    lines: Sequence[TangentLine],
    env_points: Sequence[tuple[float, float]],
    curve: ImplicitCurve,
) -> str:
    """Deterministic SVG 1.1 figure of tangents, envelope, and closed curve."""
    ends = [p for ln in lines for p in (ln.exit_point, ln.target_point)]
    xs, ys = zip(*env_points, *zip(*curve.window), *ends)  # window corners (x0, y0) and (x1, y1)
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    fx0, fx1, fy0, fy1 = min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad
    scale = _VIEW / max(fx1 - fx0, fy1 - fy0)

    def to_view(p: tuple[float, float]) -> tuple[str, str]:
        """p in view coordinates, y pointing down, each to 3 decimals."""
        return f"{(p[0] - fx0) * scale:.3f}", f"{_VIEW - (p[1] - fy0) * scale:.3f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_VIEW:g} {_VIEW:g}">',
        f'<rect x="0" y="0" width="{_VIEW:g}" height="{_VIEW:g}" fill="white"/>',
    ]
    for ln in lines:
        (x1, y1), (x2, y2) = to_view(ln.exit_point), to_view(ln.target_point)
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#9ecae1" stroke-width="1"/>')
    for branch in curve.branches():
        d = " L".join(",".join(to_view(p)) for p in branch)
        parts.append(f'<path d="M{d}" fill="none" stroke="#de2d26" stroke-width="2"/>')
    if env_points:
        pts = " ".join(",".join(to_view(p)) for p in env_points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#31a354" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _sized_model(args) -> tuple[ModelId, int | None]:
    """The model named by --model and its k, after checking --n and --k."""
    model = ModelId(args.model)
    ops = MODEL_OPS[model]
    if args.k is not None and not ops.needs_k:
        error(f"model {model.value} takes no --k, got --k {args.k}", args.command)
    try:
        ops.check_size(args.n, args.k)
    except ValueError as exc:
        error(str(exc), args.command)
    if max(args.n, args.k or 0) > EXACT_PROFILE_MAX:
        error(f"exact sizes go up to {EXACT_PROFILE_MAX}, got n={args.n}, k={args.k}", args.command)
    return model, args.k


def cmd_verify(args) -> Report:
    model, k = _sized_model(args)
    rep = Report("verify", model.value, {"n": args.n, "k": args.k})
    ops = MODEL_OPS[model]
    if not ops.has_paths:
        size = args.n
        counts = n_vsasm_refined_counts(size)
        if size <= VSASM_ENUM_MAX:
            matrices, hist = enumerate_vsasm(size)
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
    u = ops.u_diagonal(args.n, k)
    work = last_column_work(matrix, u)
    if work > VERIFY_WORK_MAX:
        error(f"verify --model {model.value} at n={args.n}, k={k} counts {work} units of elimination"
              f" work, above the verify work bound of {VERIFY_WORK_MAX}", args.command)
    exits = ops.exits(args.n, k)
    columns = [ops.b_column(args.n, k, ell) for ell in exits]
    # Bordered by A's own last column first, the elimination's first minor is det(A).
    own = [matrix[i, matrix.cols - 1] for i in range(matrix.rows)]
    det, *minors = map(Fraction, last_column_minors(matrix, [own, *columns]))
    rep.add("bareiss det equals closed partition", fraction_str(Fraction(math.prod(u))), fraction_str(det))
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


def cmd_onepoint(args) -> Report:
    model, k = _sized_model(args)
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


def cmd_oracle(args) -> Report:
    model, k = _sized_model(args)
    if args.dump and MODEL_OPS[model].has_paths:
        error(f"--dump lists enumerated objects; the path model {model.value} has none", args.command)
    from . import oracle

    ops = MODEL_OPS[model]
    try:
        if not ops.has_paths:
            size = args.n
            rep = Report("oracle", model.value, {"size": size})
            matrices, hist = enumerate_vsasm(size)
            rep.add("brute-force count equals product formula", n_vsasm(size), len(matrices))
            rep.add("histogram equals refined formula", n_vsasm_refined_counts(size), hist)
            if args.dump:
                payload = "\n".join(json.dumps({"entries": m.entries}) for m in matrices)
                _write(Path(args.dump), payload + "\n")
                rep.artifacts.append(args.dump)
            return rep
        rep = Report("oracle", model.value, {"n": args.n, "k": args.k})
        # The oracle's functions are read at call time, where tests replace them.
        spec = oracle.model_path_spec(model, args.n, k)
        exits = {ell: oracle.model_exit_point(model, args.n, ell, k) for ell in ops.exits(args.n, k)}
        # The sweep goes first: it refuses an input too large for its budget
        # before an elimination of the same size runs.
        masses = oracle.count_nilp(spec, list(exits.values()))
    except oracle.BudgetExceededError as exc:  # input too large to enumerate
        error(str(exc), args.command)
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


def _tangents(args) -> tuple[list[TangentLine], list[tuple[float, float]], ImplicitCurve]:
    """The tangent family over the --z-min/--z-max grid, its envelope points and the model's curve."""
    zmin, zmax, count = args.z_min, args.z_max, args.count
    if not 8 <= count <= GRID_MAX:
        error(f"--count must be between 8 and {GRID_MAX}, got {count}", args.command)
    if not (math.isfinite(zmin) and math.isfinite(zmax)):
        error(f"--z-min and --z-max must be finite, got {zmin}, {zmax}", args.command)
    if not zmin < zmax or (args.spacing == "log" and not zmin > 0):
        error(f"need z_min < z_max, and z_min > 0 for log spacing; got {zmin}, {zmax}", args.command)
    if args.spacing == "log":
        grid = [zmin * (zmax / zmin) ** (i / (count - 1)) for i in range(count)]
    else:
        grid = [zmin + (zmax - zmin) * i / (count - 1) for i in range(count)]
    if not all(map(math.isfinite, grid)):
        error(f"the {args.spacing} grid from --z-min {zmin} to --z-max {zmax} overflows", args.command)
    model = ModelId(args.model)
    try:
        lines = tangent_family(model, grid, args.x_model)
        points = envelope(lines)
        curve = MODEL_OPS[model].limit_curve(args.x_model)
    except ValueError as exc:
        error(str(exc), args.command)
    return lines, points, curve


def cmd_saddle(args) -> Report:
    model = ModelId(args.model)
    rep = Report("saddle", model.value, {"n": args.n, "z": args.z, "x_model": args.x_model, "tolerance": args.tol})
    try:
        result = finite_n_saddle(model, args.n, args.z, args.x_model)
    except ValueError as exc:
        error(str(exc), args.command)
    rep.add("finite-n argmax matches analytic saddle", result.xi_star, result.xi_hat, args.tol)
    rep.add("argmax plateau is non-degenerate", False, result.degenerate)
    return rep


def cmd_envelope(args) -> Report:
    model = ModelId(args.model)
    rep = Report("envelope", model.value, {"z_min": args.z_min, "z_max": args.z_max, "count": args.count,
                                           "spacing": args.spacing, "x_model": args.x_model, "tolerance": args.tol})
    lines, points, curve = _tangents(args)
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


def cmd_curve(args) -> Report:
    model = ModelId(args.model)
    rep = Report("curve", model.value, {"samples": args.samples})
    par = MODEL_OPS[model].parametric
    if par is None:
        error(f"no parametric form for {model.value}; available: "
              + ", ".join(sorted(m.value for m, ops in MODEL_OPS.items() if ops.parametric)), args.command)
    if not 2 <= args.samples <= GRID_MAX:
        error(f"--samples must be between 2 and {GRID_MAX}, got {args.samples}", args.command)
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


def cmd_plot(args) -> Report:
    model = ModelId(args.model)
    rep = Report("plot", model.value,
                 {"z_min": args.z_min, "z_max": args.z_max, "count": args.count, "x_model": args.x_model})
    lines, points, curve = _tangents(args)
    _write(Path(args.out), emit_svg(lines, points, curve))
    rep.artifacts.append(args.out)
    rep.add("figure written", True, Path(args.out).exists())
    return rep


def _positive(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"must be finite and > 0, got {text}")
    return value


# The command-line grammar: each command's handler, help line and flags.  A flag
# maps to (type, default, help): the type is a converter that raises ValueError
# or a tuple of choices, and the default REQUIRED marks a flag that must be given.
REQUIRED = object()
_MODEL = {"--model": (tuple(m.value for m in ModelId), REQUIRED, "lattice model"),
          "--json-out": (str, None, "path of a copy of the JSON report")}
_SIZED = {**_MODEL, "--n": (int, REQUIRED, "size n"), "--k": (int, None, "size k (dyck and red)")}
_GRID = {**_MODEL, "--z-min": (float, REQUIRED, "least z of the grid"), "--z-max": (float, REQUIRED, "largest z"),
         "--spacing": (("linear", "log"), "linear", "grid spacing"), "--x-model": (float, 1.0, "model weight x")}
GRAMMAR = {
    "verify": (cmd_verify, "exact det/LU/one-point verification", _SIZED),
    "onepoint": (cmd_onepoint, "exact one-point profile as CSV", {**_SIZED, "--out": (str, None, "CSV path")}),
    "oracle": (cmd_oracle, "brute-force counts against determinants",
               {**_SIZED, "--dump": (str, None, "NDJSON path of the enumerated objects")}),
    "saddle": (cmd_saddle, "finite-n saddle scan against the analytic saddle",
               {**_MODEL, "--n": _SIZED["--n"], "--z": (float, REQUIRED, "tangent parameter z"),
                "--x-model": _GRID["--x-model"], "--tol": (_positive, 0.01, "tolerance of the check")}),
    "envelope": (cmd_envelope, "tangent family, envelope, and residuals",
                 {**_GRID, "--count": (int, 200, "tangent lines"), "--tol": (_positive, 1e-3, "tolerance of the check"),
                  "--out-prefix": (str, None, "path prefix of the CSV and SVG")}),
    "curve": (cmd_curve, "parametric curve samples and residuals", {**_MODEL, "--samples": (int, 1000, "samples"),
              "--tol": (_positive, 1e-12, "tolerance of the check"), "--out": (str, None, "CSV path")}),
    "plot": (cmd_plot, "SVG figure of tangents, envelope, and curve",
             {**_GRID, "--count": (int, 24, "tangent lines"), "--out": (str, REQUIRED, "SVG path")}),
}


def _usage(command: str | None) -> str:
    """The usage of ``command``, or of the program and its commands when None."""
    if command is None:
        commands = "".join(f"\n  {name:<10} {text}" for name, (_, text, _) in GRAMMAR.items())
        return f"usage: arctic [-h] COMMAND [flags]; 'arctic COMMAND --help' lists them{commands}\n"
    shown = []
    for flag, (kind, default, _) in GRAMMAR[command][2].items():
        text = f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {flag[2:].upper()}"
        shown.append(text if default is REQUIRED else f"[{text}]")
    return f"usage: arctic {command} [-h] {' '.join(shown)}\n"


def _help(command: str | None) -> NoReturn:
    """Print the usage of ``command`` (of the program when None) and the help of its flags; exit 0."""
    rows = [] if command is None else [GRAMMAR[command][1], *(
        f"  {flag:<12} {text} ({'required' if default is REQUIRED else f'default: {default}'})"
        for flag, (_, default, text) in GRAMMAR[command][2].items())]
    sys.stdout.write(_usage(command) + "".join(row + "\n" for row in rows))
    raise SystemExit(0)


def error(message: str, command: str | None = None) -> NoReturn:
    """Print the usage (of ``command`` when given) and ``message`` to standard error; exit 2."""
    sys.stderr.write(f"{_usage(command)}arctic{f' {command}' if command else ''}: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` against ``GRAMMAR``: a command, then its flags in any order.

    A flag is named in full (no prefixes) and takes one value, as ``--flag value``
    or ``--flag=value``; a token starting with ``--`` is never a value, and a
    repeated flag keeps its last value.  ``-h``/``--help`` prints usage and exits
    0; any other fault is a usage error.
    """
    command, tokens = argv[0] if argv else None, iter(argv[1:])
    if command in ("-h", "--help"):
        _help(None)
    if command not in GRAMMAR:
        error(f"unknown command {command!r}" if command else "no command given")
    flags, given = GRAMMAR[command][2], {}
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, eq, text = token.partition("=")
        if flag not in flags:
            error(f"unrecognized argument {token!r}", command)
        if not eq and (text := next(tokens, "--")).startswith("--"):
            error(f"argument {flag} expects a value", command)
        given[flag] = text
    args = SimpleNamespace(command=command)
    for flag, (kind, default, _) in flags.items():
        text = given.get(flag)
        if text is None:
            if default is REQUIRED:
                error(f"argument {flag} is required", command)
            value = default
        elif isinstance(kind, tuple):
            if text not in kind:
                error(f"argument {flag}: invalid choice {text!r} (choose from {', '.join(kind)})", command)
            value = text
        else:
            try:
                value = kind(text)
            except ValueError as exc:
                error(f"argument {flag}: {exc}", command)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report = GRAMMAR[args.command][0](args)
        text = report.to_json()
        if args.json_out:
            _write(Path(args.json_out), text)
    except OSError as exc:  # an artifact path that cannot be written
        error(str(exc), args.command)
    sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
