"""Command-line behavior: reports, artifacts, exit codes, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arctic
from arctic import cli, linalg, models, oracle
from arctic.cli import GRID_MAX, Report, emit_svg, fraction_str, main
from arctic.linalg import ExactMatrix, lu_exact
from arctic.models import MODEL_OPS, ModelId
from arctic.oracle import model_exit_point
from arctic.tangent import tangent_family


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_aztec_passes(capsys):
    code, report = run(["verify", "--model", "aztec", "--n", "6"], capsys)
    assert code == 0
    assert report["command"] == "verify"
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "bareiss det equals closed partition" in names


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "dyck", "--n", "3", "--k", "2"],
        ["verify", "--model", "red", "--n", "2", "--k", "3"],
        ["verify", "--model", "staircase", "--n", "5"],
        ["verify", "--model", "staircase-alt", "--n", "5"],
        ["verify", "--model", "vsasm", "--n", "5"],
        ["verify", "--model", "aztec", "--n", "0"],
        ["verify", "--model", "dyck", "--n", "0", "--k", "1"],
    ],
)
def test_verify_all_models_pass(argv, capsys):
    code, report = run(argv, capsys)
    assert code == 0 and all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize(
    "factor, entry, reconstructs, inverts",
    [
        ("L", (4, 2), False, False),
        ("L", (1, 3), False, False),
        ("U", (2, 5), False, True),
        ("U", (5, 5), False, True),
        ("L_inv", (4, 2), True, False),
        ("L_inv", (1, 4), True, False),
    ],
)
def test_verify_factor_checks_catch_one_perturbed_entry(factor, entry, reconstructs, inverts, monkeypatch, capsys):
    def bump(m):
        return ExactMatrix.from_function(m.rows, m.cols, lambda i, j: m[i, j] + ((i, j) == entry))

    if factor == "L_inv":
        model = MODEL_OPS[ModelId.AZTEC]
        closed = model.closed_l_inv
        monkeypatch.setitem(
            MODEL_OPS, ModelId.AZTEC, dataclasses.replace(model, closed_l_inv=lambda n, k: bump(closed(n, k)))
        )
    else:
        def perturbed_lu(m):
            lu = lu_exact(m)
            return lu._replace(**{factor: bump(getattr(lu, factor))})

        monkeypatch.setattr(cli, "lu_exact", perturbed_lu)
    code, report = run(["verify", "--model", "aztec", "--n", "6"], capsys)
    verdicts = {c["name"]: c["pass"] for c in report["checks"]}
    assert code == 1
    assert verdicts["lu factors reconstruct the matrix"] is reconstructs
    assert verdicts["closed L inverse inverts lu L"] is inverts


@pytest.fixture
def default_int_digit_limit():
    """Python's default cap on int-to-decimal conversion, whatever an earlier test set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_exact_outputs_print_past_the_int_digit_limit(default_int_digit_limit):
    big = 10**4999 + 7  # 5,000 digits
    rep = Report("verify", "vsasm", {"n": 1})
    rep.add("big", big, big)
    assert f'"expected": 1{"0" * 4998}7,' in rep.to_json()
    assert fraction_str(Fraction(2**20000)) == f"{Decimal(2**20000)}/1"
    assert sys.get_int_max_str_digits() == 4300


def test_verify_requires_k_for_dyck(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--model", "dyck", "--n", "3"])
    assert err.value.code == 2


def test_onepoint_writes_rational_csv(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code, report = run(
        ["onepoint", "--model", "red", "--n", "3", "--k", "3", "--out", str(out)], capsys
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ell,value"
    assert lines[1] == "0,1/1"
    assert all("/" in line.split(",")[1] for line in lines[1:])
    assert str(out) in report["artifacts"]


@pytest.mark.parametrize("model", list(ModelId))
def test_onepoint_csv_rows_follow_the_exits(model, tmp_path, capsys):
    """Each model's CSV lists exactly its exits, with weight 1 at the reference exit."""
    ops = MODEL_OPS[model]
    n, k = (5, None) if model is ModelId.VSASM else (4, 3 if ops.needs_k else None)
    out = tmp_path / "profile.csv"
    argv = ["onepoint", "--model", model.value, "--n", str(n), "--out", str(out)]
    code, _ = run(argv + (["--k", str(k)] if k else []), capsys)
    assert code == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert [int(ell) for ell in rows] == list(ops.exits(n, k))
    if ops.has_paths:
        assert rows[str(ops.reference_ell(n, k))] == "1/1"
    else:
        assert min(map(int, rows)) == 1


def test_oracle_command(capsys):
    code, report = run(["oracle", "--model", "staircase", "--n", "2"], capsys)
    assert code == 0 and all(c["pass"] for c in report["checks"])


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is recorded; return the record."""
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_oracle_makes_one_path_sweep(monkeypatch, capsys):
    sweeps = _count_calls(monkeypatch, oracle, "count_nilp")
    code, report = run(["oracle", "--model", "dyck", "--n", "2", "--k", "2"], capsys)
    assert code == 0 and all(c["pass"] for c in report["checks"])
    # The one sweep serves the family count and every exit mass.
    dyck = ModelId.DYCK_HALF_HEX
    exits = [model_exit_point(dyck, 2, ell, 2) for ell in MODEL_OPS[dyck].exits(2, 2)]
    assert [args[1:] for args in sweeps] == [(exits,)]


@pytest.mark.parametrize("argv, size", [
    ("verify --model vsasm --n 7", 7),
    ("oracle --model vsasm --n 5", 5),
])
def test_vsasm_enumeration_is_called_through_the_cli_module(argv, size, monkeypatch, capsys):
    """The commands call ``enumerate_vsasm`` as an attribute of ``arctic.cli``, where the
    bench tracer wraps it, though the oracle is imported only when a command runs it."""
    calls = _count_calls(monkeypatch, cli, "enumerate_vsasm")
    code, report = run(argv.split(), capsys)
    assert code == 0 and all(c["pass"] for c in report["checks"])
    assert calls == [(size,)]


def test_oracle_budget_refusal_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--model", "vsasm", "--n", "9"])
    assert err.value.code == 2
    assert "exceeds the oracle budget of 7" in capsys.readouterr().err


_BRUTE_FORCE_CHECKS = ["vsasm count equals product formula", "refined formula equals brute-force histogram"]


@pytest.mark.parametrize("size, held", [
    (oracle.VSASM_ENUM_MAX, _BRUTE_FORCE_CHECKS),
    (oracle.VSASM_ENUM_MAX + 2, []),
])
def test_verify_enumerates_vsasms_up_to_the_oracle_cap(size, held, capsys):
    """``verify`` runs the brute-force VSASM checks at every size the oracle enumerates
    and at no larger one, so raising the oracle's cap cannot leave the CLI behind."""
    code, report = run(["verify", "--model", "vsasm", "--n", str(size)], capsys)
    assert code == 0
    assert [c["name"] for c in report["checks"] if c["name"] in _BRUTE_FORCE_CHECKS] == held


def test_cli_leaves_count_nilp_on_the_oracle():
    """``count_nilp`` is read from ``arctic.oracle`` only: were it also resolvable on
    ``arctic.cli``, the bench tracer would wrap it twice and count each call twice."""
    assert not hasattr(cli, "count_nilp")
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_verify_makes_one_elimination(monkeypatch, capsys):
    eliminations = _count_calls(monkeypatch, linalg, "_bareiss_pivots")
    dets = _count_calls(monkeypatch, cli, "det_bareiss")
    code, report = run(["verify", "--model", "aztec", "--n", "6"], capsys)
    assert code == 0 and all(c["pass"] for c in report["checks"])
    assert len(eliminations) == 1 and dets == []


# Largest inputs the verify work bound accepts, each timed in-process (see
# CHANGES.md); one more in n or in k is refused before any elimination.
@pytest.mark.parametrize(
    "model,n,k",
    [
        ("aztec", 203, None),
        ("staircase", 202, None),
        ("staircase-alt", 204, None),
        ("dyck", 380, 2),
        ("dyck", 282, 32),
        ("dyck", 135, 129),
        ("dyck", 66, 512),
        ("red", 1, 512),
        ("red", 2, 467),
        ("red", 32, 229),
        ("red", 81, 185),
        ("red", 512, 139),
    ],
)
def test_verify_cost_bound_refuses_past_the_timed_edge(model, n, k, monkeypatch, capsys):
    ops = MODEL_OPS[ModelId(model)]
    assert linalg.last_column_work(ops.matrix(n, k), ops.u_diagonal(n, k)) <= cli.VERIFY_WORK_MAX
    eliminations = _count_calls(monkeypatch, linalg, "_bareiss_pivots")
    past = [(n + 1, k), *([(n, k + 1)] if k is not None else [])]
    for n_past, k_past in past:
        if max(n_past, k_past or 0) > 512:
            continue
        argv = ["verify", "--model", model, "--n", str(n_past)]
        with pytest.raises(SystemExit) as err:
            main(argv + (["--k", str(k_past)] if k_past is not None else []))
        assert err.value.code == 2
        assert f"above the verify work bound of {cli.VERIFY_WORK_MAX}" in capsys.readouterr().err
    assert eliminations == []


def test_bench_traced_bindings_all_resolve():
    """Every binding the bench harness traces still names a function here.

    A renamed or dropped binding would silently make its per-layer metrics absent.
    """
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "import tracing; print(json.dumps(sorted(tracing.Tracer().install())))"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run([sys.executable, "-c", code, str(root / "perfbench"), str(root / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == []


def test_bench_traced_exact_verify_reads_every_oracle_layer():
    """A traced tiny ``exact_verify`` pass sees both oracle layers and no metric goes absent,
    though the commands load the oracle only when they run it."""
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "exact_verify",
         "--seed", "0", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert result["correct"] and result["failed"] == 0
    assert "absent" not in proc.stderr
    assert sorted(m["name"] for m in per_layer if m["name"] not in metrics) == []
    assert metrics["oracle.count_nilp.calls"]["value"] == 2
    assert metrics["oracle.enumerate.self_s"]["value"] > 0



@pytest.mark.parametrize("argv,name", [
    ("verify --model dyck --n 4 --k 4", "binomial"),
    ("verify --model red --n 4 --k 4", "binomial"),
    ("verify --model staircase --n 6", "binomial"),
    ("onepoint --model vsasm --n 7", "n_vsasm"),
])
def test_bench_traced_helpers_are_called_through_the_hub(argv, name, tmp_path, monkeypatch, capsys):
    """The helpers the bench harness wraps on ``arctic.models`` are the ones the families call.

    A family module that bound its own copy would leave the name resolvable and its
    per-layer metric at 0.
    """
    monkeypatch.chdir(tmp_path)
    calls = _count_calls(monkeypatch, models, name)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert len(calls) > 0


_DIGESTS = json.loads((Path(__file__).parent.parent / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize(
    "key", sorted(k for k in _DIGESTS if k.startswith(("oracle ", "verify ", "saddle ")))
)
def test_exact_reports_match_recorded_digests(key, capsys):
    code, report = run(key.split(), capsys)
    assert code == 0
    checks = json.dumps(report["checks"], sort_keys=True).encode()
    assert hashlib.sha256(checks).hexdigest() == _DIGESTS[key]


@pytest.mark.parametrize("key", sorted(k for k in _DIGESTS if k.startswith("onepoint ")))
def test_onepoint_csvs_match_recorded_digests(key, tmp_path, monkeypatch, capsys):
    """Each recorded onepoint op writes its CSV byte for byte, hashed as the bench worker does."""
    monkeypatch.chdir(tmp_path)
    argv = key.split()
    code, report = run(argv, capsys)
    out = argv[argv.index("--out") + 1]
    assert code == 0 and report["artifacts"] == [out]
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == _DIGESTS[key]


# sha256 of every CSV and SVG that the float commands write: the seven ENVELOPES
# grids of perfbench/workloads.py at their unjittered ends, both parametric
# curves and the plot of the profile_artifacts workload.  Recorded on Python 3.11;
# the curve sums add left to right, so 3.12 and later write the same bytes.
_FLOAT_ARTIFACTS = {
    "envelope --model aztec --z-min 1.05 --z-max 6.0 --count 200 --spacing linear --out-prefix env_aztec": {
        "env_aztec.csv": "29c37aced186337b7ac0b65770875d7f52c71d5a6ba1f7711cce61a77e7cd9ec",
        "env_aztec.svg": "dac549e699960f67af326e14be610c38c0e9f3f780f20a804edff9133ee039fc",
    },
    "envelope --model staircase --z-min 1.02 --z-max 8.0 --count 200 --spacing linear --out-prefix env_staircase": {
        "env_staircase.csv": "2ab81fcfe7b06140f9281bd8422a8df1dfb2185b62c61267386c0bf247d85a67",
        "env_staircase.svg": "cfc52d65988bb1cbd3cdfc534b285e75982f961ba920e19b3d56af2da3d92892",
    },
    "envelope --model staircase-alt --z-min 1.01 --z-max 1.99 --count 200 --spacing linear"
    " --out-prefix env_staircase-alt": {
        "env_staircase-alt.csv": "d5ffdfb24ec12d8ad529cad97de4860d230979dc31226243873ff4fd7d485b91",
        "env_staircase-alt.svg": "3b725c8603cc4aa6be8356e024cfd8111d714e43c221f7be9092299665d6f23c",
    },
    "envelope --model vsasm --z-min 0.02 --z-max 0.96 --count 200 --spacing linear --out-prefix env_vsasm": {
        "env_vsasm.csv": "ce0669d17e8d006788131d0ecfea332404e5bd7783cc141148d73a0621d59857",
        "env_vsasm.svg": "0fb3bf6b4bb2826460de265b1d81fe7880ea631ac2dd8271a5ca603232fa375c",
    },
    "envelope --model dyck --z-min 0.02 --z-max 50.0 --count 200 --spacing log --x-model 0.5"
    " --out-prefix env_dyck_x0.5": {
        "env_dyck_x0.5.csv": "6c9b2e0f2315a092314ecf42f630eadfb64da33be2a160670e44ff9bfc113a6c",
        "env_dyck_x0.5.svg": "c5bbbb5cda8b926f915d80561a8399deb919ff10b535155ea730faecb61105f4",
    },
    "envelope --model dyck --z-min 0.02 --z-max 50.0 --count 200 --spacing log --x-model 2.0"
    " --out-prefix env_dyck_x2": {
        "env_dyck_x2.csv": "3e6de815424d209931d2f997ea9c77c1d75278282fd6725a10256c04b205b6ea",
        "env_dyck_x2.svg": "36c821f79286fd11f7679aa76b61a42dea4503d1777002cfc7dc68cae484a70b",
    },
    "envelope --model red --z-min 0.02 --z-max 50.0 --count 200 --spacing log --x-model 1.0"
    " --out-prefix env_red_x1": {
        "env_red_x1.csv": "c62e6075438a83a94ab30ea48224e71a0cc79a9fcf6485839737a7345140437a",
        "env_red_x1.svg": "3df6592f47b17cbc711bc1017d09cd1ea965abe70e635a869f2da4c61b3a5239",
    },
    "curve --model aztec --samples 1000 --out curve_aztec.csv": {
        "curve_aztec.csv": "47b149f6b1338bc1d9610af2b6b25ef02a3b5934c136a68aa322568bad42153f",
    },
    "curve --model vsasm --samples 1000 --out curve_vsasm.csv": {
        "curve_vsasm.csv": "7df8663826698670a6d5f0c452c4cf0771a023ff844a992ea30be130ddc695f3",
    },
    "plot --model aztec --z-min 1.1 --z-max 5 --count 24 --out plot_aztec.svg": {
        "plot_aztec.svg": "48548e383167515b886557dc87da462ee067a9edc0c80cd6ac1dc619c8ec426e",
    },
}


@pytest.mark.parametrize("key", list(_FLOAT_ARTIFACTS))
def test_float_artifacts_match_recorded_digests(key, tmp_path, monkeypatch, capsys):
    """Each envelope, curve and plot op writes its CSV and SVG files byte for byte."""
    monkeypatch.chdir(tmp_path)
    code, report = run(key.split(), capsys)
    assert code == 0 and sorted(report["artifacts"]) == sorted(_FLOAT_ARTIFACTS[key])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in report["artifacts"]}
    assert digests == _FLOAT_ARTIFACTS[key]


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(-1, 2)])
def test_onepoint_bound_check_fails_outside_unit_interval(bad, monkeypatch, capsys):
    """The integer check 0 <= numerator <= denominator rejects a value above 1 or below 0."""
    profile = (bad, Fraction(1, 2), Fraction(1))
    monkeypatch.setitem(MODEL_OPS, ModelId.AZTEC,
                        dataclasses.replace(MODEL_OPS[ModelId.AZTEC], exact_profile=lambda n, k: profile))
    code, report = run(["onepoint", "--model", "aztec", "--n", "2"], capsys)
    assert code == 1
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks == {"profile values within [0, 1]": False, "reference exit has weight 1": True}


def test_oracle_vsasm_dump(tmp_path, capsys):
    dump = tmp_path / "vsasm.ndjson"
    code, report = run(["oracle", "--model", "vsasm", "--n", "5", "--dump", str(dump)], capsys)
    assert code == 0
    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(rows) == 3


def test_saddle_command(capsys):
    code, report = run(
        ["saddle", "--model", "aztec", "--n", "512", "--z", "2.0", "--tol", "0.05"], capsys
    )
    assert code == 0
    assert report["params"]["tolerance"] == 0.05


def test_saddle_rejects_small_n(capsys):
    with pytest.raises(SystemExit) as err:
        main(["saddle", "--model", "aztec", "--n", "32", "--z", "2.0"])
    assert err.value.code == 2


def test_envelope_writes_artifacts(tmp_path, capsys):
    prefix = tmp_path / "stair"
    code, report = run(
        [
            "envelope", "--model", "staircase", "--z-min", "1.05", "--z-max", "6",
            "--count", "64", "--out-prefix", str(prefix),
        ],
        capsys,
    )
    assert code == 0
    csv_lines = (tmp_path / "stair.csv").read_text().splitlines()
    assert csv_lines[0] == "z,xi_star,slope,intercept,env_x,env_y,residual"
    assert len(csv_lines) == 1 + 62  # interior parameters only
    svg = (tmp_path / "stair.svg").read_text()
    assert svg.startswith("<?xml") and "<polyline" in svg


def test_envelope_rejects_small_grid(capsys):
    with pytest.raises(SystemExit) as err:
        main(["envelope", "--model", "aztec", "--z-min", "1.1", "--z-max", "2", "--count", "5"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "red", "--n", "3", "--k", "1"],
        ["oracle", "--model", "red", "--n", "3", "--k", "1"],
        ["verify", "--model", "vsasm", "--n", "1"],
        ["oracle", "--model", "vsasm", "--n", "9"],
        ["envelope", "--model", "aztec", "--z-min", "3", "--z-max", "2"],
        ["envelope", "--model", "aztec", "--z-min", "0", "--z-max", "3", "--spacing", "log"],
        ["envelope", "--model", "aztec", "--z-min", "1.1", "--z-max", "1e300", "--spacing", "log"],
        ["envelope", "--model", "vsasm", "--z-min", "1e-9", "--z-max", "2e-9", "--count", "8"],
        ["envelope", "--model", "red", "--z-min", "1e-12", "--z-max", "1e12", "--spacing", "log",
         "--count", "64"],
        ["saddle", "--model", "aztec", "--n", "512", "--z", "2.0", "--tol", "0"],
        ["curve", "--model", "vsasm", "--samples", "1"],
        ["curve", "--model", "vsasm", "--samples", "0"],
        ["plot", "--model", "aztec", "--z-min", "1.5", "--z-max", "4", "--out", "."],
        ["onepoint", "--model", "aztec", "--n", "4", "--out", "."],
        ["verify", "--model", "aztec", "--n", "2", "--json-out", "."],
        ["oracle", "--model", "aztec", "--n", "2", "--dump", "d.ndjson"],
        ["saddle", "--model", "aztec", "--n", "512", "--z", "2.0", "--tol", "inf"],
        ["curve", "--model", "vsasm", "--samples", "10", "--tol", "inf"],
        ["saddle", "--model", "dyck", "--n", "64", "--z", "2", "--x-model", "inf"],
        ["envelope", "--model", "dyck", "--z-min", "0.5", "--z-max", "3", "--x-model", "nan"],
        *(["saddle", "--model", m, "--n", "64", "--z", "1e300"]
          for m in ("aztec", "dyck", "red", "staircase", "vsasm")),
        ["saddle", "--model", "dyck", "--n", "64", "--x-model", "1e12", "--z", "1"],
        *(["saddle", "--model", m.value, "--n", "4096", "--z", "inf"] for m in ModelId),
        *(["saddle", "--model", m.value, "--n", "1000000000000", "--z", "1.5"] for m in ModelId),
        ["onepoint", "--model", "dyck", "--n", "4", "--k", "100000000000"],
        ["onepoint", "--model", "red", "--n", "4", "--k", "100000000000"],
        ["envelope", "--model", "aztec", "--z-min", "1.1", "--z-max", "5", "--count", "1000000000"],
        ["envelope", "--model", "aztec", "--z-min", "1.1", "--z-max", "5",
         "--count", str(GRID_MAX + 1)],
        ["plot", "--model", "aztec", "--z-min", "1.1", "--z-max", "5", "--count", "1000000000",
         "--out", "."],
        ["curve", "--model", "vsasm", "--samples", "1000000000"],
        ["curve", "--model", "aztec", "--samples", str(GRID_MAX + 1)],
        ["curve", "--model", "vsasm", "--samples", "10", "--x-model", "1"],
        ["saddle", "--model", "aztec", "--n", "512", "--z", "2.0", "--k", "3"],
        ["verify", "--model", "aztec", "--n", "4", "--k", "-5"],
        ["onepoint", "--model", "staircase", "--n", "4", "--k", "2"],
        ["oracle", "--model", "vsasm", "--n", "5", "--k", "2"],
        ["verify", "--model", "dyck", "--n", "4", "--k", "100000"],
        ["oracle", "--model", "dyck", "--n", "2", "--k", "100000"],
        ["verify", "--model", "aztec", "--n", "600"],
        *(["verify", "--model", m, "--n", "512"] for m in ("aztec", "staircase", "staircase-alt")),
        *(["verify", "--model", m, "--n", "512", "--k", "512"] for m in ("dyck", "red")),
        ["oracle", "--model", "red", "--n", "1500", "--k", "2"],
        ["oracle", "--model", "dyck", "--n", "2", "--k", "500"],
        *(["saddle", "--model", "red", "--n", "4096", "--z", "1", "--x-model", x]
          for x in ("1e17", "1e15")),
        ["saddle", "--model", "aztec", "--n", "4096", "--z", "1e308"],
        ["saddle", "--model", "dyck", "--n", "4096", "--z", "1e-300", "--x-model", "1"],
        ["saddle", "--model", "staircase-alt", "--n", "4096", "--z", "1.0001"],
        # Widths whose ellipse has a -inf coefficient (1.3e154) or an overflowing x_model**2.
        *([command, "--model", "dyck", "--x-model", x, "--z-min", "1e160", "--z-max", "1e161", *out]
          for x in ("1.3e154", "1.4e154")
          for command, out in (("envelope", ()), ("plot", ("--out", "fig.svg")))),
        # A width whose x_model**2 underflows: the ellipse loses its v^2 term.
        *([command, "--model", "dyck", "--x-model", "1e-170", "--z-min", "1", "--z-max", "2", *out]
          for command, out in (("envelope", ()), ("plot", ("--out", "fig.svg")))),
    ],
)
def test_invalid_inputs_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an input that is wrongly accepted writes its artifacts here
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds",
    [
        ["--z-min", "1.5", "--z-max", "inf"],
        ["--z-min", "nan", "--z-max", "4"],
        ["--z-min", "0.1", "--z-max", "1e308", "--spacing", "log"],
        ["--z-min=-1e308", "--z-max", "1e308"],
    ],
)
@pytest.mark.parametrize("command", ["envelope", "plot"])
def test_non_finite_z_grid_names_the_bounds(command, bounds, capsys, tmp_path):
    """Non-finite bounds, or bounds whose grid overflows, exit 2 naming the flags."""
    out = ["--out", str(tmp_path / "p.svg")] if command == "plot" else []
    with pytest.raises(SystemExit) as err:
        main([command, "--model", "aztec", *bounds, *out])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    # The message follows the usage line, which names every flag of the command.
    assert "--z-max" in err_text.splitlines()[-1] and "Traceback" not in err_text
    assert not (tmp_path / "p.svg").exists()


def test_reused_parser_prints_identical_bytes(capsys):
    argv = ["saddle", "--model", "dyck", "--n", "128", "--z", "1.5", "--x-model", "2"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--model", "aztec"])
    assert err.value.code == 2
    capsys.readouterr()
    code, report = run(["verify", "--model", "aztec", "--n", "3"], capsys)
    assert code == 0 and report["params"] == {"n": 3, "k": None}


def test_no_value_leaks_into_the_next_call(capsys):
    code, report = run(["verify", "--model", "dyck", "--n", "3", "--k", "3"], capsys)
    assert code == 0 and report["params"]["k"] == 3
    assert main(["verify", "--model", "aztec", "--n", "3"]) == 0
    assert '"k": null' in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, limit",
    [
        (["red", "--z", "1", "--x-model", "1e17"], "2**53"),
        (["dyck", "--z", "1e-300", "--x-model", "1"], "least target"),
    ],
)
def test_saddle_refusal_names_the_limit(args, limit, capsys):
    """Scans whose log-factorials pass 2**53, or whose target would be clamped, exit 2."""
    with pytest.raises(SystemExit) as err:
        main(["saddle", "--n", "4096", "--model", *args])
    assert err.value.code == 2
    assert limit in capsys.readouterr().err


# Run in a fresh interpreter: which watched modules are loaded after importing
# arctic.cli and running one command (if given).
_FRESH_CLI = """
import contextlib, io, json, sys
import arctic.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert arctic.cli.main(sys.argv[1:]) == 0
watched = ("numpy", "scipy", "sympy", "arctic.oracle", "argparse", "gettext")
print(json.dumps({"loaded": [m for m in watched if m in sys.modules]}))
"""


_FRESH_RUNS = [
    ("", []),
    ("saddle --model aztec --n 4096 --z 2.0", []),
    ("envelope --model staircase --z-min 1.05 --z-max 6 --count 16", []),
    ("curve --model vsasm --samples 10", []),
    ("onepoint --model staircase --n 12", []),
    ("verify --model aztec --n 4", []),
    ("oracle --model aztec --n 3", ["arctic.oracle"]),
    ("verify --model vsasm --n 7", ["arctic.oracle"]),
    ("verify --model vsasm --n 9", []),
    ("oracle --model vsasm --n 5", ["arctic.oracle"]),
]


@pytest.mark.parametrize("argv, loaded", _FRESH_RUNS, ids=[a or "import only" for a, _ in _FRESH_RUNS])
def test_fresh_cli_loads_only_what_it_runs(argv, loaded):
    """The import and every command leave numpy, scipy and sympy out (sympy checked
    the Dyck recurrence's certificate offline; none is a dependency) and argparse and
    gettext too (argv is read against the grammar table), and only the commands that
    run the brute-force oracle load it."""
    package_root = str(Path(arctic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root}
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI, *argv.split()], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == {"loaded": loaded}


def test_report_without_checks_fails():
    rep = Report("curve", "vsasm", {})
    assert not rep.passed
    rep.add("one check", 1, 1)
    assert rep.passed


def test_curve_command_and_failure_exit(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, report = run(
        ["curve", "--model", "vsasm", "--samples", "100", "--out", str(out)], capsys
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 101
    # An unmeetable tolerance must flip the exit code, not crash.
    code, report = run(["curve", "--model", "vsasm", "--samples", "64", "--tol", "1e-30"], capsys)
    assert code == 1
    assert not report["checks"][0]["pass"]


def test_curve_rejects_model_without_parametric_form(capsys):
    with pytest.raises(SystemExit) as err:
        main(["curve", "--model", "staircase", "--samples", "10"])
    assert err.value.code == 2


def test_plot_writes_svg(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, _ = run(
        ["plot", "--model", "aztec", "--z-min", "1.1", "--z-max", "5", "--count", "24",
         "--out", str(out)],
        capsys,
    )
    assert code == 0 and out.read_text().endswith("</svg>\n")


def test_json_report_written_to_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, report = run(
        ["verify", "--model", "aztec", "--n", "4", "--json-out", str(path)], capsys
    )
    assert code == 0
    assert json.loads(path.read_text()) == report


# ---------------------------------------------------------------------------
# SVG emitter
# ---------------------------------------------------------------------------


def test_emit_svg_deterministic_and_curve_only():
    curve = MODEL_OPS[ModelId.AZTEC].limit_curve(1.0)
    lines = tangent_family(ModelId.AZTEC, [1.2 + 0.2 * i for i in range(10)])
    a = emit_svg(lines, [(0.0, 1.7)], curve)
    b = emit_svg(lines, [(0.0, 1.7)], curve)
    assert a == b
    curve_only = emit_svg([], [], curve)
    assert "<path" in curve_only and "<line" not in curve_only


def test_consecutive_runs_are_byte_identical(tmp_path, capsys):
    prefix = tmp_path / "env"
    argv = [
        "envelope", "--model", "vsasm", "--z-min", "0.1", "--z-max", "1.0",
        "--count", "32", "--out-prefix", str(prefix), "--json-out", str(prefix) + ".json",
    ]
    outs = []
    for _ in range(2):
        main(argv)
        capsys.readouterr()
        outs.append(
            tuple((tmp_path / f"env{ext}").read_bytes() for ext in (".csv", ".svg", ".json"))
        )
    assert outs[0] == outs[1]


# Whole reports of two exact commands: the digests hash only "checks", so these
# pin every other field and the layout.
_VERIFY_AZTEC_2 = """{
  "artifacts": [],
  "checks": [
    {
      "actual": "8/1",
      "expected": "8/1",
      "name": "bareiss det equals closed partition",
      "pass": true,
      "tolerance": "exact"
    },
    {
      "actual": "8/1",
      "expected": "8/1",
      "name": "lu pivot product equals bareiss det",
      "pass": true,
      "tolerance": "exact"
    },
    {
      "actual": true,
      "expected": true,
      "name": "lu factors reconstruct the matrix",
      "pass": true,
      "tolerance": "exact"
    },
    {
      "actual": true,
      "expected": true,
      "name": "closed L inverse inverts lu L",
      "pass": true,
      "tolerance": "exact"
    },
    {
      "actual": [],
      "expected": [],
      "name": "one-point closed form equals det ratio for every exit",
      "pass": true,
      "tolerance": "exact"
    }
  ],
  "command": "verify",
  "model": "aztec",
  "params": {
    "k": null,
    "n": 2
  },
  "version": "VERSION"
}
"""
_ORACLE_VSASM_3 = """{
  "artifacts": [
    "d.ndjson"
  ],
  "checks": [
    {
      "actual": 1,
      "expected": 1,
      "name": "brute-force count equals product formula",
      "pass": true,
      "tolerance": "exact"
    },
    {
      "actual": [
        0,
        1,
        0
      ],
      "expected": [
        0,
        1,
        0
      ],
      "name": "histogram equals refined formula",
      "pass": true,
      "tolerance": "exact"
    }
  ],
  "command": "oracle",
  "model": "vsasm",
  "params": {
    "size": 3
  },
  "version": "VERSION"
}
"""


def test_exact_reports_and_dump_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, want in [
        ("verify --model aztec --n 2", _VERIFY_AZTEC_2),
        ("oracle --model vsasm --n 3 --dump d.ndjson", _ORACLE_VSASM_3),
    ]:
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == want.replace("VERSION", arctic.__version__)
    assert (tmp_path / "d.ndjson").read_bytes() == b'{"entries": [[0, 1, 0], [1, -1, 1], [0, 1, 0]]}\n'


@pytest.mark.skipif(shutil.which("git") is None, reason="git is needed to make a work tree")
def test_report_independent_of_git_work_tree(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    plain = tmp_path / "plain"
    repo.mkdir()
    plain.mkdir()
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.invalid"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    # A commit gives git-derived version strings something to name.
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "init"], cwd=repo, check=True)
    argv = ["verify", "--model", "aztec", "--n", "6", "--json-out", "report.json"]
    reports = []
    for workdir in (repo, plain):
        monkeypatch.chdir(workdir)
        assert main(argv) == 0
        capsys.readouterr()
        reports.append((workdir / "report.json").read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# The report writer: the bytes of json.dumps(value, indent=2, sort_keys=True)
# ---------------------------------------------------------------------------


class _Int(int):
    def __repr__(self):  # json writes int.__repr__ of an int subclass, never its own repr
        return "not an int"


class _Float(float):
    def __repr__(self):
        return "not a float"


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, 1e-7, 1e22, 0.1,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
    st.builds(_Float, st.floats()),
)
_STRINGS = st.one_of(
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é ∞ 𝔸", "\ud800", "</script>"]),
    st.text(),
)
_INTS = st.one_of(
    st.integers(min_value=-(10**5000 - 1), max_value=10**5000 - 1),  # up to 5,000 digits
    st.integers(-(2**70), 2**70),
    st.builds(_Int, st.integers(-(2**70), 2**70)),
)
_KEYS = st.one_of(_STRINGS, st.integers(), st.floats(), st.booleans(), st.none())
_UNSUPPORTED = st.sampled_from([b"bytes", 1j, frozenset(), Fraction(1, 3), object()])
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _STRINGS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=4),
        st.dictionaries(st.floats(), inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=3),  # mixed key types: sorting them may raise
        st.dictionaries(st.sampled_from([(1,), frozenset()]), inner, min_size=1, max_size=1),
        st.lists(_UNSUPPORTED, min_size=1, max_size=1),
    ),
    max_leaves=24,
)


def _dumped(encode, value):
    """What ``encode`` writes for value, or ``TypeError``; any digit count is allowed."""
    with cli._all_digits():
        try:
            return encode(value)
        except TypeError:
            return TypeError


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_JSON_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [{}], 2: None})
@example({1: "x", 2.5: "y", True: "z", None: "w"})
@example({math.nan: 1, math.inf: 2, -math.inf: 3, -0.0: 4})
@example([10**4999 + 7, -(10**4999)])
@example(object())
def test_report_writer_gives_the_bytes_of_json_dumps(value):
    want = _dumped(lambda v: json.dumps(v, indent=2, sort_keys=True), value)
    assert _dumped(cli._json_text, value) == want


def test_every_bench_report_keeps_the_json_dumps_layout(bench_workloads, tmp_path, monkeypatch, capsys):
    """Each report of the three benchmark workloads at seeds 1 and 2 (each distinct op
    once) is printed as json.dumps(payload, indent=2, sort_keys=True) would print it."""
    ops = {op.key: op.argv for w in bench_workloads.WORKLOADS for seed in (1, 2)
           for op in bench_workloads.build(w, seed)}
    assert len(ops) > 200
    payloads = []
    writer = cli._json_text

    def kept(value, newline="\n"):
        if newline == "\n":
            payloads.append(value)
        return writer(value, newline)

    monkeypatch.setattr(cli, "_json_text", kept)
    monkeypatch.chdir(tmp_path)
    for key, argv in ops.items():
        assert main(list(argv)) == 0, key
        out = capsys.readouterr().out
        assert len(payloads) == 1, key
        with cli._all_digits():
            assert out == json.dumps(payloads.pop(), indent=2, sort_keys=True) + "\n", key
