"""The command-line grammar: flags read from ``cli.GRAMMAR``, usage errors, and an argv fuzz.

Every case is built from the table itself, so a new command or flag is covered
without an edit here, except for one valid invocation per command in ``VALID``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctic.cli import GRAMMAR, GRID_MAX, REQUIRED, main, parse_args
from arctic.models import EXACT_PROFILE_MAX, ModelId

# One passing invocation per command, as {flag: value}.
VALID = {
    "verify": {"--model": "aztec", "--n": "4"},
    "onepoint": {"--model": "staircase", "--n": "6", "--out": "profile.csv"},
    "oracle": {"--model": "aztec", "--n": "3"},
    "saddle": {"--model": "aztec", "--n": "512", "--z": "2.0", "--tol": "0.05"},
    "envelope": {"--model": "staircase", "--z-min": "1.05", "--z-max": "6", "--count": "16"},
    "curve": {"--model": "vsasm", "--samples": "10"},
    "plot": {"--model": "aztec", "--z-min": "1.1", "--z-max": "5", "--out": "fig.svg"},
}


def _argv(command, flags, joined=False):
    argv = [command]
    for flag, value in flags.items():
        argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv


def _run(argv):
    """Exit code, standard output and standard error of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_program_help_lists_every_command():
    code, out, err = _run(["--help"])
    assert (code, err) == (0, "")
    assert all(f"  {command} " in out for command in GRAMMAR)


@pytest.mark.parametrize("command", GRAMMAR)
@pytest.mark.parametrize("help_flag", ["-h", "--help"])
def test_command_help_lists_every_flag(command, help_flag):
    code, out, err = _run([command, "--model", "aztec", help_flag])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: arctic {command} ")
    assert all(f"  {flag} " in out for flag in GRAMMAR[command][2])


@pytest.mark.parametrize("command", GRAMMAR)
def test_flag_forms_and_orders_print_identical_reports(command, in_tmp):
    flags = VALID[command]
    code, spaced, err = _run(_argv(command, flags))
    assert (code, err) == (0, "")
    reordered = dict(reversed(flags.items()))
    assert _run(_argv(command, reordered, joined=True)) == (0, spaced, "")
    # A repeated flag keeps its last value.
    assert _run([command, "--model", "nope", *_argv(command, flags)[1:]]) == (0, spaced, "")


@pytest.mark.parametrize("command", GRAMMAR)
def test_negative_numbers_are_read_as_values(command):
    """A token like ``-5`` or ``-1e308`` after a numeric flag is its value, never a flag."""
    for flag, (kind, _, _) in GRAMMAR[command][2].items():
        if isinstance(kind, tuple) or kind is str:
            continue
        text = "-5" if kind is int else "-1e308"
        argv = _argv(command, {**VALID[command], flag: text})
        if kind in (int, float):
            assert getattr(parse_args(argv), flag[2:].replace("-", "_")) == kind(text)
        else:  # a converter that refuses it names the value
            code, _, err = _run(argv)
            assert code == 2 and f"argument {flag}: must be finite and > 0, got {text}" in err


def _usage_errors():
    """(argv, the tokens stderr must name) for each usage fault of each command."""
    cases = [([], ["no command given"]), (["frobnicate", "--model", "aztec"], ["'frobnicate'"])]
    for command, (_, _, flags) in GRAMMAR.items():
        valid = VALID[command]
        cases += [
            (_argv(command, valid) + ["--bogus", "1"], ["'--bogus'"]),
            (_argv(command, valid) + ["stray"], ["'stray'"]),
            ([command, "stray", *_argv(command, valid)[1:]], ["'stray'"]),
            (_argv(command, {**valid, "--mod": "aztec"}), ["'--mod'"]),
        ]
        for flag, (kind, default, _) in flags.items():
            rest = {f: v for f, v in valid.items() if f != flag}
            cases.append((_argv(command, rest) + [flag], [flag, "expects a value"]))
            cases.append(([command, flag, *_argv(command, rest)[1:]], [flag, "expects a value"]))
            if default is REQUIRED:
                cases.append((_argv(command, rest), [flag, "is required"]))
            if kind is not str:
                bad = "nope" if isinstance(kind, tuple) else "x1"
                cases.append((_argv(command, {**valid, flag: bad}), [flag, f"'{bad}'"]))
    return cases


@pytest.mark.parametrize("argv, named", _usage_errors(), ids=lambda v: " ".join(v) if v else "")
def test_usage_errors_exit_2_naming_the_fault(argv, named, in_tmp):
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    usage, message = err.splitlines()[0], err.splitlines()[-1]
    assert usage.startswith("usage: arctic") and "Traceback" not in err
    # The usage line names every flag, so the fault is looked for in the message.
    assert message.startswith("arctic") and all(token in message for token in named), err


# The values the fuzz draws for each flag type, as (routine, boundary); half the
# draws come from each list.  Sizes (--n, --k) come only from values the cost
# checks accept cheaply or refuse at once.  Other ints (--count, --samples) take
# their lower caps +-1 and GRID_MAX + 1, not the accepted values just under
# GRID_MAX, which would build a million-point grid.
_SIZES = (["4096", "4", "3", "2", "1"], ["0", "-1", str(EXACT_PROFILE_MAX + 1), str(2**53 + 1), "1000000000000"])
_INTS = (["24", "8", "16", "64"], ["0", "-1", "1", "2", "3", "7", "9", str(GRID_MAX + 1), "1000000000000"])
_FLOATS = (["2.0", "1.5", "4", "0.5", "1.05", "6"],
           ["0", "-0.0", "1", "-1", "1e-300", "1e300", "-1e300", "1e308", "nan", "inf", "-inf"])
_PATHS = (["artifact"], ["."])  # "." is a directory: writing to it fails


def _values(flag, kind):
    if isinstance(kind, tuple):  # one draw in seven is not a choice (of two)
        return st.sampled_from([*kind * 3, "nope"])
    if kind is str:
        routine, boundary = _PATHS
    elif kind is int:
        routine, boundary = _SIZES if flag in ("--n", "--k") else _INTS
    else:  # float and the converters built on it
        routine, boundary = _FLOATS
    return st.sampled_from(routine) | st.sampled_from(boundary)


def _fuzzed_argv(command, model):
    """argv for ``command`` with every flag of its table drawn, in any order and either form.

    A required flag is left out one time in eight, an optional one half the time.
    """
    flags = GRAMMAR[command][2]
    draws = [st.tuples(st.sampled_from([True] * 7 + [False] if default is REQUIRED else [True, False]),
                       st.booleans(), st.just(model) if flag == "--model" else _values(flag, kind))
             for flag, (kind, default, _) in flags.items()]

    def argv(drawn):
        order, *given = drawn
        tokens = [[f"{flag}={v}"] if joined else [flag, v] for flag, (kept, joined, v) in zip(flags, given) if kept]
        return [command, *(token for i in order if i < len(tokens) for token in tokens[i])]

    return st.tuples(st.permutations(range(len(flags))), *draws).map(argv)


@pytest.mark.parametrize("model", [m.value for m in ModelId])
@pytest.mark.parametrize("command", GRAMMAR)
def test_fuzzed_argv_keeps_the_exit_contract(command, model, in_tmp):
    """Exit 0 or 1 with a report holding a check, or 2 for a usage error; nothing else escapes."""

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(argv=_fuzzed_argv(command, model))
    def check(argv):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out == "" and "error: " in err
        else:
            assert json.loads(out)["checks"], argv

    check()
