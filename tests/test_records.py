"""The package's record types: how they are built, what they refuse, and that
the immutable ones stay immutable."""

import copy
import dataclasses
import math
import pickle
import re

import pytest

from arctic.cli import Report
from arctic.curves import CIRCLE_ARC, ImplicitCurve, ParametricCurve, aztec_parametric, circle
from arctic.linalg import ExactMatrix, LUPair, lu_exact
from arctic.models import MODEL_OPS, Lattice, ModelId
from arctic.oracle import AsmMatrix, PathFamilySpec
from arctic.tangent import SaddleResult, TangentLine

_starts = lambda n, k: ()  # noqa: E731
_exit = lambda n, k, ell: (ell, 0)  # noqa: E731
CURVE = (((2, 0), 1.0), ((0, 0), -1.0))
WINDOW = ((-1.0, 1.0), (0.0, 1.0))
EYE = ((1, 0), (0, 1))
LU = lu_exact(ExactMatrix.from_rows([[2, 1], [4, 3]]))

# (record, positional arguments, the same as keywords, fields left at their defaults)
BUILDS = [
    (SaddleResult, (0.5, 0.25, -3.0, 65, 1, False, 0.3),
     dict(z=0.5, xi_hat=0.25, log_mass=-3.0, n_used=65, plateau=1, degenerate=False, xi_star=0.3), {}),
    (ParametricCurve, ("arc", (0.0, 1.0), aztec_parametric, circle()),
     dict(name="arc", t_range=(0.0, 1.0), point=aztec_parametric, implicit=circle()), {}),
    (LUPair, (LU.L, LU.U), dict(L=LU.L, U=LU.U), {}),
    (Lattice, (((1, 0),), _starts, _starts, _exit),
     dict(steps=((1, 0),), starts=_starts, ends=_starts, exit_point=_exit), {"constraint": "none"}),
    (TangentLine, (0.5, 2.0, 1.0, (0.0, 1.0), (1.0, 3.0)),
     dict(z=0.5, slope=2.0, intercept=1.0, exit_point=(0.0, 1.0), target_point=(1.0, 3.0)),
     {"xi": math.nan}),
    (ImplicitCurve, ("unit", CURVE, WINDOW), dict(name="unit", coefficients=CURVE, window=WINDOW), {}),
    (PathFamilySpec, (((1, 0), (0, 1)), ((0, 0),), ((1, 1),)),
     dict(steps=((1, 0), (0, 1)), starts=((0, 0),), ends=((1, 1),)),
     {"constraint": "none", "progress": (1, 1)}),
    (AsmMatrix, (2, EYE), dict(size=2, entries=EYE), {}),
    (Report, ("verify", "aztec", {"n": 4}), dict(command="verify", model="aztec", params={"n": 4}),
     {"checks": [], "artifacts": []}),
]


IMMUTABLE = [build for build in BUILDS if build[0] is not Report]
ids = lambda builds: [build[0].__name__ for build in builds]  # noqa: E731


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        x is y or x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(a.values(), b.values())
    )


@pytest.mark.parametrize("cls, args, kwargs, defaults", BUILDS, ids=ids(BUILDS))
def test_built_by_position_or_keyword_with_the_same_defaults(cls, args, kwargs, defaults):
    expected = {**kwargs, **defaults}
    assert list(kwargs.values()) == list(args)
    for record in (cls(*args), cls(**kwargs)):
        assert _same({name: getattr(record, name) for name in expected}, expected)


@pytest.mark.parametrize("cls, args, kwargs, defaults", IMMUTABLE, ids=ids(IMMUTABLE))
def test_immutable_records_refuse_assignment(cls, args, kwargs, defaults):
    record = cls(*args)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert cls(*args) == record


def test_mutable_cli_records_are_slotted_and_do_not_share_lists():
    one, two = Report("verify", "aztec", {}), Report("verify", "aztec", {})
    one.add("c", 1, 2)
    one.artifacts.append("a.csv")
    assert (two.checks, two.artifacts) == ([], [])
    assert one.checks == [{"name": "c", "expected": 1, "actual": 2, "tolerance": "exact", "pass": False}]
    assert not one.passed
    with pytest.raises(AttributeError):
        one.extra = None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PathFamilySpec(((1, 0),), ((0, 0),), ()), "1 starts but 0 ends"),
        (lambda: PathFamilySpec(((1, 0),), (), (), "bogus"), "unknown constraint 'bogus'"),
        (lambda: PathFamilySpec(((1, 0),), (), (), "first-quadrant"), "unknown constraint 'first-quadrant'"),
        (lambda: PathFamilySpec(((1, 0), (-1, 0)), (), ()),
         "steps ((1, 0), (-1, 0)) admit no strict progress direction"),
        (lambda: AsmMatrix(2, ((1, 0),)), "entry grid does not match size"),
        (lambda: AsmMatrix(2, ((1, 1), (0, 0))), "line (1, 1) does not sum to 1"),
        (lambda: AsmMatrix(1, ((2,),)), "line (2,) does not sum to 1"),
        (lambda: AsmMatrix(3, ((0, 1, 0), (2, -1, 0), (-1, 1, 1))), "line (2, -1, 0) has entries outside -1, 0, 1"),
        (lambda: AsmMatrix(3, ((1, 1, -1), (0, 0, 1), (0, 0, 1))), "non-alternating line (1, 1, -1)"),
    ],
)
def test_invalid_input_raises_the_same_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_path_spec_derives_progress_and_takes_no_other():
    assert PathFamilySpec(((1, 1), (1, -1)), (), (), "upper-half").progress == (1, 0)
    with pytest.raises(TypeError):
        PathFamilySpec(((1, 0),), (), (), "none", (1, 0))
    spec = PathFamilySpec(((1, 0), (0, 1)), ((0, 0),), ((1, 1),), "upper-half")
    assert copy.copy(spec) == spec == pickle.loads(pickle.dumps(spec))


def test_records_compare_by_value_but_models_by_identity():
    assert CIRCLE_ARC == ParametricCurve(*CIRCLE_ARC)
    assert TangentLine(0.5, 2.0, 1.0, (0.0, 1.0), (1.0, 3.0), 0.1) == TangentLine(
        0.5, 2.0, 1.0, (0.0, 1.0), (1.0, 3.0), 0.1
    )
    model = MODEL_OPS[ModelId.AZTEC]
    twin = dataclasses.replace(model)
    assert twin is not model and twin != model and twin.exits is model.exits
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.n_min = 1
