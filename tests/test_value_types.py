"""Value semantics of the library's spec, result and model types.

They are ``typing.NamedTuple``s: equal and hashed as the tuple of their
fields, with read-only fields.  The records holding a list or a dict are
equal as their field tuples but not hashable.
"""
from fractions import Fraction

import pytest

from knotsurgery.borromean import SeifertResult
from knotsurgery.cone import ConeProblem, ScanResult, SurgeryResult
from knotsurgery.crosscheck import SuiteResult
from knotsurgery.formulas import (
    UNKNOT_PROFILE,
    ConditionReport,
    SutureDimProfile,
    WhDoubleResult,
    WhDoubleSpec,
)
from knotsurgery.knotcx import (
    Decomposition,
    PreconditionError,
    SquareSpec,
    StaircaseSpec,
    ValidationReport,
    build_staircase,
    validate,
)
from knotsurgery.linalg import Generator, LinearAlgebraError, space, sparse_map
from level_oracle import HomologyClass

SP = space([("a", 0, 0), ("b", 2, 1)])

VALUES = [
    (Generator("a", -2, 1), ("gid", "alex", "z2")),
    (SP, ("generators",)),
    (sparse_map(SP, SP, [("b", "a", 2)]), ("source", "target", "entries")),
    (HomologyClass("h0", (("a", Fraction(1)),), 0, 0), ("cid", "rep", "alex", "z2")),
    (StaircaseSpec(2), ("l",)),
    (SquareSpec(0, -1), ("s", "sign")),
    (build_staircase(1), ("space", "d_plus", "d_minus", "genus", "tau", "meta")),
    (SurgeryResult("fig8", 1, 1, 3, "decomposition"),
     ("knot", "p", "q", "dimension", "pathway", "per_grading")),
    (ScanResult("lspace", 1, ((1, 1),)), ("verdict", "witness", "dims")),
    (SeifertResult(Fraction(7, 2), 112, "large-surgery"), ("degree", "dim", "pathway")),
    (SutureDimProfile(1, 2), ("tau", "base_dim")),
    (WhDoubleSpec(3, UNKNOT_PROFILE), ("t", "companion")),
    (WhDoubleResult(1, 1, 0, 1), ("dim_plus_one", "dim_minus_one", "tau", "top_grading_dim")),
    (ConditionReport(True, ()), ("ok", "violations")),
    (SuiteResult("symmetries", 2, ()), ("name", "cases", "mismatches")),
]


@pytest.mark.parametrize("value, names", VALUES, ids=lambda v: type(v).__name__)
def test_equal_and_hashed_as_the_field_tuple(value, names):
    fields = tuple(getattr(value, name) for name in names)
    assert value == fields and hash(value) == hash(fields)


@pytest.mark.parametrize("value, names", VALUES, ids=lambda v: type(v).__name__)
def test_fields_are_read_only(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_derived_model_state_is_outside_equality():
    K = build_staircase(2)
    assert K.report.ok and K.report.decomposition == (2, {})
    assert K == build_staircase(2) and hash(K) == hash(build_staircase(2))


def test_a_negative_base_dimension_is_rejected():
    with pytest.raises(PreconditionError, match="base dimension must be nonnegative"):
        SutureDimProfile(0, -1)


def test_replace_runs_the_construction_checks():
    with pytest.raises(PreconditionError, match="base dimension must be nonnegative"):
        SutureDimProfile(0, 1)._replace(base_dim=-1)
    with pytest.raises(LinearAlgebraError, match="duplicate generator id 'a'"):
        SP._replace(generators=SP.generators + SP.generators[:1])
    d = sparse_map(SP, SP, [("b", "a", 2)])
    with pytest.raises(LinearAlgebraError, match="explicit zero entry"):
        d._replace(entries=(("b", "a", Fraction(0)),))
    assert SP._replace(generators=SP.generators[:1]).ids == ("a",)
    assert d._replace(entries=()).columns == {0: {}, 1: {}}


def test_validation_report_is_a_read_only_record():
    report = validate(build_staircase(1))
    assert report._fields == ("violations", "decomposition", "homology_blocks", "ranks")
    assert report == ([], (1, {}), ({(2, 0): 1}, {(-2, 0): 1}), ({(0, 1): 1}, {(0, 1): 1}))
    assert report.decomposition == Decomposition(1, {})
    with pytest.raises(AttributeError):
        report.decomposition = None
    assert ValidationReport(["x"]) == (["x"], None, None, None) and not ValidationReport(["x"]).ok


def test_cone_problem_is_a_read_only_record():
    prob = ConeProblem(1, 1, 1, 1, {0: (1, True, True, True)})
    assert prob._fields == ("p", "q", "window", "edge", "levels")
    with pytest.raises(AttributeError):
        prob.levels = {}
    with pytest.raises(TypeError):
        ConeProblem()


def test_reprs_are_unchanged():
    assert repr(Generator("a1", -2, 1)) == "Generator(gid='a1', alex=-2, z2=1)"
    assert repr(SquareSpec(0, -1)) == "SquareSpec(s=0, sign=-1)"
    assert repr(SurgeryResult("x", 0, 1, 6, "decomposition", ((0, 2), (1, None)))) == (
        "SurgeryResult(knot='x', p=0, q=1, dimension=6, pathway='decomposition', "
        "per_grading=((0, 2), (1, None)))")
