"""Library refusals: each input below is refused with an error that names the fault."""
import pytest

from knotsurgery.borromean import circle_bundle_dim_formula
from knotsurgery.catalog import get_knot
from knotsurgery.cone import PreconditionError, genus_one_positive_ladder
from knotsurgery.knotcx import ModelError, build_square, knot_spec_dict, parse_knot_spec
from knotsurgery.linalg import LinearAlgebraError, space


def _trefoil_spec(**changes):
    """The explicit spec of the right trefoil (a1 -> a2 -> a3 by alex), with fields replaced."""
    spec = knot_spec_dict(get_knot("trefoil-right"))
    spec.update(changes)
    return spec


def _d_plus_keeps_z2():
    spec = _trefoil_spec()
    spec["generators"][2]["z2"] = 1  # a3, the target of d+ from a2, now shares its grading
    return spec


CASES = [
    ("circle-bundle-genus-1", lambda: circle_bundle_dim_formula(1, 1),
     PreconditionError, "closed form requires genus at least 2"),
    ("ladder-slope-0", lambda: genus_one_positive_ladder(get_knot("trefoil-right"), 0),
     PreconditionError, "ladder requires a positive integral slope"),
    ("square-sign-0", lambda: build_square(0, 0), ModelError, r"square sign must be \+1 or -1"),
    ("z2-grading-2", lambda: space([("x", 0, 2)]),
     LinearAlgebraError, "generator 'x' has z2 grading 2, expected 0 or 1"),
    ("spec-of-neither-form", lambda: parse_knot_spec({"tau": 0}),
     ModelError, "knot spec needs either 'alexander' or 'generators'"),
    ("empty-alexander", lambda: parse_knot_spec({"alexander": [], "tau": 0}),
     ModelError, "empty Alexander polynomial"),
    ("two-element-arrow", lambda: parse_knot_spec(_trefoil_spec(d_plus=[["a2", "a3"]])),
     ModelError, r"knot spec d_plus\[0\] must be \[source, target, numerator, denominator\?\]"),
    ("thin-tau-past-degree",
     lambda: parse_knot_spec({"alexander": [[1, 1], [-1, 0], [1, -1]], "tau": 2}),
     ModelError, "tau = 2 exceeds the polynomial degree span 1"),
    ("d-plus-keeps-z2", lambda: parse_knot_spec(_d_plus_keeps_z2()),
     ModelError, "invalid explicit knot model: .*d\\+ does not flip the Z/2 grading on a2"),
    ("generator-beyond-genus", lambda: parse_knot_spec(_trefoil_spec(genus=0)),
     ModelError, r"invalid explicit knot model: generator beyond genus: \|grading\| 1.0 > genus 0"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
