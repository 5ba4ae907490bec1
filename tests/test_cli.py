"""Command-line interface: parsing, output formats, exit codes, round trips."""
import json

import pytest

from knotsurgery import borromean, crosscheck, formulas
from knotsurgery.catalog import get_knot
from knotsurgery.cli import MAX_ARG_DIGITS, main
from knotsurgery.cone import SurgeryResult, build_cone_problem
from knotsurgery.crosscheck import PATHWAYS, SuiteResult
from knotsurgery.knotcx import (
    MAX_MODEL_DIM,
    MAX_MODEL_GENUS,
    MAX_SPEC_BITS,
    ModelError,
    SquareSpec,
    StaircaseSpec,
    assemble,
    decompose,
    knot_spec_dict,
    mirror,
    parse_knot_spec,
    poly_to_pairs,
    staircase_polynomial,
)
from knot_helpers import TWO_SURVIVORS_SPEC, wide_model


def run(capsys, *argv):
    """(exit code, stdout, stderr), the code also from a usage error's SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_surgery_table(capsys):
    code, out, _ = run(capsys, "surgery", "--knot", "fig8", "--slope", "1")
    assert code == 0
    assert "figure-eight" in out and "1/1" in out and " 3 " in out.replace("3 ", " 3 ")


def test_surgery_json_round_trip(capsys):
    code, out, _ = run(capsys, "surgery", "--knot", "5_2-bar", "--slope", "1",
                       "--slope", "-1", "--slope", "5/2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "surgery"
    for rec in payload["results"]:
        res = SurgeryResult.from_json_dict(rec)
        assert res.to_json_dict() == rec
    dims = {r["slope"]: r["dim"] for r in payload["results"]}
    assert dims["1/1"] == 3 and dims["-1/1"] == 5


def test_surgery_slope_zero_routes_to_table(capsys):
    code, out, _ = run(capsys, "surgery", "--knot", "mirror-t2_5", "--slope", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    rec = payload["results"][0]
    assert rec["per_grading"] == {"-1": 2, "0": 2, "1": 2}


def test_surgery_compare_pathways(capsys):
    code, out, _ = run(capsys, "surgery", "--knot", "fig8", "--slope", "1",
                       "--slope", "1/2", "--compare", "--json")
    assert code == 0
    payload = json.loads(out)
    by_slope = {r["slope"]: r for r in payload["results"]}
    assert by_slope["1/1"]["values"] == {"decomposition": 3, "cone": 3, "large-surgery": 3,
                                         "ladder": 3}
    assert by_slope["1/2"]["values"] == {"decomposition": 5, "cone": 5}
    assert all(r["agree"] for r in payload["results"])


def test_surgery_compare_table_shows_the_decomposition(capsys):
    code, out, _ = run(capsys, "surgery", "--knot", "t2_7", "--slope", "7/3", "--compare")
    header, row = out.splitlines()
    assert code == 0
    assert header.split() == ["knot", "slope", "decomposition", "cone", "large-surgery",
                              "ladder", "agree"]
    assert row.split() == ["t2_7", "7/3", "23", "23", "-", "-", "True"]


@pytest.mark.parametrize("slope", ["-1000000000000000000000000000001",
                                   "-1000000000000000000000000000001/7"])
def test_surgery_compare_counts_targets_past_a_machine_word(capsys, slope):
    # the cone's retained slots number more than sys.maxsize, which len()
    # of their range cannot return
    code, out, err = run(capsys, "surgery", "--knot", "fig8", "--slope", slope, "--compare")
    assert code == 0 and not err
    _, row = out.splitlines()
    _, _, decomposition, ranked, *_, agree = row.split()
    assert ranked == decomposition and agree == "True"


@pytest.mark.parametrize("K", [assemble(StaircaseSpec(1), [SquareSpec(0, 1), SquareSpec(0, -1)]),
                               assemble(StaircaseSpec(0), [SquareSpec(1, 1), SquareSpec(-1, -1)])],
                         ids=["tau1-squares-at-0", "tau0-squares-at-pm1"])
def test_surgery_compare_columns_are_the_pathway_table(tmp_path, capsys, K):
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(knot_spec_dict(K)))
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1", "--compare")
    header, row = out.splitlines()
    assert code == 0 and not err
    assert header.split() == ["knot", "slope", *PATHWAYS, "agree"]
    assert row.split()[-1] == "True"


@pytest.mark.parametrize("compare", [[], ["--compare"]], ids=["plain", "compare"])
def test_surgery_rejects_an_unreduced_slope(tmp_path, capsys, compare):
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(knot_spec_dict(get_knot("5_2-bar"))))
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "2/4", *compare)
    assert code == 2 and not out
    assert err == "error: slope 2/4 is not reduced\n"


@pytest.mark.parametrize("spelling", [["--slope", "-1/2"], ["--slope=-1/2"], ["--slope", "1/-2"]],
                         ids=["separate", "joined", "negative-denominator"])
def test_surgery_accepts_a_negative_fractional_slope(capsys, spelling):
    code, out, err = run(capsys, "surgery", "--knot", "fig8", *spelling, "--json")
    assert code == 0 and not err
    rec = json.loads(out)["results"][0]
    # closed form with tau = 0: (5 - 1) * 2 / 2 + |-1| = 5
    assert (rec["slope"], rec["dim"], rec["pathway"]) == ("-1/2", 5, "decomposition")


def test_malformed_negative_slope_is_a_slope_error(capsys):
    code, out, err = run(capsys, "surgery", "--knot", "fig8", "--slope", "-1/2/3")
    assert code == 2 and not out
    assert err == "error: slope '-1/2/3' is not of the form p or p/q\n"


@pytest.mark.parametrize("pair, message", [
    ("1/0", "pair '1/0' has denominator zero"),
    ("1/2/3", "pair '1/2/3' is not of the form p or p/q"),
], ids=["zero-denominator", "malformed"])
def test_malformed_pair_is_a_pair_error(capsys, pair, message):
    code, out, err = run(capsys, "seifert", "--genus", "2", "--base", "1", "--pair", pair)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spelling", [["--pair", "-1/3"], ["--pair=-1/3"]],
                         ids=["separate", "joined"])
def test_seifert_accepts_a_negative_fractional_pair(capsys, spelling):
    code, out, err = run(capsys, "seifert", "--genus", "2", "--base", "1", *spelling, "--json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["pairs"] == [[-1, 3]] and payload["degree"] == "2/3"
    assert payload["dim"] == borromean.seifert_dim(2, 1, [(-1, 3)])


def test_zero_surgery_undetermined_slot(capsys):
    code, out, _ = run(capsys, "zero-surgery", "--knot", "fig8")
    assert code == 0
    assert "undetermined (tau=0)" in out


def test_slope_zero_names_the_decomposition(capsys):
    code, out, _ = run(capsys, "surgery", "--knot", "t2_5", "--slope", "0", "--json")
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert (rec["dim"], rec["pathway"], rec["per_grading"]) == (6, "decomposition",
                                                                {"-1": 2, "0": 2, "1": 2})


def test_scan_text(capsys):
    code, out, _ = run(capsys, "scan", "--knot", "trefoil-left")
    assert code == 0
    assert "almost" in out and "1" in out


def test_circle_bundle(capsys):
    code, out, _ = run(capsys, "circle-bundle", "--genus", "2", "--euler", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_module"] == 48 and payload["agree"] is True


def test_seifert_precondition_exit_code(capsys):
    code, _, err = run(capsys, "seifert", "--genus", "2", "--base", "0")
    assert code == 2
    assert "orbifold degree 0" in err


@pytest.mark.parametrize("argv, limit", [
    (["seifert", "--genus", "2", "--base", "1", "--pair", "1/101", "--pair", "1/103",
      "--pair", "1/107", "--pair", "1/109"], "MAX_MULTIPLICITY_PRODUCT = 100000"),
    (["circle-bundle", "--genus", "3000", "--euler", "1"], "MAX_GENUS = 200"),
    (["seifert", "--genus", "3000", "--base", "1"], "MAX_GENUS = 200"),
])
def test_oversized_input_hits_limit_before_work(capsys, argv, limit):
    import time
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and limit in err


def test_a_knot_cone_of_millions_of_slots_answers_at_once(capsys):
    # the knot cone's cost does not grow with its slots, here about 2 * 10^6
    import time
    start = time.perf_counter()
    code, out, _ = run(capsys, "surgery", "--knot", "fig8", "--slope", "1/1000000", "--compare")
    assert time.perf_counter() - start < 1.0
    header, row = (line.split() for line in out.splitlines())
    # figure-eight is thin of dimension 3 with tau = 0, so S^3_{1/q} has dimension 2q + 1
    assert code == 0 and dict(zip(header, row)) == {
        "knot": "figure-eight", "slope": "1/1000000", "decomposition": "2000001",
        "cone": "2000001", "large-surgery": "-", "ladder": "-", "agree": "True"}


@pytest.mark.parametrize("genus, pairs", [
    (15, [(1, 31), (1, 61), (1, 51)]),  # 31 * 96441 slots
    (200, [(1, 99991)]),  # 401 * 99991 slots
], ids=["genus-15", "genus-200"])
def test_a_seifert_cone_of_millions_of_slots_answers_at_once(capsys, genus, pairs):
    # nor does the exterior-algebra cone's, which sums one term per class key
    import time
    start = time.perf_counter()
    code, out, _ = run(capsys, "seifert", "--genus", str(genus), "--base", "0", "--json",
                       *(f"--pair={r}/{v}" for r, v in pairs))
    assert time.perf_counter() - start < 1.0
    rec = json.loads(out)
    assert code == 0 and rec["pathway"] == "cone"
    assert rec["dim"] == borromean.seifert_dim_windowed(genus, 0, pairs)


NINES = "9" * 4300  # an int that str() prints, but twice it does not
PAST = "9" * (MAX_ARG_DIGITS + 1)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, flag", [
    # arguments whose answers str() could not print, were they accepted
    (["surgery", "--knot", "fig8", "--slope", NINES], "--slope"),
    (["circle-bundle", "--genus", "2", "--euler", NINES], "--euler"),
    (["seifert", "--genus", "2", "--base", NINES], "--base"),
    (["whitehead", "--twists", NINES, "--companion-tau", "0", "--companion-base", "0"], "--twists"),
    (["splice", "--n", NINES, "--companion-tau", "0", "--companion-base", NINES], "--n"),
    # one digit past the limit, on the other integer arguments
    (["surgery", "--knot", "fig8", "--slope", f"1/{PAST}"], "--slope"),
    (["circle-bundle", "--genus", f"-{PAST}", "--euler", "1"], "--genus"),
    (["seifert", "--genus", "2", "--base", "1", "--pair", f"{PAST}/2"], "--pair"),
    (["whitehead", "--twists", "1", "--companion-tau", PAST, "--companion-base", "0"],
     "--companion-tau"),
    (["splice", "--n", "1", "--companion-tau", "0", "--companion-base", "1", "--gamma0", PAST],
     "--gamma0"),
    (["classify", "--dim", PAST, "--delta", "[[1, 0]]"], "--dim"),
], ids=["surgery", "circle-bundle", "seifert", "whitehead", "splice",
        "slope-q", "genus", "pair", "companion-tau", "gamma0", "dim"])
def test_integer_argument_past_the_digit_limit_is_refused(capsys, argv, flag, json_flag):
    code, out, err = run(capsys, *argv, *json_flag)
    assert code in (1, 2) and not out
    assert f"argument {flag}: more than MAX_ARG_DIGITS = {MAX_ARG_DIGITS} digits" in err


def test_integers_at_the_digit_limit_give_printable_answers(capsys):
    big = "9" * MAX_ARG_DIGITS
    code, out, _ = run(capsys, "splice", "--n", big, "--companion-tau", big,
                       "--companion-base", big, "--json")
    profile = formulas.SutureDimProfile(int(big), int(big))
    assert code == 0 and json.loads(out)["dim"] == formulas.splice_dim(int(big), profile)
    code, out, _ = run(capsys, "surgery", "--knot", "fig8", "--slope", f"{big}/1{'0' * 999}")
    assert code == 0 and "decomposition" in out


def _first_primes(n: int) -> list:
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_multiplicity_product_too_long_to_print_exits_2(capsys):
    # the product of the first 1500 primes has more digits than str(int) allows
    pairs = [f"--pair=1/{p}" for p in _first_primes(1500)]
    code, _, err = run(capsys, "seifert", "--genus", "2", "--base", "1", *pairs)
    assert code == 2
    assert err.startswith("error: prod v_i, a ") and err.endswith(
        "-bit number, exceeds the limit MAX_MULTIPLICITY_PRODUCT = 100000\n")


def test_large_denominator_is_answered_without_a_cone(capsys):
    # without --compare no cone is built: the decomposition answers alone
    import time
    start = time.perf_counter()
    code, out, _ = run(capsys, "surgery", "--knot", "fig8", "--slope", "1/1000000", "--json")
    assert time.perf_counter() - start < 1.0
    rec = json.loads(out)["results"][0]
    assert code == 0 and (rec["dim"], rec["pathway"]) == (2000001, "decomposition")


@pytest.fixture
def seifert_calls(monkeypatch):
    """Per Seifert stage, one entry a call: the setup's arguments, the count's result,
    and the classes that the large-regime test and the cone read."""
    calls = {"setup": [], "count": [], "large": [], "cone": []}

    def record(name, key, entry):
        original = getattr(borromean, name)

        def wrapper(*args):
            result = original(*args)
            calls[key].append(entry(args, result))
            return result
        monkeypatch.setattr(borromean, name, wrapper)

    record("_seifert_setup", "setup", lambda args, _: args)
    record("_residue_class_counts", "count", lambda _, classes: classes)
    record("_large_applicable", "large", lambda args, _: args[1])
    record("_cone_dim_exterior", "cone", lambda args, _: args[3])
    return calls


def _assert_one_shared_count(calls, pathway):
    assert len(calls["setup"]) == len(calls["count"]) == 1
    # the large-regime test and the cone read the one count
    shared = calls["large"] + calls["cone"]
    assert len(shared) == (2 if pathway == "cone" else 1)
    assert all(classes is calls["count"][0] for classes in shared)


@pytest.mark.parametrize("base, pathway", [("1", "cone"), ("3", "large-surgery")])
def test_seifert_sets_up_once(capsys, seifert_calls, base, pathway):
    code, out, _ = run(capsys, "seifert", "--genus", "2", "--base", base, "--pair", "1/2", "--json")
    assert code == 0 and json.loads(out)["pathway"] == pathway
    _assert_one_shared_count(seifert_calls, pathway)
    for calls in seifert_calls.values():
        calls.clear()
    assert borromean.seifert_dim(2, int(base), [(1, 2)]) == json.loads(out)["dim"]
    _assert_one_shared_count(seifert_calls, pathway)


def test_circle_bundle_counts_no_seifert_classes(capsys, seifert_calls):
    code, _, _ = run(capsys, "circle-bundle", "--genus", "3", "--euler", "2", "--json")
    assert code == 0 and len(seifert_calls["cone"]) == 1
    assert seifert_calls["setup"] == seifert_calls["count"] == []


def test_whitehead_json(capsys):
    code, out, _ = run(capsys, "whitehead", "--twists", "1",
                       "--companion-tau", "0", "--companion-base", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {"+1": 3, "-1": 3}


def test_splice(capsys):
    code, out, _ = run(capsys, "splice", "--n", "3",
                       "--companion-tau", "0", "--companion-base", "2", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 13


@pytest.mark.parametrize("argv", [["whitehead", "--twists", "1"], ["splice", "--n", "3"]],
                         ids=["whitehead", "splice"])
@pytest.mark.parametrize("gamma0, code", [("3", 0), ("99", 2)], ids=["consistent", "inconsistent"])
def test_gamma0_is_checked_against_a_profile_file(tmp_path, capsys, argv, gamma0, code):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"tau": 1, "base_dim": 1}))  # gamma0 = 1 + |0 + 2| = 3
    got, out, err = run(capsys, *argv, "--profile", str(path), "--gamma0", gamma0)
    assert got == code
    if code:
        assert err == "error: inconsistent profile: gamma0 = 99 but tau/base give 3\n" and not out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--dim", "7", "--delta", "[[2,1],[-3,0],[2,-1]]")
    assert code == 0
    assert "5_2" in out
    code2, _, err = run(capsys, "classify", "--dim", "11", "--delta", "[[2,1],[-3,0],[2,-1]]")
    assert code2 == 2 and "not nearly-fibered" in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    payload = json.loads(out)
    names = {e["name"] for e in payload["knots"]}
    assert {"unknot", "figure-eight", "5_2-bar"} <= names


def test_crosscheck_fast_suite(capsys):
    code, out, _ = run(capsys, "crosscheck", "--suite", "whitehead-loop", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_crosscheck_unknown_suite(capsys):
    code, _, err = run(capsys, "crosscheck", "--suite", "nope")
    assert code == 2 and "unknown crosscheck suite" in err


def test_crosscheck_prints_a_mismatch_as_text(monkeypatch, capsys):
    planted = SuiteResult("whitehead-loop", 1, ["planted disagreement"])
    monkeypatch.setitem(crosscheck.ALL_SUITES, "whitehead-loop", lambda: planted)
    code, out, _ = run(capsys, "crosscheck", "--suite", "whitehead-loop")
    assert code == 3
    assert "1 mismatches" in out
    assert out.splitlines()[-1] == "MISMATCH [whitehead-loop]: planted disagreement"


@pytest.mark.parametrize("argv, message", [
    (["surgery", "--slope", "1"], "no knot given"),
    (["whitehead", "--twists", "1"], "no companion profile"),
    (["surgery", "--knot", "fig8", "--slope", "0", "--compare"],
     "slope 0 has no pathway comparison"),
], ids=["no-knot", "no-profile", "compare-at-slope-zero"])
def test_missing_input_and_slope_zero_comparison_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("t", range(-3, 4))
def test_negative_clasp_double_equals_the_ranked_cone_of_its_twist_knot(capsys, t):
    # the negative-clasp t-twisted double of the unknot is mirror(twist(-t)):
    # its (+1, -1) dims and tau are that model's ranked cone at +-1 and its tau
    code, out, _ = run(capsys, "whitehead", "--twists", str(t), "--clasp", "neg",
                       "--companion-tau", "0", "--companion-base", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    K = mirror(get_knot(f"twist({-t})"))
    assert K.name == f"mirror(twist({-t}))"
    cone_dims = {"+1": build_cone_problem(K, 1, 1).dimension(),
                 "-1": build_cone_problem(K, -1, 1).dimension()}
    assert (payload["dims"], payload["tau"]) == (cone_dims, K.tau)


def test_unknown_knot_exit_code(capsys):
    code, _, err = run(capsys, "surgery", "--knot", "nope", "--slope", "1")
    assert code == 2 and "unknown catalog knot" in err


def test_bad_slope_exit_code(capsys):
    code, _, err = run(capsys, "surgery", "--knot", "fig8", "--slope", "x/y")
    assert code == 2 and "slope" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["surgery", "--knot", "fig8"])  # missing required --slope
    assert exc.value.code == 1
    capsys.readouterr()


def test_spec_file_input(tmp_path, capsys):
    spec = {"name": "custom", "alexander": [[2, 1], [-3, 0], [2, -1]], "tau": 1}
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "surgery", "--spec", str(path), "--slope", "1", "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["dim"] == 3


def test_spec_file_rejects_asymmetric(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "alexander": [[1, 1], [1, 0]], "tau": 0}))
    code, _, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1")
    assert code == 2 and "not symmetric" in err


def _genus_400_staircase():
    return {"name": "g400", "tau": 400,
            "alexander": [[c, p] for p, c in staircase_polynomial(400).items()]}


def _explicit_spec_with_genus(genus):
    spec = knot_spec_dict(get_knot("trefoil-right"))
    spec["genus"] = genus
    return spec


def _squares_at_zero(c):
    """Thin spec of staircase(1) plus c - 1 squares at grading 0: coefficient norm 4c - 1."""
    return {"alexander": [[c, 1], [1 - 2 * c, 0], [c, -1]], "tau": 1}


# one generator, or the target of a d_plus arrow, at a grading whose half overflows a float
_FAR_GRADING = {"genus": 1, "tau": 0, "generators": [{"id": "a", "alex": 10 ** 400, "z2": 0}]}
_ARROW_TO_A_FAR_GRADING = {
    "genus": 1, "tau": 0, "d_plus": [["a", "b", 1]],
    "generators": [{"id": "a", "alex": 0, "z2": 0}, {"id": "b", "alex": 10 ** 400, "z2": 1}]}


@pytest.mark.parametrize("spec, limit", [
    (_genus_400_staircase(), "degree 400 exceeds the limit MAX_MODEL_GENUS = 200"),
    (_explicit_spec_with_genus(201), "genus 201 exceeds the limit MAX_MODEL_GENUS = 200"),
    (_squares_at_zero(10 ** 6),
     "coefficient norm 3999999 (the model dimension) exceeds the limit MAX_MODEL_DIM = 10000"),
    (_FAR_GRADING, f"generators[0] field 'alex': |alex| = {10 ** 400} exceeds the limit "
                   "MAX_MODEL_GENUS = 200"),
    (_ARROW_TO_A_FAR_GRADING, f"generators[1] field 'alex': |alex| = {10 ** 400} exceeds the "
                              "limit MAX_MODEL_GENUS = 200"),
], ids=["thin", "explicit", "thin-norm", "explicit-alex", "explicit-arrow-target"])
def test_spec_genus_hits_limit_before_work(tmp_path, capsys, spec, limit):
    import time
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and limit in err and not out


def test_spec_genus_at_the_limit_is_accepted():
    g = MAX_MODEL_GENUS
    K = parse_knot_spec({"alexander": [[c, p] for p, c in staircase_polynomial(g).items()],
                         "tau": g})
    assert K.genus == g and parse_knot_spec(knot_spec_dict(K)).genus == g


def test_spec_norm_at_the_limit_is_accepted():
    c = (MAX_MODEL_DIM + 1) // 4
    K = parse_knot_spec(_squares_at_zero(c))
    assert K.dim == 4 * c - 1 <= MAX_MODEL_DIM and decompose(K).squares == {(0, 1): c - 1}
    with pytest.raises(ModelError, match="MAX_MODEL_DIM"):
        parse_knot_spec(_squares_at_zero(c + 1))


def _explicit_squares(count):
    """Explicit spec of staircase(0) plus count squares at grading 0: 4 count + 1 generators and
    4 count entries, all units."""
    return knot_spec_dict(assemble(StaircaseSpec(0), [SquareSpec(0, -1)] * count))


def _explicit_with_coefficients(values):
    """``_explicit_squares(3)`` with both d_plus entries of square i scaled to the i-th
    [numerator, denominator] value, which keeps the model valid."""
    spec = _explicit_squares(3)
    for i, value in enumerate(values):
        for entry in spec["d_plus"][2 * i:2 * i + 2]:
            entry[2:] = value
    return spec


@pytest.mark.parametrize("spec, limit", [
    (_explicit_squares(2500), "knot spec has 10001 generators, over the limit MAX_MODEL_DIM = 10000"),
    (_explicit_squares(1251),
     "knot spec has 5004 d_plus and d_minus entries, over the limit MAX_SPEC_ENTRIES = 5000"),
    (_explicit_with_coefficients([[2 ** 64, 1]]), "knot spec d_plus: an entry scaled by the LCM "
     "of its denominators has 65 bits, over the limit MAX_SPEC_BITS = 64"),
    (_explicit_with_coefficients([[1, 2 ** 40], [1, 3 ** 30]]), "knot spec d_plus: the LCM of "
     "its denominators exceeds the limit MAX_SPEC_BITS = 64 bits"),
], ids=["generators", "entries", "entry-bits", "scale-bits"])
def test_explicit_spec_hits_limit_before_work(tmp_path, capsys, spec, limit):
    import time
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and limit in err and not out


def test_explicit_spec_at_the_limits_is_accepted():
    K = parse_knot_spec(_explicit_squares(1250))
    assert K.dim == 5001 and decompose(K) == (0, {(0, -1): 1250})
    # 2^63 has 64 bits; 1/2^32 and 3^20/(3^20 + 1) scale by their LCM 2^32 (3^20 + 1), of 63
    # bits, to 3^20 + 1 and 2^32 3^20, of 32 and 64 bits
    for values in ([[2 ** 63, 1]], [[1, 2 ** 32], [3 ** 20, 3 ** 20 + 1]]):
        spec = _explicit_with_coefficients(values)
        assert decompose(parse_knot_spec(spec)) == (0, {(0, -1): 3})


def test_maps_of_different_scales_stay_within_the_bit_limit(tmp_path, capsys):
    # staircase(1) with d+ times 2^60 and d- times 3^-38: each map fits MAX_SPEC_BITS
    # on its own scale, while one LCM of both would be 2^60 3^38, of 121 bits
    spec = {"name": "scaled-staircase", "genus": 1, "tau": 1,
            "generators": [{"id": "a1", "alex": -1, "z2": 0}, {"id": "a2", "alex": 0, "z2": 1},
                           {"id": "a3", "alex": 1, "z2": 0}],
            "d_plus": [["a2", "a3", 2 ** 60, 1]], "d_minus": [["a2", "a1", 1, 3 ** 38]]}
    K = parse_knot_spec(spec)
    assert decompose(K) == (1, {})
    assert all(abs(c).bit_length() <= MAX_SPEC_BITS
               for cols in K.integer_maps for col in cols.values() for c in col.values())
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1", "--slope", "-1",
                         "--compare", "--json")
    assert code == 0 and not err
    results = {r["slope"]: r for r in json.loads(out)["results"]}
    assert {slope: r["values"]["decomposition"] for slope, r in results.items()} == \
        {"1/1": 1, "-1/1": 3}
    assert all(r["agree"] for r in results.values())


@pytest.mark.parametrize("g, per_level, dim", [(20, 50, 7803), (MAX_MODEL_GENUS, 6, 9579)],
                         ids=["genus-20", "genus-max"])
def test_compare_answers_on_the_widest_thin_specs(tmp_path, capsys, g, per_level, dim):
    # staircase(1) plus squares at every level inside the genus: every level
    # of the table is read, and the spec limits alone bound that work
    K = wide_model(g, per_level)
    assert K.dim == dim <= MAX_MODEL_DIM and K.genus == g
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"alexander": [list(pair) for pair in poly_to_pairs(K.delta())],
                                "tau": 1}))
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1", "--slope", "-1",
                         "--slope", "3/2", "--slope", str(2 * g - 1), "--compare", "--json")
    assert code == 0 and not err
    results = json.loads(out)["results"]
    assert len(results) == 4 and all(r["agree"] for r in results)


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "surgery", "--spec", "/nonexistent.json", "--slope", "1")
    assert code == 1


@pytest.mark.parametrize("argv, flag", [
    (["surgery", "--slope", "1"], "--spec"),
    (["whitehead", "--twists", "1"], "--profile"),
], ids=["spec", "profile"])
@pytest.mark.parametrize("kind", ["directory", "binary", "invalid-json", "nested"])
def test_unreadable_input_file_exits_cleanly(tmp_path, capsys, argv, flag, kind):
    path = tmp_path
    if kind == "binary":
        path = tmp_path / "input.json"
        path.write_bytes(bytes(range(256)))
    elif kind in ("invalid-json", "nested"):
        path = tmp_path / "input.json"
        path.write_text('{"tau": ' if kind == "invalid-json" else "[" * 200000)
    code, out, err = run(capsys, *argv, flag, str(path))
    assert code == 1 and err.startswith("error: ") and not out
    assert str(path) in err
    assert {"directory": "Is a directory", "binary": f"{path}: 'utf-8' codec can't decode",
            "invalid-json": f"{path}: invalid JSON input: Expecting value",
            "nested": f"{path}: invalid JSON input: maximum recursion depth exceeded"}[kind] in err


def test_spec_integer_past_the_digit_limit_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"alexander": [[1, 0]], "tau": 1' + "0" * 5000 + "}")
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1")
    assert code == 1 and not out
    assert err.startswith(f"error: {path}: invalid JSON input: ") and "digits" in err
    assert "Traceback" not in err


def test_spec_with_two_survivors_exits_naming_the_homology_dims(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_SURVIVORS_SPEC))
    code, out, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1")
    assert code == 2 and not out
    assert err == ("error: invalid explicit knot model: one-differential homology dims "
                   "(2, 2) differ from the ambient value 1\n")


def _explicit_spec_without_z2():
    spec = knot_spec_dict(get_knot("trefoil-right"))
    del spec["generators"][0]["z2"]
    return spec


TREFOIL_PAIRS = [[1, 1], [-1, 0], [1, -1]]


@pytest.mark.parametrize("spec, field", [
    (_explicit_spec_without_z2(), "generators[0] is missing field 'z2'"),
    ({"name": "t", "alexander": TREFOIL_PAIRS}, "missing field 'tau'"),
    ({"name": "t", "alexander": TREFOIL_PAIRS, "tau": "x"}, "field 'tau' must be of type int"),
], ids=["generator-missing-z2", "missing-tau", "non-integer-tau"])
def test_malformed_spec_exits_cleanly(tmp_path, capsys, spec, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "surgery", "--spec", str(path), "--slope", "1")
    assert code == 2 and field in err


@pytest.mark.parametrize("delta, reason", [
    ("[[2,1", "Expecting ',' delimiter"),
    ("[[1" + "0" * 5000 + ",0]]", "Exceeds the limit (4300 digits)"),
    ("[" * 100000, "maximum recursion depth exceeded"),
], ids=["malformed", "huge-integer", "nested-past-the-recursion-limit"])
def test_classify_delta_that_is_not_json_exits_1(capsys, delta, reason):
    code, out, err = run(capsys, "classify", "--dim", "7", "--delta", delta)
    assert code == 1 and not out
    assert err.startswith("error: --delta: invalid JSON input: ") and reason in err


@pytest.mark.parametrize("delta", ['{"a":1}', '[[1,"x"]]'], ids=["object", "non-integer-power"])
def test_classify_rejects_malformed_delta(capsys, delta):
    code, _, err = run(capsys, "classify", "--dim", "7", "--delta", delta)
    assert code == 2 and "--delta must be a list of integer [coef, power] pairs" in err


@pytest.mark.parametrize("profile, field", [
    ({}, "missing field 'tau'"),
    ({"tau": "x", "base_dim": 1}, "field 'tau' must be of type int"),
    ({"tau": 0, "base_dim": 1, "gamma0": "z"}, "field 'gamma0' must be of type int"),
    ([1], "companion profile must be a JSON object"),
    ({"tau": 0.5, "base_dim": 1}, "field 'tau' must be of type int"),
], ids=["empty", "non-integer-tau", "non-integer-gamma0", "list", "fractional-tau"])
def test_malformed_profile_exits_cleanly(tmp_path, capsys, profile, field):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    for argv in (["whitehead", "--twists", "1"], ["splice", "--n", "3"]):
        code, out, err = run(capsys, *argv, "--profile", str(path))
        assert code == 2 and field in err and not out
