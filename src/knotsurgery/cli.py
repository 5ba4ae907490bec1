"""Command-line front end.

Subcommands: surgery, zero-surgery, scan, circle-bundle, seifert,
whitehead, splice, classify, catalog, crosscheck.  Output is an aligned
text table by default or a JSON document with --json.  Exit codes:
0 ok, 1 usage error, 2 computation precondition violated, 3 cross-check
mismatch.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import borromean, catalog, cone, crosscheck, formulas
from .knotcx import ModelError, chi_graded, parse_knot_spec, parse_poly_pairs, poly_str
from .linalg import LinearAlgebraError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1/2" as a value, like "-1": slopes and fibre pairs may be
        # negative fractions, and a malformed one ("-1/2/3") reaches _parse_slope.
        self._negative_number_matcher = re.compile(r"^-\d[-\d/]*$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# Most digits in an integer read from the command line, checked before it
# is converted.  Every answer then stays below Python's 4300-digit limit on
# ``str(int)``: the largest, ``splice``'s, is a product of two arguments.
MAX_ARG_DIGITS = 1000


class _TooManyDigits(argparse.ArgumentTypeError):
    """An integer argument past MAX_ARG_DIGITS; argparse names its flag."""


def _int_arg(text: str) -> int:
    """The integer in ``text``: the type of every integer flag, and the reader of slope parts."""
    if len(text.strip().lstrip("+-")) > MAX_ARG_DIGITS:
        raise _TooManyDigits(f"more than MAX_ARG_DIGITS = {MAX_ARG_DIGITS} digits")
    try:
        return int(text)
    except ValueError:  # argparse's own wording for a malformed int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_slope(text: str, flag: str = "--slope"):
    """Parse a slope string 'p/q' or 'p' given to flag; returns (p, q) with q >= 1.

    Errors name the argument by its flag: "slope '1/0' ..." or "pair '1/0' ...".
    """
    top, slash, bottom = text.strip().partition("/")
    name = flag.lstrip("-")
    try:
        p, q = _int_arg(top), (_int_arg(bottom) if slash else 1)
    except _TooManyDigits as exc:
        raise cone.PreconditionError(f"argument {flag}: {exc}") from None
    except argparse.ArgumentTypeError:
        raise cone.PreconditionError(f"{name} {text!r} is not of the form p or p/q") from None
    if q < 0:
        p, q = -p, -q
    if q == 0:
        raise cone.PreconditionError(f"{name} {text!r} has denominator zero")
    return p, q


class JSONInputError(Exception):
    """A --spec or --profile file, or --delta text, that is not UTF-8 JSON; the message names it."""


def _decode_json(text: str, source: str):
    """The JSON document in ``text``; a JSONInputError names ``source``, a file or --delta."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, too many digits or nested too deep
        raise JSONInputError(f"{source}: invalid JSON input: {exc}") from None


def _read_json(path: str):
    """The JSON document in a file; ``main`` turns an unreadable file into exit code 1."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _decode_json(fh.read(), path)
        except UnicodeDecodeError as exc:  # from the read: _decode_json raises none
            raise JSONInputError(f"{path}: {exc}") from None


def _load_knot(args):
    if getattr(args, "spec", None):
        return parse_knot_spec(_read_json(args.spec))
    if getattr(args, "knot", None):
        return catalog.get_knot(args.knot)
    raise cone.PreconditionError("no knot given: use --knot NAME or --spec FILE")


def _load_profile(args) -> formulas.SutureDimProfile:
    """The companion profile from --profile or the two companion flags, checked against --gamma0."""
    if args.profile:
        data = _read_json(args.profile)
    elif args.companion_tau is None or args.companion_base is None:
        raise cone.PreconditionError(
            "no companion profile: use --profile FILE or --companion-tau/--companion-base")
    else:
        data = {"tau": args.companion_tau, "base_dim": args.companion_base}
    prof = formulas.parse_profile(data)
    prof.check_gamma0(args.gamma0)
    return prof


def _emit(args, payload: dict, table_rows: list, headers: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    rows = [[str(c) for c in row] for row in table_rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def cmd_surgery(args) -> int:
    slopes = sorted({_parse_slope(s) for s in args.slope},
                    key=lambda pq: (Fraction(pq[0], pq[1]), pq[1]))
    K = _load_knot(args)
    if args.compare:
        rows = []
        records = []
        for p, q in slopes:
            if p == 0:
                raise cone.PreconditionError("slope 0 has no pathway comparison; "
                                             "use the zero-surgery subcommand")
            values = crosscheck.pathway_values(K, p, q)
            agree = len(set(values.values())) == 1
            records.append({"knot": K.name, "slope": f"{p}/{q}", "values": values,
                            "agree": agree})
            rows.append([K.name, f"{p}/{q}", *(values.get(n, "-") for n in crosscheck.PATHWAYS),
                         agree])
        payload = {"command": "surgery", "compare": True, "results": records}
        _emit(args, payload, rows, ["knot", "slope", *crosscheck.PATHWAYS, "agree"])
        return EXIT_OK if all(r["agree"] for r in records) else EXIT_MISMATCH
    results = []
    for p, q in slopes:
        if p == 0:
            table = cone.zero_surgery_dims(K)
            results.append(cone.SurgeryResult(K.name, 0, 1, sum(d or 0 for d in table.values()),
                                              "decomposition", tuple(sorted(table.items()))))
        else:
            results.append(cone.surgery_dim(K, p, q))
    payload = {"command": "surgery", "results": [r.to_json_dict() for r in results]}
    rows = []
    for r in results:
        note = ""
        if r.per_grading is not None:
            note = " ".join(f"s={s}:{'undetermined (tau=0)' if d is None else d}"
                            for s, d in r.per_grading)
        rows.append([r.knot, r.slope, r.dimension, r.pathway, note])
    _emit(args, payload, rows, ["knot", "slope", "dim", "pathway", "per-grading"])
    return EXIT_OK


def cmd_zero_surgery(args) -> int:
    K = _load_knot(args)
    table = cone.zero_surgery_dims(K)
    payload = {"command": "zero-surgery", "knot": K.name,
               "per_grading": {str(s): d for s, d in sorted(table.items())}}
    rows = [[K.name, s, "undetermined (tau=0)" if d is None else d]
            for s, d in sorted(table.items())]
    _emit(args, payload, rows, ["knot", "grading", "dim"])
    return EXIT_OK


def cmd_scan(args) -> int:
    K = _load_knot(args)
    res = cone.almost_lspace_scan(K)
    payload = {"command": "scan", "knot": K.name, **res.to_json_dict()}
    witness = "-" if res.witness is None else res.witness
    dims = " ".join(f"{n}:{d}" for n, d in res.dims)
    _emit(args, payload, [[K.name, res.verdict, witness, dims]],
          ["knot", "verdict", "witness", "dims"])
    return EXIT_OK


def cmd_circle_bundle(args) -> int:
    a = borromean.circle_bundle_dim_module(args.genus, args.euler)
    b = borromean.circle_bundle_dim_formula(args.genus, args.euler)
    payload = {"command": "circle-bundle", "genus": args.genus, "euler": args.euler,
               "dim_module": a, "dim_formula": b, "agree": a == b}
    _emit(args, payload, [[args.genus, args.euler, a, b, a == b]],
          ["genus", "euler", "dim-module", "dim-formula", "agree"])
    return EXIT_OK if a == b else EXIT_MISMATCH


def cmd_seifert(args) -> int:
    pairs = [_parse_slope(p, "--pair") for p in args.pair or []]
    res = borromean.seifert(args.genus, args.base, pairs)
    payload = {"command": "seifert", "genus": args.genus, "base": args.base,
               "pairs": [[r, v] for r, v in pairs], "degree": str(res.degree),
               "dim": res.dim, "pathway": res.pathway}
    _emit(args, payload,
          [[args.genus, args.base, " ".join(f"{r}/{v}" for r, v in pairs) or "-",
            str(res.degree), res.dim, res.pathway]],
          ["genus", "base", "pairs", "degree", "dim", "pathway"])
    return EXIT_OK


def cmd_whitehead(args) -> int:
    prof = _load_profile(args)
    spec = formulas.WhDoubleSpec(args.twists, prof)
    if args.clasp == "neg":
        res = formulas.whitehead_double_negative_clasp(spec)
    else:
        res = formulas.whitehead_double_pm1(spec)
    payload = {"command": "whitehead", "twists": args.twists, "clasp": args.clasp,
               "companion": {"tau": prof.tau, "base_dim": prof.base_dim},
               **res.to_json_dict()}
    _emit(args, payload,
          [[args.twists, args.clasp, res.dim_plus_one, res.dim_minus_one,
            res.tau, res.top_grading_dim]],
          ["twists", "clasp", "dim(+1)", "dim(-1)", "tau", "top-dim"])
    return EXIT_OK


def cmd_splice(args) -> int:
    prof = _load_profile(args)
    dim = formulas.splice_dim(args.n, prof)
    payload = {"command": "splice", "n": args.n,
               "companion": {"tau": prof.tau, "base_dim": prof.base_dim},
               "dim": dim}
    _emit(args, payload, [[args.n, prof.tau, prof.gamma0, dim]],
          ["n", "companion-tau", "gamma0", "dim"])
    return EXIT_OK


def cmd_classify(args) -> int:
    delta = _decode_json(args.delta, "--delta")
    candidates = formulas.nearly_fibered_classify(args.dim, parse_poly_pairs(delta, "--delta"))
    payload = {"command": "classify", "dim": args.dim, "delta": delta,
               "candidates": list(candidates)}
    _emit(args, payload, [[args.dim, c] for c in candidates], ["dim", "candidate"])
    return EXIT_OK


def cmd_catalog(args) -> int:
    rows = []
    entries = []
    for name in catalog.knot_names():
        K = catalog.get_knot(name)
        delta = poly_str(chi_graded(K))
        entries.append({"name": name, "alexander": delta, "tau": K.tau,
                        "genus": K.genus, "dim": K.dim})
        rows.append([name, delta, K.tau, K.genus, K.dim])
    payload = {"command": "catalog", "knots": entries}
    _emit(args, payload, rows, ["name", "alexander", "tau", "genus", "dim"])
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    names = None if args.all or not args.suite else args.suite
    results = crosscheck.run_suites(names)
    payload = {"command": "crosscheck",
               "suites": [r.to_json_dict() for r in results],
               "ok": all(r.ok for r in results)}
    rows = [[r.name, r.cases, "ok" if r.ok else f"{len(r.mismatches)} mismatches"]
            for r in results]
    _emit(args, payload, rows, ["suite", "cases", "status"])
    if not args.json:
        for r in results:
            for m in r.mismatches:
                print(f"MISMATCH [{r.name}]: {m}")
    return EXIT_OK if all(r.ok for r in results) else EXIT_MISMATCH


def build_parser() -> _Parser:
    parser = _Parser(prog="knotsurgery",
                     description="surgery-invariant dimensions on knot models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_knot_args(p):
        p.add_argument("--knot", help="catalog knot name")
        p.add_argument("--spec", help="path to a knot-spec JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("surgery", help="dimension at one or more slopes")
    add_knot_args(p)
    p.add_argument("--slope", action="append", required=True,
                   help="slope p/q (repeatable); 0 routes to the zero-surgery table")
    p.add_argument("--compare", action="store_true",
                   help="show every applicable pathway's value side by side")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("zero-surgery", help="per-grading zero-surgery table")
    add_knot_args(p)
    p.set_defaults(func=cmd_zero_surgery)

    p = sub.add_parser("scan", help="minimal-dimension classification scan")
    add_knot_args(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("circle-bundle", help="circle bundle over a surface")
    p.add_argument("--genus", type=_int_arg, required=True)
    p.add_argument("--euler", type=_int_arg, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_circle_bundle)

    p = sub.add_parser("seifert", help="Seifert fibered space (nonzero degree)")
    p.add_argument("--genus", type=_int_arg, required=True)
    p.add_argument("--base", type=_int_arg, required=True, help="integer invariant m")
    p.add_argument("--pair", action="append", help="exceptional fiber r/v (repeatable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_seifert)

    p = sub.add_parser("whitehead", help="twisted double dimensions at slopes +1/-1")
    p.add_argument("--twists", type=_int_arg, required=True)
    p.add_argument("--clasp", choices=("pos", "neg"), default="pos")
    p.add_argument("--profile", help="companion-profile JSON file")
    p.add_argument("--companion-tau", type=_int_arg)
    p.add_argument("--companion-base", type=_int_arg)
    p.add_argument("--gamma0", type=_int_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_whitehead)

    p = sub.add_parser("splice", help="splice with a twist-knot complement")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--profile", help="companion-profile JSON file")
    p.add_argument("--companion-tau", type=_int_arg)
    p.add_argument("--companion-base", type=_int_arg)
    p.add_argument("--gamma0", type=_int_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_splice)

    p = sub.add_parser("classify", help="genus-one nearly-fibered candidates")
    p.add_argument("--dim", type=_int_arg, required=True, help="total knot-homology dimension")
    p.add_argument("--delta", required=True,
                   help="Alexander polynomial as JSON [[coef, power], ...]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("catalog", help="list built-in knots")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("crosscheck", help="run pathway agreement suites")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--suite", action="append",
                   help=f"suite name (repeatable); one of: {', '.join(crosscheck.ALL_SUITES)}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (cone.PreconditionError, ModelError, LinearAlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, JSONInputError) as exc:  # from _read_json and --delta
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
