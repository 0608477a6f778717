"""Command line interface.

Subcommands:

  verify      relation checks (quadratic + braid) for a built-in or JSON input
  analyze     full Frobenius profile with the operator identity suites
  builtin     emit a built-in operator as a JSON document
  identities  the Hecke algebra antisymmetrizer identity suite up to --n
  hessian     order, subgroups and conjugacy classes of the Hessian group
  resultant   the six-by-six resultant identity of the scalar-braiding case
  obstruct    one of the four case contradictions, as a CaseReport
  skl3        predicates and tensors of a parameter triple

Reports are JSON on stdout and byte-identical across runs for identical
inputs; --timings writes wall-clock times to stderr and leaves stdout as it is.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .exactnum import FieldSpec, GENERIC_Q, PoleError
from .exprio import ExprError, format_scalar, parse_scalar
from .frobenius import (
    NoTopComponent,
    analyze,
    profile_json_dict,
    trace_table,
    verify_operator_identities,
)
from .heckealg import verify_identities
# obstruction and regular3 load only in the commands that use them
from .multipoly import PolyRing
from .report import CheckReport
from .symmetry import HeckeSymmetry, SymmetryError, dj_standard, flip

INPUT_ERROR = 2
CHECK_FAILURE = 1
# digits allowed in one parameter component, counting a decimal exponent as
# that many digits; the degree-24 case-1 resultant of such a triple stays
# well below the 4300 digits that str() of an int accepts
MAX_PARAM_DIGITS = 64
# options whose value may begin with "-" (-3,5,2 or -1/2), which argparse
# would otherwise take for an unknown flag
SIGNED_VALUE_FLAGS = ("--params", "--a", "--b", "--c", "--q")
COMMANDS = ("verify", "analyze", "builtin", "identities", "hessian", "resultant", "obstruct", "skl3")


class InputError(Exception):
    pass


def _at_least_one(value: Optional[int], flag: str, default: int) -> int:
    """The value of an optional count flag, or its default when it is absent."""
    if value is None:
        return default
    if value < 1:
        raise InputError("%s must be at least 1" % flag)
    return value


def _field_from_args(args) -> FieldSpec:
    kind = args.field or "ratfunc"
    if kind == "rational" and args.order is not None:
        raise InputError("--order does not apply to --field rational")
    try:
        base = FieldSpec("ratfunc_q" if kind == "ratfunc" else kind, _at_least_one(args.order, "--order", 1))
    except ValueError as exc:
        raise InputError("bad --order: %s" % exc) from None
    qexpr = args.q
    if kind == "ratfunc":
        if qexpr not in (None, "q"):
            raise InputError("q is the formal variable of the generic field")
        return base
    if qexpr is None:
        qexpr = "e" if kind == "cyclotomic" else "1"
    try:
        q0 = parse_scalar(qexpr, base)
    except ExprError as exc:
        raise InputError("bad --q expression: %s" % exc) from None
    if q0.is_zero():
        raise InputError("q must be nonzero")
    return base.with_q(q0)


def _load_symmetry(args, validate: bool) -> tuple:
    """Returns (symmetry, digest, source) from --builtin or a JSON path."""
    if getattr(args, "input", None) and getattr(args, "builtin", None):
        raise InputError("give either an input file or --builtin, not both")
    field_flags = [flag for flag in ("field", "order", "q") if getattr(args, flag) is not None]
    if getattr(args, "builtin", None):
        name = args.builtin
        if name == "flip" and field_flags:
            raise InputError("--%s does not apply to --builtin flip" % field_flags[0])
        dim = _at_least_one(args.dim, "--dim", 3 if name == "dj" else 2)
        if name == "dj":
            field = _field_from_args(args)
            sym = dj_standard(dim, field, validate)
        elif name == "flip":
            sym = flip(dim, validate)
        else:
            raise InputError("unknown builtin %r (try dj or flip)" % name)
        src = "builtin:%s:dim=%d:field=%s:order=%d:q=%s" % (
            name,
            dim,
            sym.field.kind,
            sym.field.order,
            "q" if sym.field.kind == "ratfunc_q" else format_scalar(sym.q),
        )
        digest = hashlib.sha256(src.encode()).hexdigest()
        return sym, digest, src
    if not getattr(args, "input", None):
        raise InputError("need an input file or --builtin NAME")
    if args.dim is not None:
        raise InputError("--dim does not apply to an input file")
    if field_flags:
        raise InputError("--%s does not apply to an input file, which names its own field" % field_flags[0])
    try:
        raw = open(args.input, "rb").read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.input, exc)) from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(
            "JSON parse error in %s at line %d column %d: %s"
            % (args.input, exc.lineno, exc.colno, exc.msg)
        ) from None
    try:
        sym = HeckeSymmetry.from_json_dict(doc, validate=validate)
    except (ExprError, SymmetryError, ValueError) as exc:
        raise InputError("bad operator document: %s" % exc) from None
    return sym, hashlib.sha256(raw).hexdigest(), args.input


def _emit(args, payload: dict) -> None:
    if getattr(args, "pretty", False):
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, separators=(",", ": ")) + "\n")


def _report(args, digest: str, report: CheckReport, extra: Optional[dict] = None) -> int:
    """Emits the report with its digest and the extra fields; the exit code of its verdict."""
    payload = {
        "tool": "heckesym",
        "version": __version__,
        "input_digest": digest,
        "ok": report.ok,
        "checks": [c.to_dict() for c in report.checks],
    }
    if extra:
        payload.update(extra)
    _emit(args, payload)
    return 0 if report.ok else CHECK_FAILURE


# -- subcommand handlers


def cmd_verify(args) -> int:
    sym, digest, _src = _load_symmetry(args, validate=False)
    report = CheckReport("verify")
    for name, rule, fn in (
        ("hecke-relation", "(R - q Id)(R + Id) = 0", sym.check_hecke),
        ("braid-relation", "(R x I)(I x R)(R x I) = (I x R)(R x I)(I x R)", sym.check_braid),
    ):
        t0 = time.monotonic()
        ok, witness = fn()
        report.record(name, rule, ok, witness)
        if args.timings:
            sys.stderr.write("wall: %s %.3fs\n" % (name, time.monotonic() - t0))
    return _report(args, digest, report, {"dim": sym.N})


def cmd_analyze(args) -> int:
    sym, digest, _src = _load_symmetry(args, validate=False)
    report = CheckReport("analyze")
    ok, witness = sym.check_hecke()
    report.record("hecke-relation", "(R - q Id)(R + Id) = 0", ok, witness)
    ok2, witness = sym.check_braid()
    report.record("braid-relation", "braid equation on three factors", ok2, witness)
    if not (ok and ok2):
        return _report(args, digest, report)
    n_max = _at_least_one(args.max_degree, "--max-degree", 2 * sym.N + 1)
    try:
        profile = analyze(sym, n_max)
    except NoTopComponent as exc:
        report.skip("profile", "one-dimensional top component with vanishing successor", str(exc))
        return _report(args, digest, report)
    ops = verify_operator_identities(profile)
    report.merge(ops)
    traces, table = trace_table(profile)
    report.merge(traces)
    body = profile_json_dict(profile, report)
    body["trace_table"] = table
    return _report(args, digest, report, body)


def cmd_builtin(args) -> int:
    sym, _digest, _src = _load_symmetry(args, validate=True)
    _emit(args, sym.to_json_dict())
    return 0


def cmd_identities(args) -> int:
    n = args.n
    if n < 1 or n > 6:
        raise InputError("--n must be between 1 and 6")
    report = verify_identities(n, GENERIC_Q)
    digest = hashlib.sha256(("identities:%d" % n).encode()).hexdigest()
    return _report(args, digest, report, {"n_max": n})


def cmd_hessian(args) -> int:
    from .regular3 import conjugacy_report
    report, data = conjugacy_report()
    digest = hashlib.sha256(b"hessian").hexdigest()
    return _report(args, digest, report, data if args.report else {"group_order": data["group_order"]})


def cmd_resultant(args) -> int:
    if not args.case1:
        raise InputError("only --case1 is defined")
    from .obstruction import verify_case1
    rep = verify_case1()
    digest = hashlib.sha256(b"resultant:case1").hexdigest()
    return _report(
        args,
        digest,
        rep.checks,
        {
            "identity": "Res(F1,F2,F3) = a^2*b^2*c^2*((a^3+b^3+c^3)^3 - 27*a^3*b^3*c^3)^2",
            "equations": rep.equations,
            "verdict": rep.verdict,
            "status": "PASS" if rep.ok else "FAIL",
        },
    )


def _parse_triple(texts, flags) -> tuple:
    """The rationals (a, b, c), refused before any arithmetic when a component
    is malformed or longer than MAX_PARAM_DIGITS, and when all three are zero."""
    triple = []
    for text, flag in zip(texts, flags):
        mantissa, _, exponent = text.strip().lower().partition("e")
        try:
            digits = sum(ch.isdigit() for ch in mantissa) + abs(int(exponent or 0))
            if digits > MAX_PARAM_DIGITS:
                raise InputError("%s has more than %d digits" % (flag, MAX_PARAM_DIGITS))
            triple.append(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad %s: %s" % (flag, exc)) from None
    if not any(triple):
        raise InputError("(a, b, c) must not be identically zero")
    return tuple(triple)


def cmd_obstruct(args) -> int:
    from .obstruction import verify_case1, verify_case2, verify_case3, verify_case4
    from .regular3 import SklParameters, is_regular, is_type_A
    fns = {1: verify_case1, 2: verify_case2, 3: verify_case3, 4: verify_case4}
    if args.case not in fns:
        raise InputError("--case must be 1, 2, 3 or 4")
    if args.params:
        parts = args.params.split(",")
        if len(parts) != 3:
            raise InputError("--params expects three comma-separated rationals")
        a, b, c = _parse_triple(parts, ("--params",) * 3)
        if args.case in (3, 4) and a != b:
            raise InputError("cases 3 and 4 assume a = b")
    rep = fns[args.case]()
    sample = {}
    if args.params:
        pt = SklParameters.numeric(a, b, c)
        sample = {
            "params": [str(a), str(b), str(c)],
            "regular": is_regular(pt),
            "type_A": is_type_A(pt),
        }
        if args.case == 1:
            val = rep.resultant.evaluate({"a": a, "b": b, "c": c})
            sample["resultant"] = format_scalar(val)
            rep.checks.record(
                "sample-resultant",
                "resultant nonzero at the given smooth-elliptic triple",
                not is_type_A(pt) or not val.is_zero(),
                format_scalar(val),
            )
        if args.case == 3:
            d = 8 * a ** 3 + c ** 3
            sample["d"] = str(d)
            sample["terminal_value"] = str(3 * a * c ** 2 * d)
    digest = hashlib.sha256(("obstruct:%d:%s" % (args.case, args.params or "")).encode()).hexdigest()
    body = rep.to_dict()
    if sample:
        body["sample"] = sample
    return _report(args, digest, rep.checks, body)


def cmd_skl3(args) -> int:
    from .regular3 import SklParameters, is_regular, is_type_A, skl_relations, skl_symmetric_image, skl_tensor
    p = SklParameters.numeric(*_parse_triple((args.a, args.b, args.c), ("--a", "--b", "--c")))
    digest = hashlib.sha256(
        ("skl3:%s,%s,%s:%s" % (args.a, args.b, args.c, args.check)).encode()
    ).hexdigest()
    out = {
        "tool": "heckesym",
        "version": __version__,
        "input_digest": digest,
        "params": [str(args.a), str(args.b), str(args.c)],
    }
    if args.check == "regular":
        out["result"] = is_regular(p)
    elif args.check == "typeA":
        out["result"] = is_type_A(p)
    elif args.check == "tensors":
        rels = skl_relations(p)
        ring = PolyRing(("x1", "x2", "x3"))
        out["relations"] = [[format_scalar(x) for x in t] for t in rels]
        out["tensor"] = [format_scalar(x) for x in skl_tensor(p)]
        out["symmetric_cubic"] = skl_symmetric_image(p, ring).to_text()
        out["result"] = True
    else:
        raise InputError("--check must be regular, typeA or tensors")
    _emit(args, out)
    return 0


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, with only that command's when only is given; the usage names every command."""
    parser = argparse.ArgumentParser(
        prog="heckesym",
        description="Exact computation with Hecke symmetries and their Frobenius structure.",
    )
    parser.add_argument("--version", action="version", version="heckesym " + __version__)
    usage = None if only is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--pretty", action="store_true", help="indented output")
    output.add_argument("--timings", action="store_true", help="write wall-clock times to stderr")

    def add_io(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", help="operator JSON document")
        p.add_argument("--builtin", choices=("dj", "flip"), help="use a built-in operator")
        p.add_argument("--dim", type=int, help="dimension for the built-in")
        p.add_argument("--field", choices=("ratfunc", "rational", "cyclotomic"), help="coefficient field of the built-in (default ratfunc)")
        p.add_argument("--order", type=int, help="cyclotomic order of the coefficients (default 1)")
        p.add_argument("--q", help="value bound to q in non-generic fields (expression)")

    def command(name, help, handler):
        p = sub.add_parser(name, parents=[output], help=help)
        p.set_defaults(handler=handler)
        return p

    if only in (None, "verify"):
        add_io(command("verify", "relation checks for an operator", cmd_verify))
    if only in (None, "analyze"):
        p = command("analyze", "full Frobenius profile and identity suites", cmd_analyze)
        add_io(p)
        p.add_argument("--max-degree", type=int, help="top-degree search bound (default 2*dim+1)")
    if only in (None, "builtin"):
        add_io(command("builtin", "emit a built-in operator as JSON", cmd_builtin), with_input=False)
    if only in (None, "identities"):
        p = command("identities", "antisymmetrizer identity suite", cmd_identities)
        p.add_argument("--n", type=int, default=5, help="largest degree (up to 6)")
    if only in (None, "hessian"):
        p = command("hessian", "Hessian group facts", cmd_hessian)
        p.add_argument("--report", action="store_true", help="full class table")
    if only in (None, "resultant"):
        p = command("resultant", "the six-by-six resultant identity", cmd_resultant)
        p.add_argument("--case1", action="store_true", help="the scalar-braiding system")
    if only in (None, "obstruct"):
        p = command("obstruct", "one case of the obstruction argument", cmd_obstruct)
        p.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
        p.add_argument("--params", help="a,b,c sample triple")
    if only in (None, "skl3"):
        p = command("skl3", "parameter-triple predicates and tensors", cmd_skl3)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--c", required=True)
        p.add_argument("--check", default="typeA")

    return parser


def _attach_signed_values(argv: List[str]) -> List[str]:
    """argv with each SIGNED_VALUE_FLAGS option joined to its value as --flag=value."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in SIGNED_VALUE_FLAGS else None
        out.append(tok if value is None else tok + "=" + value)
    return out


# build_parser(only) by command name, built on first use; no option has a mutable default, so reuse is safe
_PARSERS: dict = {}


def main(argv: Optional[List[str]] = None) -> int:
    # only the named command's parser is built, once; collecting the young
    # generation frees the reference cycles of parsing before the report runs
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in COMMANDS else None
    parser = _PARSERS.get(only) or _PARSERS.setdefault(only, build_parser(only))
    args = parser.parse_args(_attach_signed_values(argv))
    gc.collect(0)
    t0 = time.monotonic()
    try:
        code = args.handler(args)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    except (PoleError, ExprError, SymmetryError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    if getattr(args, "timings", False):
        sys.stderr.write("wall: %.3fs\n" % (time.monotonic() - t0))
    return code


if __name__ == "__main__":
    sys.exit(main())
