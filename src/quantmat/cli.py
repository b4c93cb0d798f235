"""Command-line front end.

Exit codes: 0 success, 1 a negative membership answer (``member``
false), 2 usage or input errors, 3 resource-limit errors.  ``validate``
exits 0 or 2: a table that fails the solvability check cannot be built
into a system, so its failure is an input error.
The environment variable MQ_MAX_DEGREE overrides the default product
degree guard; explicit limits in an ideal file win over the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import asdict

from .dimension import (
    Staircase,
    eliminate_prefix,
    gk_dimension,
    hilbert_count,
    leading_staircase,
)
from .errors import (
    DegreeGuardExceeded,
    InvalidSpec,
    PairLimitExceeded,
    QuantmatError,
)
from .groebner import DEFAULT_MAX_PAIRS, buchberger, ideal_member
from .mq import MqSpec, build_mq
from .pbw import Polynomial, mono_sum
from .qfield import QMode, SYMBOLIC
from .straighten import DEFAULT_MAX_DEGREE, scalar_mul, validate_solvability
from .textio import format_poly, load_ideal, parse_poly

SCHEMA = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mq",
        description="Exact computation in quantized matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ideal=False):
        p.add_argument("--n", type=int, help="matrix dimension (n >= 2)")
        p.add_argument("--q", help="quantum parameter: a rational or 'symbolic'")
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if ideal:
            p.add_argument(
                "--ideal",
                action="append",
                default=[],
                metavar="EXPR",
                help="left ideal generator (repeatable)",
            )
            p.add_argument("--file", help="JSON ideal file")
            p.add_argument("--max-pairs", type=int, help="budget of S-polynomials formed")

    p = sub.add_parser("nf", help="normal form of an expression")
    common(p)
    p.add_argument("expr")

    p = sub.add_parser("mul", help="product of two expressions")
    common(p)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("gb", help="reduced left Groebner basis")
    common(p, ideal=True)

    p = sub.add_parser("member", help="test left ideal membership")
    common(p, ideal=True)
    p.add_argument("expr")

    p = sub.add_parser("gkdim", help="GK dimension of the cyclic quotient")
    common(p, ideal=True)

    p = sub.add_parser("hilbert", help="Hilbert function of the quotient")
    common(p, ideal=True)
    p.add_argument("--maxdeg", type=int, required=True, help="largest degree")

    p = sub.add_parser("eliminate", help="basis elements supported on a prefix")
    common(p, ideal=True)
    p.add_argument(
        "--keep", type=int, required=True, metavar="S", help="retain z with index < S"
    )

    p = sub.add_parser("validate", help="certify the commutation table")
    common(p)

    p = sub.add_parser("build-mq", help="print the commutation table")
    common(p)
    return parser


def _qmode_from(text: str) -> QMode:
    if text == "symbolic":
        return SYMBOLIC
    return QMode.numeric(text)


def _resolve_system(args):
    """Combine --n/--q/--file into (system, generators, n, q-string)."""
    ideal = load_ideal(args.file) if getattr(args, "file", None) else None
    n = args.n
    if ideal is not None:
        if n is not None and n != ideal.n:
            raise InvalidSpec(f"--n {n} conflicts with file dimension {ideal.n}")
        n = ideal.n
    if n is None:
        raise InvalidSpec("missing dimension: pass --n or --file")
    qstr = args.q
    if ideal is not None:
        if qstr is not None and _qmode_from(qstr) != _qmode_from(ideal.q):
            raise InvalidSpec(f"--q {qstr} conflicts with file q {ideal.q}")
        qstr = ideal.q
    if qstr is None:
        qstr = "symbolic"

    max_degree = DEFAULT_MAX_DEGREE
    env = os.environ.get("MQ_MAX_DEGREE")
    if env is not None:
        try:
            max_degree = int(env)
        except ValueError:
            raise InvalidSpec(f"MQ_MAX_DEGREE must be an integer, got {env!r}") from None
    if ideal is not None and "max_degree" in ideal.limits:
        max_degree = ideal.limits["max_degree"]

    system = build_mq(MqSpec(n, _qmode_from(qstr)), max_degree=max_degree)

    texts = (ideal.generators if ideal is not None else []) + list(
        getattr(args, "ideal", []) or []
    )
    gens = [parse_poly(t, system) for t in texts]

    max_pairs = getattr(args, "max_pairs", None)
    if max_pairs is None and ideal is not None and "max_pairs" in ideal.limits:
        max_pairs = ideal.limits["max_pairs"]
    if max_pairs is None:
        max_pairs = DEFAULT_MAX_PAIRS
    return system, gens, n, qstr, max_pairs


def _emit(args, text_lines, json_obj) -> None:
    if args.json:
        print(json.dumps(json_obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _ideal_for(args):
    system, gens, n, qstr, max_pairs = _resolve_system(args)
    if not gens:
        raise InvalidSpec("no ideal generators: pass --ideal or --file")
    return system, gens, n, qstr, max_pairs


def _basis_for(args):
    system, gens, n, qstr, max_pairs = _ideal_for(args)
    basis = buchberger(gens, system, max_pairs=max_pairs)
    return system, basis, n, qstr


def _cmd_nf(args) -> int:
    system, _, n, qstr, _ = _resolve_system(args)
    result = format_poly(parse_poly(args.expr, system), system.gen_names)
    _emit(args, [result], {"schema": SCHEMA, "n": n, "q": qstr, "result": result})
    return 0


def _cmd_mul(args) -> int:
    system, _, n, qstr, _ = _resolve_system(args)
    product = system.poly_mul(
        parse_poly(args.left, system), parse_poly(args.right, system)
    )
    result = format_poly(product, system.gen_names)
    _emit(args, [result], {"schema": SCHEMA, "n": n, "q": qstr, "result": result})
    return 0


def _emit_basis(args, system, basis, n, qstr, partial=False) -> None:
    rendered = [format_poly(g, system.gen_names) for g in basis.elements]
    obj = {
        "schema": SCHEMA,
        "n": n,
        "q": qstr,
        "ordering": "paperlex",
        "basis": rendered,
        "stats": asdict(basis.stats),
    }
    if partial:
        obj["partial"] = True
    _emit(args, rendered, obj)


def _cmd_gb(args) -> int:
    system, gens, n, qstr, max_pairs = _ideal_for(args)
    try:
        basis = buchberger(gens, system, max_pairs=max_pairs)
    except PairLimitExceeded as exc:
        # a bounded run still prints the interreduced basis it reached
        _emit_basis(args, system, exc.partial, n, qstr, partial=True)
        raise
    _emit_basis(args, system, basis, n, qstr)
    return 0


def _cmd_member(args) -> int:
    system, basis, n, qstr = _basis_for(args)
    f = parse_poly(args.expr, system)
    verdict = ideal_member(f, basis, system)
    _emit(
        args,
        ["true" if verdict else "false"],
        {"schema": SCHEMA, "n": n, "q": qstr, "member": verdict},
    )
    return 0 if verdict else 1


def _cmd_gkdim(args) -> int:
    system, basis, n, qstr = _basis_for(args)
    value = gk_dimension(leading_staircase(basis))
    _emit(
        args, [str(value)], {"schema": SCHEMA, "n": n, "q": qstr, "gk_dimension": value}
    )
    return 0


def _cmd_hilbert(args) -> int:
    if args.maxdeg < 0:
        raise InvalidSpec(f"--maxdeg must be >= 0, got {args.maxdeg}")
    system, gens, n, qstr, max_pairs = _resolve_system(args)
    if gens:
        basis = buchberger(gens, system, max_pairs=max_pairs)
        staircase = leading_staircase(basis)
    else:
        staircase = Staircase(system.ngens, ())
    counts = [hilbert_count(staircase, d) for d in range(args.maxdeg + 1)]
    _emit(
        args,
        [", ".join(str(c) for c in counts)],
        {"schema": SCHEMA, "n": n, "q": qstr, "counts": counts},
    )
    return 0


def _cmd_eliminate(args) -> int:
    system, basis, n, qstr = _basis_for(args)
    kept = eliminate_prefix(basis, args.keep)
    rendered = [format_poly(g, system.gen_names) for g in kept]
    _emit(
        args,
        rendered,
        {
            "schema": SCHEMA,
            "n": n,
            "q": qstr,
            "keep": args.keep,
            "elements": rendered,
        },
    )
    return 0


def _cmd_validate(args) -> int:
    if args.n is None:
        raise InvalidSpec("missing dimension: pass --n")
    qmode = _qmode_from(args.q if args.q is not None else "symbolic")
    system = build_mq(MqSpec(args.n, qmode))
    # a system that was built passed the check, which raises on any failure
    pairs = validate_solvability(system.ngens, system.table, system.gen_names)
    names = system.gen_names
    lines = [
        f"solvability: M_q({args.n})",
        f"pairs checked: {len(pairs)}",
        "failures: 0",
        "verdict: PASS",
    ]
    report = {
        "schema": SCHEMA,
        "n": args.n,
        "kind": "solvability",
        "verdict": "PASS",
        "checks": [
            {"name": f"{names[small]}*{names[big]}", "ok": True, "witness": ""}
            for big, small in pairs
        ],
        "meta": {"system": system.name, "ngens": system.ngens, "pairs": len(pairs)},
    }
    _emit(args, lines, report)
    return 0


def _cmd_build_mq(args) -> int:
    system, _, n, qstr, _ = _resolve_system(args)
    names = system.gen_names
    lines = []
    pairs = []
    for small in range(system.ngens):
        for big in range(small + 1, system.ngens):
            lam, tail = system.table[(big, small)]
            rhs = scalar_mul(
                lam,
                Polynomial.from_mono(
                    mono_sum(system.gen_mono(big), system.gen_mono(small))
                ),
            ) + tail
            rendered = format_poly(rhs, names)
            lines.append(f"{names[small]}*{names[big]} = {rendered}")
            pairs.append(
                {"small": names[small], "big": names[big], "normal_form": rendered}
            )
    _emit(
        args, lines, {"schema": SCHEMA, "n": n, "q": qstr, "relations": pairs}
    )
    return 0


_DISPATCH = {
    "nf": _cmd_nf,
    "mul": _cmd_mul,
    "gb": _cmd_gb,
    "member": _cmd_member,
    "gkdim": _cmd_gkdim,
    "hilbert": _cmd_hilbert,
    "eliminate": _cmd_eliminate,
    "validate": _cmd_validate,
    "build-mq": _cmd_build_mq,
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # CPython 3.11's argparse stores --opt=-- as an empty list, not as "--"
    given = [v for k, v in vars(args).items() if k != "ideal"]
    try:
        if any(isinstance(v, list) for v in given + getattr(args, "ideal", [])):
            raise InvalidSpec("'--' is not an option value")
        return _DISPATCH[args.command](args)
    except (DegreeGuardExceeded, PairLimitExceeded) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except (QuantmatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def main() -> None:
    _sys.exit(run_command(_sys.argv[1:]))
