"""Command-line front end: text and JSON reporting over the `.gx` grammar.

Exit codes: 0 success, 1 usage or input error, 2 computation refused
(outside certified scope), 3 theorem-contradiction event.  JSON output is
schema-versioned and deterministic; wall-clock timings are only included
when requested, so identical invocations stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from typing import NamedTuple

from . import artin, invsys, oracle, reduc
from .corpus import corpus
from .errors import GradixError, ParseError, ScopeError, TheoremContradiction
from .groebner import Ideal, eliminate, intersect_many, quotient, saturate
from .gxparser import parse_field, parse_file, parse_poly, render
from .poly import GrevLex, Lex, RingSpec, is_homogeneous
from .star import star, star_lambda, star_truncated

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _arg(*flags, **kwargs):
    return flags, kwargs


# flags that several commands share, each declared once
_INPUT = _arg("-i", "--input", required=True, help=".gx input document")
_IDEAL = _arg("--ideal", required=True, help="name of the ideal to use")
_JSON = _arg("--json", action="store_true", help="machine-readable output")
_ORDER = _arg("--order", choices=["grevlex", "lex"], default=None)
_TIMINGS = _arg("--timings", action="store_true", help="include wall-clock timings")
_ON_IDEAL = (_INPUT, _IDEAL, _JSON, _ORDER, _TIMINGS)
_POLY = _arg("--poly", required=True)


class _Call(NamedTuple):
    """What a command on a `.gx` document computes from."""

    args: argparse.Namespace
    ring: RingSpec
    ideals: dict
    order: object
    ideal: Ideal | None  # the --ideal one, for commands that take it
    report: dict


def _get_ideal(ideals, name):
    if name not in ideals:
        raise ParseError(f"no ideal named {name!r} in the input document")
    return ideals[name]


def _on_document(compute):
    """The handler of a command that reads `-i`: parse the document, apply
    `--order`, look up `--ideal` when the command takes one, and return
    compute(_Call) = (result, text lines).  The report names the ring only
    once the command has returned, so error and refusal reports keep
    `"ring": null`; a result that lives in another ring names it."""

    def handler(args, report):
        ring, ideals, order = parse_file(args.input)
        if args.order:
            order = Lex(ring.npres) if args.order == "lex" else GrevLex(ring.npres)
        I = _get_ideal(ideals, args.ideal) if "ideal" in args else None
        result, lines = compute(_Call(args, ring, ideals, order, I, report))
        report["ring"] = result.get("ring", str(ring))
        return result, lines

    return handler


def _ideal_json(I: Ideal) -> list[str]:
    return [render(g) for g in I.groebner_basis()] or ["0"]


def _value(key, value):
    return {key: value}, [str(value)]


def _ideal_result(key, I: Ideal):
    gens = _ideal_json(I)
    return {key: gens}, gens


# ---------------------------------------------------------------------------
# commands on a document: each returns (result_dict, text_lines)


def _poly(c):
    return parse_poly(c.args.poly, c.ring)


def _gb(c):
    gens = [render(g) for g in c.ideal.groebner_basis(c.order)]
    return {"basis": gens}, gens or ["0"]


def _nf(c):
    return _value("normal_form", render(c.ideal.normal_form(_poly(c), c.order)))


def _member(c):
    val = c.ideal.contains(_poly(c), c.order)
    return {"member": val}, ["true" if val else "false"]


def _intersect(c):
    names = [n.strip() for n in c.args.ideals.split(",")]
    if len(names) < 2:
        raise ParseError("--ideals needs at least two names")
    return _ideal_result("intersection", intersect_many(_get_ideal(c.ideals, n) for n in names))


def _eliminate(c):
    out = eliminate(c.ideal, [n.strip() for n in c.args.vars.split(",") if n.strip()])
    gens = _ideal_json(out)
    return {"elimination": gens, "ring": str(out.ring)}, gens


def _socle(c):
    Q = artin.QuotientBasis(c.ideal)
    polys = [Q.to_poly(v) for v in artin.socle(Q)]
    # degrees of the homogeneous basis elements (all of them when I is graded)
    histogram: dict[int, int] = {}
    for p in polys:
        if is_homogeneous(p):
            d = Q.ring.weighted_degree(next(iter(p.terms)))
            histogram[d] = histogram.get(d, 0) + 1
    basis = [render(p) for p in polys]
    res = {
        "dimension": len(polys),
        "basis": basis,
        "degree_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    return res, [f"dimension {len(polys)}"] + basis


def _hilbert(c):
    hf = artin.hilbert_function(artin.QuotientBasis(c.ideal))
    return {"hilbert": hf}, [f"{d}: {v}" for d, v in hf]


def _decompose(c):
    rep = invsys.decompose(c.ideal, graded=c.args.graded)
    components = [_ideal_json(comp) for comp in rep.components]
    flags = ("irredundant", "all_graded", "all_irreducible_certified")
    res = {"r": rep.r, "r_graded": rep.r_graded, "components": components}
    res.update((name, getattr(rep, name)) for name in flags)
    lines = [f"r = {rep.r}" + (f", graded index = {rep.r_graded}" if rep.r_graded else "")]
    lines += [f"component {i}: " + ", ".join(g) for i, g in enumerate(components, 1)]
    lines.append(" ".join(("+" if res[name] else "-") + name for name in flags))
    return res, lines


def _verify(c):
    parts = [_get_ideal(c.ideals, n.strip()) for n in c.args.parts.split(",")]
    out = invsys.verify_decomposition(c.ideal, parts)
    if out.valid:
        lines = [f"valid ({'irredundant' if out.irredundant else 'redundant'})"]
    else:
        lines = [f"invalid: {out.reason}"]
    return asdict(out), lines


def _star(c):
    if c.args.bound is not None and c.args.bound < 0:
        raise GradixError(f"--bound needs a non-negative degree (got {c.args.bound})")
    if c.args.method == "truncated":
        res = star_truncated(c.ideal, bound=c.args.bound)
    elif c.args.method == "lambda":
        res = star_lambda(c.ideal)
    else:
        res = star(c.ideal)
    c.report["certificates"]["star"] = res.certificate
    if res.finite_field_caveat:
        c.report["certificates"]["finite_field_caveat"] = True
    gens = _ideal_json(res.ideal)
    out = {"star": gens, "method": res.method, "certificate": res.certificate, "bound": res.bound}
    return out, gens + [f"method {res.method}, certificate {res.certificate}"]


def _compare_star(c):
    cmp = reduc.compare_star(c.ideal)
    c.report["certificates"]["star"] = cmp.star_result.certificate
    res = {
        "r": cmp.r,
        "r_star": cmp.r_star,
        "quotient_generator_count": cmp.quotient_generator_count,
        "quotient_principal": cmp.quotient_principal,
        "hypothesis_met": cmp.hypothesis_met,
        "conclusion_holds": cmp.conclusion_holds,
        "star": _ideal_json(cmp.star_result.ideal),
    }
    lines = [
        f"r = {cmp.r}, r_star = {cmp.r_star}",
        f"quotient generators = {cmp.quotient_generator_count} "
        f"({'principal' if cmp.quotient_principal else 'not principal'})",
        f"hypothesis_met = {str(cmp.hypothesis_met).lower()}, "
        f"conclusion_holds = {str(cmp.conclusion_holds).lower()}",
    ]
    return res, lines


def _oracle(c):
    A = oracle.FiniteAlgebra.from_ideal(c.ideal)
    rep = oracle.oracle_theorems(A)
    res = {
        "lattice_size": rep.lattice_size,
        "graded_size": rep.graded_size,
        "index": rep.index_plain,
        "graded_index": rep.index_graded,
        "socle_dimension": rep.socle_dim,
        "decomposition_lengths": rep.decomposition_lengths,
        "checks": rep.checks,
        "failures": rep.failures,
    }
    lines = [
        f"lattice {rep.lattice_size} ideals ({rep.graded_size} graded)",
        f"index {rep.index_plain} (graded {rep.index_graded}), socle {rep.socle_dim}",
        f"irredundant decomposition lengths {rep.decomposition_lengths}",
        f"checks {rep.checks}, failures {len(rep.failures)}",
    ]
    if rep.failures:
        c.report["theorem_contradictions"].extend(rep.failures)
        lines.append(oracle.dump_fixture(A))
    return res, lines


def moh_parameters(n: int, l: int):
    """Validate the admissible parameter range: n odd, m = (n+1)/2,
    l > n(n+1)m with gcd(l, m) = 1."""
    if n % 2 == 0 or n < 1:
        raise ScopeError(f"n must be odd (got {n})")
    m = (n + 1) // 2
    if l <= n * (n + 1) * m:
        raise ScopeError(f"l must exceed n(n+1)m = {n * (n + 1) * m} (got {l})")
    if math.gcd(l, m) != 1:
        raise ScopeError(f"l must be coprime to m = {m} (got {l})")
    return m


def moh_command(n: int, l: int, field):
    """Build the curve map x -> t^(nm) + t^(nm+l), y -> t^((n+1)m),
    z -> t^((n+2)m), eliminate the parameter, and report the local
    generator count at the origin and star principality."""
    m = moh_parameters(n, l)
    ring = RingSpec.make(field, ("t", "x", "y", "z"))
    t = ring.var("t")
    gens = [
        ring.var("x") - t ** (n * m) - t ** (n * m + l),
        ring.var("y") - t ** ((n + 1) * m),
        ring.var("z") - t ** ((n + 2) * m),
    ]
    P = eliminate(Ideal(ring, gens), ["t"])
    target = P.ring
    at = Ideal(target, [target.var(v) for v in ("x", "y", "z")])
    mu = reduc.local_min_generators(P, at)
    st = star(P)
    star_basis = st.ideal.groebner_basis()
    return {
        "n": n,
        "l": l,
        "m": m,
        "kernel": [render(g) for g in P.groebner_basis()],
        "kernel_degrees": sorted(g.total_degree() for g in P.groebner_basis()),
        "local_min_generators": mu,
        "star": [render(g) for g in star_basis],
        "star_principal": len(star_basis) == 1,
        "star_certificate": st.certificate,
        "finite_field_caveat": st.finite_field_caveat,
    }


def _cmd_moh(args, report):
    field = parse_field(args.field)
    res = moh_command(args.n, args.l, field)
    report["ring"] = f"{field}[x,y,z]"
    lines = [
        f"kernel generators ({len(res['kernel'])}): " + ", ".join(res["kernel"]),
        f"generator degrees {res['kernel_degrees']}",
        f"local minimal generators at (x,y,z): {res['local_min_generators']}",
        f"star principal: {str(res['star_principal']).lower()}",
    ]
    return res, lines


def _cmd_verify_thm(args, report):
    field = parse_field(args.field)
    try:
        nvars = tuple(int(x) for x in args.nvars.split(","))
    except ValueError:
        raise ParseError(f"--nvars needs comma-separated integers (got {args.nvars!r})")
    seed = args.seed
    if seed is None:
        raw = os.environ.get("GRADIX_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ParseError(f"GRADIX_SEED needs an integer (got {raw!r})") from None
    if args.jobs < 1:
        raise GradixError(f"--jobs needs a positive number of workers (got {args.jobs})")
    ideals = corpus(seed=seed, count=args.count, field=field, nvars_options=nvars)
    if args.jobs == 1:
        rep = reduc.verify_equivalence(ideals)
    else:
        from concurrent.futures import ProcessPoolExecutor

        # contiguous chunks, merged in order: failures keep corpus order
        size = -(-len(ideals) // args.jobs) or 1
        chunks = [ideals[i : i + size] for i in range(0, len(ideals), size)]
        rep = reduc.EquivalenceReport()
        try:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                for part in pool.map(reduc.verify_equivalence, chunks):
                    rep.total += part.total
                    rep.passed += part.passed
                    rep.checks += part.checks
                    rep.failures.extend(part.failures)
        except OSError:
            print("process pool unavailable; running serially", file=sys.stderr)
            rep = reduc.verify_equivalence(ideals)
    report["ring"] = f"{field}[{args.nvars} variables]"
    if rep.failures:
        report["theorem_contradictions"].extend(rep.failures)
    lines = [
        f"corpus {rep.total} ideals, passed {rep.passed}, checks {rep.checks}",
        f"failures {len(rep.failures)}",
    ]
    return {**asdict(rep), "seed": seed}, lines


# ---------------------------------------------------------------------------
# the command table: name -> (help, argparse declarations, compute).  A
# command that reads `-i` computes from a _Call, the others are handlers.
# The order is the one `gradix --help` and argparse's invalid-choice error
# list the commands in.

_COMMANDS = {
    "gb": ("reduced Groebner basis", _ON_IDEAL, _gb),
    "socle": ("socle basis and dimension", _ON_IDEAL, _socle),
    "hilbert": ("Hilbert function of the graded quotient", _ON_IDEAL, _hilbert),
    "type": ("Cohen-Macaulay type of the Artinian quotient", _ON_IDEAL,
             lambda c: _value("type", reduc.index_of_reducibility(c.ideal))),
    "index": ("index of reducibility", _ON_IDEAL,
              lambda c: _value("index", reduc.index_of_reducibility(c.ideal))),
    "gindex": ("graded index of reducibility", _ON_IDEAL,
               lambda c: _value("graded_index", reduc.graded_index(c.ideal))),
    "star": ("largest graded subideal", _ON_IDEAL + (
        _arg("--bound", type=int, default=None),
        _arg("--method", choices=["auto", "truncated", "lambda"], default="auto"),
    ), _star),
    "compare-star": ("compare the ideal with its largest graded subideal", _ON_IDEAL, _compare_star),
    "oracle": ("exhaustive lattice verification on the finite quotient", _ON_IDEAL, _oracle),
    "nf": ("normal form of a polynomial", _ON_IDEAL + (_POLY,), _nf),
    "member": ("ideal membership of a polynomial", _ON_IDEAL + (_POLY,), _member),
    "intersect": ("intersection of two ideals", (
        _INPUT, _JSON, _ORDER, _TIMINGS,
        _arg("--ideals", required=True, help="comma-separated ideal names"),
    ), _intersect),
    "quotient": ("quotient of an ideal by a polynomial", _ON_IDEAL + (_POLY,),
                 lambda c: _ideal_result("quotient", quotient(c.ideal, _poly(c)))),
    "saturate": ("saturate of an ideal by a polynomial", _ON_IDEAL + (_POLY,),
                 lambda c: _ideal_result("saturation", saturate(c.ideal, _poly(c)))),
    "eliminate": ("eliminate variables", _ON_IDEAL + (
        _arg("--vars", required=True, help="comma-separated variable names"),
    ), _eliminate),
    "decompose": ("irreducible decomposition", _ON_IDEAL + (
        _arg("--graded", action="store_true"),
    ), _decompose),
    "verify": ("verify a supplied decomposition", _ON_IDEAL + (
        _arg("--parts", required=True, help="comma-separated ideal names"),
    ), _verify),
    "moh": ("kernel of a monomial-plus-binomial curve map", (
        _arg("--n", type=int, required=True),
        _arg("--l", type=int, required=True),
        _arg("--field", default="QQ", help="QQ or GF(p)"),
        _JSON, _TIMINGS,
    ), _cmd_moh),
    "verify-thm": ("equivalence harness over a random corpus", (
        _arg("--count", type=int, default=200),
        _arg("--field", default="GF(3)"),
        _arg("--nvars", default="2,3"),
        _arg("--seed", type=int, default=None),
        _arg("--jobs", type=int, default=1),
        _JSON, _TIMINGS,
    ), _cmd_verify_thm),
}

_HANDLERS = {
    name: _on_document(compute) if _INPUT in flags else compute
    for name, (_, flags, compute) in _COMMANDS.items()
}


def build_parser() -> _Parser:
    ap = _Parser(prog="gradix", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
    return ap


def run(argv) -> tuple[int, dict]:
    """Execute one command; returns (exit code, report)."""
    ap = build_parser()
    args = ap.parse_args(argv)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "ring": None,
        "inputs": {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "json", "timings") and v is not None
        },
        "result": None,
        "certificates": {},
        "theorem_contradictions": [],
        "timings": None,
    }
    started = time.perf_counter()
    try:
        result, lines = _HANDLERS[args.command](args, report)
    except TheoremContradiction as e:
        report["theorem_contradictions"].append(
            {"statement": e.statement, **e.payload}
        )
        report["result"] = {"error": str(e)}
        return 3, report
    except ScopeError as e:
        report["result"] = {"refused": str(e)}
        print(f"refused: {e}", file=sys.stderr)
        return 2, report
    except (ParseError, GradixError, OSError) as e:
        report["result"] = {"error": str(e)}
        print(f"error: {e}", file=sys.stderr)
        return 1, report
    report["result"] = result
    report["text"] = lines
    if getattr(args, "timings", False):
        report["timings"] = {"wall_seconds": round(time.perf_counter() - started, 6)}
    if report["theorem_contradictions"]:
        return 3, report
    return 0, report


def main(argv=None) -> int:
    try:
        code, report = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code or 0)
    args_json = "--json" in (sys.argv[1:] if argv is None else argv)
    if args_json:
        out = dict(report)
        out.pop("text", None)
        print(json.dumps(out, sort_keys=True, default=str))
    else:
        for line in report.get("text", []) or []:
            print(line)
        if code == 3:
            print("theorem contradiction detected", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
