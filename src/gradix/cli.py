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

from . import artin, invsys, oracle, reduc
from .corpus import corpus
from .errors import GradixError, ParseError, ScopeError, TheoremContradiction
from .fields import GF, QQ
from .groebner import Ideal, eliminate, intersect, quotient, saturate
from .gxparser import parse_file, parse_poly, render
from .poly import GrevLex, Lex, RingSpec
from .star import star, star_lambda, star_truncated

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p, ideal=True):
    p.add_argument("-i", "--input", required=True, help=".gx input document")
    if ideal:
        p.add_argument("--ideal", required=True, help="name of the ideal to use")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--order", choices=["grevlex", "lex"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")


def build_parser() -> _Parser:
    ap = _Parser(prog="gradix", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    simple = {
        "gb": "reduced Groebner basis",
        "socle": "socle basis and dimension",
        "hilbert": "Hilbert function of the graded quotient",
        "type": "Cohen-Macaulay type of the Artinian quotient",
        "index": "index of reducibility",
        "gindex": "graded index of reducibility",
        "star": "largest graded subideal",
        "compare-star": "compare the ideal with its largest graded subideal",
        "oracle": "exhaustive lattice verification on the finite quotient",
    }
    for name, help_ in simple.items():
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        if name == "star":
            p.add_argument("--bound", type=int, default=None)
            p.add_argument(
                "--method", choices=["auto", "truncated", "lambda"], default="auto"
            )

    p = sub.add_parser("nf", help="normal form of a polynomial")
    _add_common(p)
    p.add_argument("--poly", required=True)

    p = sub.add_parser("member", help="ideal membership of a polynomial")
    _add_common(p)
    p.add_argument("--poly", required=True)

    p = sub.add_parser("intersect", help="intersection of two ideals")
    _add_common(p, ideal=False)
    p.add_argument("--ideals", required=True, help="comma-separated ideal names")
    for name in ("quotient", "saturate"):
        p = sub.add_parser(name, help=f"{name} of an ideal by a polynomial")
        _add_common(p)
        p.add_argument("--poly", required=True)

    p = sub.add_parser("eliminate", help="eliminate variables")
    _add_common(p)
    p.add_argument("--vars", required=True, help="comma-separated variable names")

    p = sub.add_parser("decompose", help="irreducible decomposition")
    _add_common(p)
    p.add_argument("--graded", action="store_true")

    p = sub.add_parser("verify", help="verify a supplied decomposition")
    _add_common(p)
    p.add_argument("--parts", required=True, help="comma-separated ideal names")

    p = sub.add_parser("moh", help="kernel of a monomial-plus-binomial curve map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--field", default="QQ", help="QQ or GF(p)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("verify-thm", help="equivalence harness over a random corpus")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--field", default="GF(3)")
    p.add_argument("--nvars", default="2,3")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    return ap


def _field_of(text: str):
    text = text.strip()
    if text == "QQ":
        return QQ
    if text.startswith("GF(") and text.endswith(")") and text[3:-1].isdigit():
        return GF(int(text[3:-1]))
    raise ParseError(f"unknown field {text!r}")


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("GRADIX_SEED", "0"))


def _load(args):
    ring, ideals, order = parse_file(args.input)
    if getattr(args, "order", None):
        order = Lex(ring.npres) if args.order == "lex" else GrevLex(ring.npres)
    return ring, ideals, order


def _get_ideal(ideals, name):
    if name not in ideals:
        raise ParseError(f"no ideal named {name!r} in the input document")
    return ideals[name]


def _ideal_json(I: Ideal) -> list[str]:
    return [render(g) for g in I.groebner_basis()] or ["0"]


# ---------------------------------------------------------------------------
# command handlers: each returns (result_dict, text_lines)


def _cmd_gb(args, report):
    ring, ideals, order = _load(args)
    I = _get_ideal(ideals, args.ideal)
    basis = I.groebner_basis(order)
    report["ring"] = str(ring)
    gens = [render(g) for g in basis]
    return {"basis": gens}, gens or ["0"]


def _cmd_nf(args, report):
    ring, ideals, order = _load(args)
    I = _get_ideal(ideals, args.ideal)
    f = parse_poly(args.poly, ring)
    out = render(I.normal_form(f, order))
    report["ring"] = str(ring)
    return {"normal_form": out}, [out]


def _cmd_member(args, report):
    ring, ideals, order = _load(args)
    I = _get_ideal(ideals, args.ideal)
    f = parse_poly(args.poly, ring)
    val = I.contains(f, order)
    report["ring"] = str(ring)
    return {"member": val}, ["true" if val else "false"]


def _cmd_intersect(args, report):
    ring, ideals, _ = _load(args)
    names = [n.strip() for n in args.ideals.split(",")]
    if len(names) < 2:
        raise ParseError("--ideals needs at least two names")
    acc = _get_ideal(ideals, names[0])
    for n in names[1:]:
        acc = intersect(acc, _get_ideal(ideals, n))
    report["ring"] = str(ring)
    gens = _ideal_json(acc)
    return {"intersection": gens}, gens


def _cmd_quotient(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    f = parse_poly(args.poly, ring)
    out = quotient(I, f)
    report["ring"] = str(ring)
    gens = _ideal_json(out)
    return {"quotient": gens}, gens


def _cmd_saturate(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    f = parse_poly(args.poly, ring)
    out = saturate(I, f)
    report["ring"] = str(ring)
    gens = _ideal_json(out)
    return {"saturation": gens}, gens


def _cmd_eliminate(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    names = [n.strip() for n in args.vars.split(",") if n.strip()]
    out = eliminate(I, names)
    report["ring"] = str(out.ring)
    gens = _ideal_json(out)
    return {"elimination": gens, "ring": str(out.ring)}, gens


def _cmd_socle(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    data = artin.socle(artin.quotient_basis(I))
    report["ring"] = str(ring)
    res = {
        "dimension": data.dimension,
        "basis": [render(p) for p in data.polynomials],
        "degree_histogram": {str(k): v for k, v in sorted(data.degree_histogram.items())},
    }
    lines = [f"dimension {data.dimension}"] + [render(p) for p in data.polynomials]
    return res, lines


def _cmd_hilbert(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    hf = artin.hilbert_function(artin.quotient_basis(I))
    report["ring"] = str(ring)
    return {"hilbert": hf}, [f"{d}: {v}" for d, v in hf]


def _cmd_type(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    t = artin.type_of_quotient(I)
    report["ring"] = str(ring)
    return {"type": t}, [str(t)]


def _cmd_index(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    r = reduc.index_of_reducibility(I)
    report["ring"] = str(ring)
    return {"index": r}, [str(r)]


def _cmd_gindex(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    r = reduc.graded_index(I)
    report["ring"] = str(ring)
    return {"graded_index": r}, [str(r)]


def _cmd_decompose(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    rep = reduc.decompose_report(I, graded=args.graded)
    report["ring"] = str(ring)
    res = {
        "r": rep.r,
        "r_graded": rep.r_graded,
        "components": [_ideal_json(c) for c in rep.components],
        "irredundant": rep.irredundant,
        "all_graded": rep.all_graded,
        "all_irreducible_certified": rep.all_irreducible_certified,
    }
    lines = [f"r = {rep.r}" + (f", graded index = {rep.r_graded}" if rep.r_graded else "")]
    for i, c in enumerate(rep.components):
        lines.append(f"component {i + 1}: " + ", ".join(_ideal_json(c)))
    flags = []
    for name in ("irredundant", "all_graded", "all_irreducible_certified"):
        flags.append(("+" if res[name] else "-") + name)
    lines.append(" ".join(flags))
    return res, lines


def _cmd_verify(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    parts = [_get_ideal(ideals, n.strip()) for n in args.parts.split(",")]
    out = invsys.verify_decomposition(I, parts)
    report["ring"] = str(ring)
    res = {
        "valid": out.valid,
        "irredundant": out.irredundant,
        "certificates": out.certificates,
        "reason": out.reason,
    }
    if out.valid:
        word = "irredundant" if out.irredundant else "redundant"
        lines = [f"valid ({word})"]
    else:
        lines = [f"invalid: {out.reason}"]
    return res, lines


def _cmd_star(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    if args.method == "truncated":
        res = star_truncated(I, bound=args.bound)
    elif args.method == "lambda":
        res = star_lambda(I)
    else:
        res = star(I)
    report["ring"] = str(ring)
    report["certificates"]["star"] = res.certificate
    if res.finite_field_caveat:
        report["certificates"]["finite_field_caveat"] = True
    gens = _ideal_json(res.ideal)
    out = {
        "star": gens,
        "method": res.method,
        "certificate": res.certificate,
        "bound": res.bound,
    }
    return out, gens + [f"method {res.method}, certificate {res.certificate}"]


def _cmd_compare_star(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    cmp = reduc.compare_star(I)
    report["ring"] = str(ring)
    report["certificates"]["star"] = cmp.star_result.certificate
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


def _cmd_oracle(args, report):
    ring, ideals, _ = _load(args)
    I = _get_ideal(ideals, args.ideal)
    A = oracle.FiniteAlgebra.from_ideal(I)
    rep = oracle.oracle_theorems(A)
    report["ring"] = str(ring)
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
        report["theorem_contradictions"].extend(rep.failures)
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
    field = _field_of(args.field)
    res = moh_command(args.n, args.l, field)
    report["ring"] = f"{field}[x,y,z]"
    lines = [
        f"kernel generators ({len(res['kernel'])}): " + ", ".join(res["kernel"]),
        f"generator degrees {res['kernel_degrees']}",
        f"local minimal generators at (x,y,z): {res['local_min_generators']}",
        f"star principal: {str(res['star_principal']).lower()}",
    ]
    return res, lines


def _verify_chunk(ideals):
    return reduc.verify_equivalence(ideals)


def _cmd_verify_thm(args, report):
    field = _field_of(args.field)
    try:
        nvars = tuple(int(x) for x in args.nvars.split(","))
    except ValueError:
        raise ParseError(f"--nvars needs comma-separated integers (got {args.nvars!r})")
    seed = _seed(args)
    ideals = corpus(seed=seed, count=args.count, field=field, nvars_options=nvars)
    jobs = max(1, args.jobs)
    if jobs == 1:
        rep = reduc.verify_equivalence(ideals)
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [ideals[i::jobs] for i in range(jobs)]
        rep = reduc.EquivalenceReport()
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for part in pool.map(_verify_chunk, chunks):
                    rep.total += part.total
                    rep.passed += part.passed
                    rep.checks += part.checks
                    rep.failures.extend(part.failures)
        except OSError:
            print("process pool unavailable; running serially", file=sys.stderr)
            rep = reduc.verify_equivalence(ideals)
    report["ring"] = f"{field}[{args.nvars} variables]"
    res = {
        "total": rep.total,
        "passed": rep.passed,
        "checks": rep.checks,
        "failures": rep.failures,
        "seed": seed,
    }
    if rep.failures:
        report["theorem_contradictions"].extend(rep.failures)
    lines = [
        f"corpus {rep.total} ideals, passed {rep.passed}, checks {rep.checks}",
        f"failures {len(rep.failures)}",
    ]
    return res, lines


_HANDLERS = {
    "gb": _cmd_gb,
    "nf": _cmd_nf,
    "member": _cmd_member,
    "intersect": _cmd_intersect,
    "quotient": _cmd_quotient,
    "saturate": _cmd_saturate,
    "eliminate": _cmd_eliminate,
    "socle": _cmd_socle,
    "hilbert": _cmd_hilbert,
    "type": _cmd_type,
    "index": _cmd_index,
    "gindex": _cmd_gindex,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "star": _cmd_star,
    "compare-star": _cmd_compare_star,
    "oracle": _cmd_oracle,
    "moh": _cmd_moh,
    "verify-thm": _cmd_verify_thm,
}


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
