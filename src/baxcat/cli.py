"""Command-line front end.

Subcommands: `catalog list`, `baxterize`, `classify`, `verify <check>`.
Exit codes: 0 pass/success, 1 verdict failure, 2 bad input.
Identical argv and seed produce byte-identical JSON output; for `verify`, on
one BLAS kernel, as its dense products may round differently under another.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys

from .baxterize import INCONSISTENT, amplitude_at, classify_pairs, solve_central
from .catalog import FAMILIES, build_family, catalog_rows
from .category import category_to_json
from .errors import AxiomError, CapabilityError, DomainError, PoleError
from .report import fmt_complex, fmt_float

# `verify loop` also compares the 2x2 loop partition function computed by
# enumeration and by transfer matrix; --tol does not move this gate
PARTITION_GAP_TOL = 1e-10


def _positive(kind):
    """argparse type: a finite `kind` (int or float) value > 0."""
    def parse(text):
        try:
            val = kind(text)
        except ValueError:
            val = 0
        if not 0 < val < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__} > 0, got {text!r}")
        return val
    return parse


def _non_negative_int(text):
    """argparse type: an int >= 0, as random.Random seeds -n as n."""
    try:
        val = int(text)
    except ValueError:
        val = -1
    if val < 0:
        raise argparse.ArgumentTypeError(f"expected an int >= 0, got {text!r}")
    return val


def _finite_complex(text):
    """argparse type: a complex number with finite real and imaginary parts."""
    try:
        val = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex value: {text!r}") from None
    if not cmath.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite complex number, got {text!r}")
    return val


# every family flag and the parameter it sets
FAMILY_PARAMS = {p.flag: p for fam in FAMILIES.values() for p in fam.params}

# the flags each `verify` check reads besides --tol; all but loop also read
# the family flags, --export-category and --rho
VERIFY_FLAGS = {
    "ybe": ("--phi", "--L", "--samples", "--seed"),
    "current": ("--phi", "--samples", "--seed"),
    "braid": ("--phi", "--L"),
    "projectors": ("--L",),
    "transfer": ("--phi", "--L", "--samples", "--seed"),
    "loop": ("--samples", "--seed", "--q"),
}


def _family_kwargs(args):
    """Every family flag given; build_family refuses a foreign, missing or
    below-minimum parameter."""
    given = {flag: getattr(args, flag[2:]) for flag in FAMILY_PARAMS}
    return {FAMILY_PARAMS[flag].kwarg: v for flag, v in given.items() if v is not None}


def _build_cat(args):
    cat = build_family(args.family, **_family_kwargs(args))
    if args.export_category:
        with open(args.export_category, "w") as fh:
            fh.write(category_to_json(cat))
    return cat


def _add_family_args(p):
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    for flag, prm in FAMILY_PARAMS.items():
        uses = [f"{name} {prm.kwarg}>={prm.minimum}"
                for name, fam in FAMILIES.items() if prm in fam.params]
        p.add_argument(flag, dest=flag[2:], type=int, help="; ".join(uses))
    p.add_argument("--export-category", metavar="PATH",
                   help="also write the category JSON document here")


def _emit(args, doc, table_lines):
    if args.format == "json":
        print(json.dumps(doc, indent=1))
    else:
        for line in table_lines:
            print(line)


def _cmd_catalog(args):
    rows = catalog_rows()
    doc = {"families": rows}
    lines = [f"{r['family']:<8} params: {r['params']:<12} objects: {r['objects']:<38} "
             f"baxterisable: {r['baxterisable']}  representable: {r['representable']}"
             for r in rows]
    _emit(args, doc, lines)
    return 0


def _cmd_baxterize(args):
    cat = _build_cat(args)
    rho = cat.label_id(args.rho)
    phi = cat.label_id(args.phi)
    sol = solve_central(cat, rho, phi)
    doc = sol.to_dict()
    lines = [f"category {cat.name}  rho {args.rho}  phi {args.phi}",
             f"verdict {sol.verdict}  (reference channel {cat.display(sol.reference)})"]
    if args.mu:
        evals = []
        for mu in args.mu:
            row = {"mu": fmt_complex(mu), "amplitudes": {}, "edge_ratios": {}}
            vals = {ch: amplitude_at(sol, ch, mu) for ch in sol.channels}
            for ch, val in vals.items():
                row["amplitudes"][cat.display(ch)] = fmt_complex(val)
                lines.append(f"mu={mu}: A[{cat.display(ch)}] = {val:.12g}")
            for a, b in sol.graph.edges:
                va, vb = vals[a], vals[b]
                if va == 0 or vb == 0:
                    raise PoleError(f"edge ({cat.display(a)}, {cat.display(b)}) at mu={mu}: "
                                    f"A[{cat.display(a if va == 0 else b)}] = 0, so one of "
                                    f"the edge's ratios has a pole", pole=mu)
                r = vb / va
                row["edge_ratios"][f"{cat.display(b)}/{cat.display(a)}"] = fmt_complex(r)
                row["edge_ratios"][f"{cat.display(a)}/{cat.display(b)}"] = fmt_complex(1 / r)
                lines.append(f"mu={mu}: A[{cat.display(b)}]/A[{cat.display(a)}] = {r:.12g}")
            evals.append(row)
        doc["evaluations"] = evals
    for c in sol.cycles:
        lines.append(f"cycle {c.vertices}: residual {c.residual:.3e}")
    _emit(args, doc, lines)
    return 0 if sol.verdict != INCONSISTENT else 1


def _cmd_classify(args):
    cat = _build_cat(args)
    rows = classify_pairs(cat)
    doc = {"category": cat.name, "pairs": [
        {"rho": cat.display(r.rho), "phi": cat.display(r.phi), "verdict": r.verdict,
         "vertices": r.n_vertices, "edges": r.n_edges, "cycles": r.n_cycles}
        for r in rows]}
    lines = [f"({cat.display(r.rho)}, {cat.display(r.phi)}): {r.verdict}   "
             f"graph {r.n_vertices}v/{r.n_edges}e/{r.n_cycles}c" for r in rows]
    _emit(args, doc, lines)
    return 0


def _cmd_verify(args):
    # the verifiers compute with arrays, so only this command loads numpy
    from .verify import (loop_functional_check, loop_partition_enumeration,
                         loop_partition_transfer, mu_annulus,
                         verify_braid_limits, verify_braid_relations,
                         verify_commuting_transfer, verify_current_vertex,
                         verify_projector_algebra, verify_ybe)

    tol = {} if args.tol is None else {"tol": args.tol}
    if args.check == "loop":
        rng = random.Random(args.seed)
        q = args.q
        reports = [loop_functional_check(q, mu, mu2, **tol)
                   for mu, mu2 in zip(mu_annulus(rng, args.samples),
                                      mu_annulus(rng, args.samples))]
        worst = max(rep.max_residual for rep in reports)
        z1 = loop_partition_enumeration(q, 1.7, 2, 2)
        z2 = loop_partition_transfer(q, 1.7, 2, 2)
        zres = abs(z1 - z2) / max(abs(z1), 1e-300)
        passed = all(rep.passed for rep in reports) and zres < PARTITION_GAP_TOL
        doc = {"check": "loop", "q": fmt_complex(q), "samples": args.samples,
               "seed": args.seed,
               "functional_max_residual": fmt_float(worst),
               "partition_2x2_relative_gap": fmt_float(zres),
               "verdict": "pass" if passed else "fail"}
        _emit(args, doc, [f"loop functional residual {worst:.3e}; "
                          f"2x2 partition gap {zres:.3e}: "
                          f"{'pass' if passed else 'fail'}"])
        return 0 if passed else 1

    cat = _build_cat(args)
    rho = cat.label_id(args.rho)
    if args.check == "projectors":
        rep = verify_projector_algebra(cat, rho, L=args.L, **tol)
    else:
        phi = cat.label_id(args.phi)
        sol = solve_central(cat, rho, phi)
        if args.check == "current":
            rep = verify_current_vertex(cat, rho, phi, sol, samples=args.samples,
                                        seed=args.seed, **tol)
        elif args.check == "ybe":
            rep = verify_ybe(cat, rho, sol, L=args.L, samples=args.samples,
                             seed=args.seed, **tol)
        elif args.check == "transfer":
            rep = verify_commuting_transfer(cat, rho, sol, L=args.L,
                                            samples=min(args.samples, 10),
                                            seed=args.seed, **tol)
        else:
            rep = verify_braid_limits(cat, rho, sol, **tol)
            rep2 = verify_braid_relations(cat, rho, L=args.L, **tol)
            rep.params.update(L=args.L, dim=rep2.params["dim"])
            rep.checks.extend(rep2.checks)
    doc = rep.to_dict()
    _emit(args, doc, rep.summary_lines())
    return 0 if rep.passed else 1


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which refuses an argument it does not read itself,
    so that the error names the command and its usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


def build_parser():
    ap = argparse.ArgumentParser(
        prog="baxcat",
        description="Solve the conserved-current constraint for Boltzmann "
                    "weights from category data and verify the results.")
    ap.add_argument("--format", choices=["table", "json"], default="table")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p_cat = sub.add_parser("catalog", help="list built-in families")
    p_cat.add_argument("action", choices=["list"])
    p_cat.set_defaults(func=_cmd_catalog)

    p_bax = sub.add_parser("baxterize", help="solve the current constraint")
    _add_family_args(p_bax)
    p_bax.add_argument("--rho", required=True)
    p_bax.add_argument("--phi", required=True)
    p_bax.add_argument("--mu", action="append", default=[], type=_finite_complex,
                       help="evaluate amplitudes at this mu (repeatable; complex ok)")
    p_bax.set_defaults(func=_cmd_baxterize)

    p_cls = sub.add_parser("classify", help="verdicts for every (rho, phi) pair")
    _add_family_args(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    checks = p_ver.add_subparsers(dest="check", required=True)
    flag_args = {
        "--phi": {"required": True},
        "--L": {"type": _positive(int), "default": 4, "help": "lattice width (default %(default)s)"},
        "--samples": {"type": _positive(int), "default": 25},
        "--seed": {"type": _non_negative_int, "default": 0},
        "--q": {"type": _finite_complex, "help": "loop-model q",
                "default": "0.80901699437494742+0.58778525229247314j"},
    }
    for check, flags in VERIFY_FLAGS.items():
        p = checks.add_parser(check)
        if check != "loop":
            _add_family_args(p)
            p.add_argument("--rho", required=True)
        for flag in flags:
            p.add_argument(flag, **flag_args[flag])
        p.add_argument("--tol", type=_positive(float),
                       help="residual tolerance (default: each check's own)")
        p.set_defaults(func=_cmd_verify, **({"L": 3} if check == "ybe" else {}))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, AxiomError, CapabilityError, PoleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
