"""Command-line front end.

    looppres <analyze|presentation|homotopy|verify|hilbert> <file>
             [--ring Z|Q|F<p>] [--grading multi|z] [--trunc N] [--json]
             [--skeleton-clique]

Input files are JSON objects {"m": int, "facets": [[1-indexed vertices]]};
"m" may be omitted (inferred as the largest vertex).  Exit codes: 0 success,
2 unparseable input, 3 non-flag input without --skeleton-clique; verify
additionally exits 1 when an oracle check fails.
"""

import argparse
import json
import os
import sys

from .errors import LoopPresError
from .exactlin import parse_ring
from .homotopy import (
    loop_poincare_series,
    multiplicity_report,
    one_plus_t_power,
    poly_mul,
    symbolic_homotopy_group,
)
from .pcalg import PCAlgebra, graded_dimensions
from .presentation import (
    build_presentation,
    pc_algebra,
    presentation_to_dict,
    render_relation,
    verify_presentation,
)
from .simplicial import (
    SimplicialComplex,
    all_subsets,
    clique_complex,
    f_h_vectors,
    is_flag,
    reduced_betti0,
    reduced_homology,
)
from .torbar import bar_cycle, koszul_homology, verify_bar_cycle

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_FLAG = 3


def build_parser():
    p = argparse.ArgumentParser(
        prog="looppres",
        description="presentations and homotopy invariants of loop homology "
                    "algebras of moment-angle complexes over flag complexes")
    p.add_argument("command",
                   choices=["analyze", "presentation", "homotopy", "verify",
                            "hilbert"])
    p.add_argument("file", help="JSON complex: {\"m\": int, \"facets\": [[..]]}")
    p.add_argument("--ring", default="Z",
                   help="coefficients: Z, Q or F<p> (default Z)")
    p.add_argument("--grading", default="multi", choices=["multi", "z"])
    p.add_argument("--trunc", type=int, default=16,
                   help="series/dimension truncation degree (default 16)")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--skeleton-clique", action="store_true",
                   help="replace a non-flag K by the clique complex of its "
                        "1-skeleton instead of exiting with code 3")
    return p


def load_complex(path, max_m=None):
    with open(path) as fh:
        data = json.load(fh)
    return SimplicialComplex.from_json_dict(data, max_m=max_m)


def emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload["lines"]:
            print(line)


def cmd_analyze(k, args, ring, flag_ok, witness):
    f, h, d = f_h_vectors(k)
    payload = {
        "flag": flag_ok,
        "witness": sorted(witness) if witness else None,
        "m": k.m,
        "f_vector": list(f),
        "h_vector": list(h),
        "d": d,
        "subsets": [],
        "lines": [],
    }
    for j in all_subsets(k.m):
        if not j:
            continue
        b0 = reduced_betti0(k, j)
        h1, _ = reduced_homology(k, j, ring, degree=2)
        if b0 or not h1.is_zero():
            payload["subsets"].append(
                {"J": sorted(j), "b0": b0, "h1_rank": h1.rank,
                 "h1_torsion": [str(t) for t in h1.torsion]})
    lines = [
        "flag: %s" % ("true" if flag_ok else "false"),
        "m = %d, f = %s, h = %s" % (k.m, tuple(f), tuple(h)),
    ]
    if witness:
        lines.insert(1, "minimal non-face witness: %s" % sorted(witness))
    lines.append("J with nonzero reduced b0 / H_1 (ring %s):" % ring)
    for row in payload["subsets"]:
        tor = ("+" + "+".join("Z/%s" % t for t in row["h1_torsion"])
               if row["h1_torsion"] else "")
        lines.append("  J=%-18s b0=%d  H1=Z^%d%s"
                     % (row["J"], row["b0"], row["h1_rank"], tor))
    payload["lines"] = lines
    emit(payload, args.as_json)
    return EXIT_OK


def cmd_presentation(k, args, ring):
    pres = build_presentation(k, ring, args.grading)
    if args.as_json:
        json.dump(presentation_to_dict(pres), sys.stdout, indent=2,
                  sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_OK
    print("generators: %d" % len(pres.generators))
    for g in pres.generators:
        print("  deg %-3d %-24s = %s" % (g.degree, g.symbol.render(),
                                         g.value.render()))
    print("relations: %d (%s-graded)" % (len(pres.relations),
                                         args.grading))
    for rel in pres.relations:
        js = ",".join(str(sorted(j)) for j, _ in rel.parts)
        print("  deg %-3d (J=%s)" % (rel.degree, js))
        print("    %s" % render_relation(k, rel, ring))
    return EXIT_OK


def cmd_homotopy(k, args):
    report = multiplicity_report(k, args.trunc)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    print("P(t) coefficients: %s" % report.p)
    mults = report.nonzero_multiplicities()
    print("sphere multiplicities: %s"
          % (" ".join("D_%d=%d" % (n, v) for n, v in mults.items()) or "none"))
    print("loop homology Poincare series: %s" % report.poincare)
    ranks = {n: r for n, r in report.rational_ranks.items() if r}
    print("rational homotopy ranks: %s"
          % (" ".join("pi_%d=%d" % (n, r) for n, r in sorted(ranks.items()))
             or "all zero"))
    if mults:
        top = min(args.trunc, max(mults) + 2)
        for big_n in range(3, top + 1):
            print("  pi_%d(Z_K) = %s"
                  % (big_n, symbolic_homotopy_group(report.multiplicities,
                                                    big_n)))
    return EXIT_OK


def cmd_hilbert(k, args, ring):
    trunc = args.trunc
    alg = PCAlgebra(k, ring)
    dims = graded_dimensions(alg, trunc)
    loop_series = loop_poincare_series(k, trunc)
    product = poly_mul(loop_series, one_plus_t_power(k.m), trunc)
    product += [0] * (trunc + 1 - len(product))
    payload = {
        "dims": dims,
        "series": product,
        "match": dims == product,
        "loop_series": loop_series,
        "lines": [
            "k[K]! dimensions by enumeration: %s" % dims,
            "series (1+t)^d/h_K(-t):          %s" % product,
            "agreement: %s" % ("yes" if dims == product else "NO"),
            "loop homology series 1/P:        %s" % loop_series,
        ],
    }
    emit(payload, args.as_json)
    return EXIT_OK if payload["match"] else EXIT_FAIL


def cmd_verify(k, args, ring):
    pres = build_presentation(k, ring, args.grading)
    report = verify_presentation(k, pres)
    checks = list(report.checks)

    def tor_agrees(j):
        for n in range(0, len(j) + 2):
            a = koszul_homology(k, j, ring, degree=n)
            b, _ = reduced_homology(k, j, ring, degree=n)
            if a.rank != b.rank or a.torsion != b.torsion:
                return False
        return True

    tor_rows = [tor_agrees(j) for j in all_subsets(k.m) if j]
    tor_ok = all(tor_rows)
    checks.append(("Tor strand cross-check", tor_ok,
                   "%d/%d subsets agree" % (sum(tor_rows), len(tor_rows))))

    alg = pc_algebra(k, ring)
    cycles_total = cycles_ok = 0
    for j in all_subsets(k.m):
        if not j:
            continue
        for n in (1, 2, 3):
            _, cycles = reduced_homology(k, j, ring, degree=n)
            for kappa in cycles:
                cycles_total += 1
                if verify_bar_cycle(bar_cycle(alg, kappa)):
                    cycles_ok += 1
    checks.append(("bar cycles closed", cycles_ok == cycles_total,
                   "%d/%d generating cycles" % (cycles_ok, cycles_total)))

    ok = all(c[1] for c in checks)
    if args.as_json:
        print(json.dumps({"ok": ok,
                          "checks": [{"name": n, "ok": o, "detail": d}
                                     for n, o, d in checks]},
                         indent=2, sort_keys=True))
    else:
        for name, good, detail in checks:
            print("%-24s %s  %s" % (name, "PASS" if good else "FAIL", detail))
        print("verification %s" % ("passed" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_FAIL


def main(argv=None):
    args = build_parser().parse_args(argv)
    max_m = None
    env_cap = os.environ.get("LOOPPRES_MAX_M")
    if env_cap is not None:
        try:
            max_m = int(env_cap)
        except ValueError:
            print("LOOPPRES_MAX_M must be an integer", file=sys.stderr)
            return EXIT_PARSE
    try:
        ring = parse_ring(args.ring)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        k = load_complex(args.file, max_m=max_m)
    except (OSError, ValueError, json.JSONDecodeError, LoopPresError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    flag_ok, witness = is_flag(k)
    if not flag_ok:
        if args.skeleton_clique:
            k = clique_complex(k.m, k.edges())
            flag_ok, witness = True, None
        elif args.command == "analyze":
            cmd_analyze(k, args, ring, flag_ok, witness)
            return EXIT_NOT_FLAG
        else:
            print("error: complex is not flag (minimal non-face %s); "
                  "pass --skeleton-clique to take the clique complex"
                  % sorted(witness), file=sys.stderr)
            return EXIT_NOT_FLAG

    if args.command == "analyze":
        return cmd_analyze(k, args, ring, flag_ok, witness)
    if args.command == "presentation":
        return cmd_presentation(k, args, ring)
    if args.command == "homotopy":
        return cmd_homotopy(k, args)
    if args.command == "hilbert":
        return cmd_hilbert(k, args, ring)
    return cmd_verify(k, args, ring)


if __name__ == "__main__":
    sys.exit(main())
