"""Command-line front end.

    looppres <analyze|presentation|homotopy|verify|hilbert> <file>
             [--ring Z|Q|F<p>] [--grading multi|z] [--trunc N] [--json]
             [--skeleton-clique]

Input files are JSON objects {"m": int, "facets": [[1-indexed vertices]]};
"m" may be omitted (inferred as the largest vertex).  Exit codes: 0 success,
2 unparseable input or --trunc < 0, 3 non-flag input without
--skeleton-clique; verify and hilbert exit 1 when an oracle check fails.

``--json`` output is byte for byte what json.dumps gives with indent=2 and
sort_keys=True, from ``write_json``: json's C encoder runs only without indent.
``presentation --json`` is streamed relation by relation, each term's text
formatted at once, with the bytes of the dump of ``presentation_to_dict``.
"""

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import GeneratorType

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
    presentation_head,
    relation_head,
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
    reduced_homology_invariants,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_FLAG = 3


def nonnegative_int(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %s" % text)
    return int(text)


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
    p.add_argument("--trunc", type=nonnegative_int, default=16,
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


class RawJSON(str):
    """Text that ``write_json`` writes as it stands: a value already encoded,
    indented for the place where it is written."""


def write_json(payload, fp=None):
    """Write payload and a newline to fp (default stdout), as json.dumps would
    with indent=2 and sort_keys=True; a non-str dict key raises TypeError.
    A generator is written as a list, one item at a time, so that a long list
    need never be held whole."""
    fp = sys.stdout if fp is None else fp
    out = []
    put = out.append

    def write(obj, pad):  # pad: newline and indent of obj's own line
        if isinstance(obj, str):
            put(obj if type(obj) is RawJSON else encode_basestring_ascii(obj))
        elif type(obj) is int:  # as json writes it, without its overhead
            put(repr(obj))
        elif not (isinstance(obj, (dict, list, tuple, GeneratorType)) and obj):
            put(json.dumps(obj))
        elif isinstance(obj, dict):
            inner = pad + "  "
            sep = "{" + inner
            for key in sorted(obj):  # a non-str key fails in sorted or encode
                put(sep + encode_basestring_ascii(key) + ": ")
                write(obj[key], inner)
                sep = "," + inner
            put(pad + "}")
        else:
            inner = pad + "  "
            sep = "[" + inner
            for item in obj:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(pad + "]" if sep[0] == "," else "[]")  # [] from a generator
        if len(out) >= 1 << 10:
            fp.write("".join(out))
            out.clear()

    write(payload, "\n")
    fp.write("".join(out) + "\n")


def _term_texts(terms, texts):
    """The JSON text of each term {"coeff", "word"} of a relation's
    ``poly.terms`` (nonempty words), in ``presentation_to_dict``'s order, as
    ``write_json`` writes it in its place; ``texts`` keeps each symbol's."""
    order = sorted(set().union(*terms), key=attrgetter("_key"))
    rank = dict(zip(order, range(len(order)))).__getitem__
    pad = "\n" + "  " * 4  # a term's line: document, relations, relation, terms
    key_pad = pad + "  "
    for s in order:
        if s not in texts:
            texts[s] = key_pad + "  " + encode_basestring_ascii(s._text)
    text, heads, tail = texts.__getitem__, {}, key_pad + "]" + pad + "}"
    # ranks order words as word_sort_key does: symbols' keys are distinct
    for w in sorted(terms, key=lambda w: tuple(map(rank, w))):
        c = terms[w]
        head = heads.get(c)
        if head is None:
            head = heads[c] = '{%s"coeff": %s,%s"word": [' % (
                key_pad, encode_basestring_ascii(str(c)), key_pad)
        yield RawJSON(head + ",".join(map(text, w)) + tail)


def write_presentation_json(pres, fp=None):
    """``write_json(presentation_to_dict(pres), fp)``, made and written one
    relation at a time."""
    texts = {}
    doc = presentation_head(pres)
    doc["relations"] = (dict(relation_head(pres.context, rel),
                             terms=_term_texts(rel.poly.terms, texts))
                        for rel in pres.relations)
    write_json(doc, fp)


def emit(payload, as_json):
    if as_json:
        write_json(payload)
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
    for j in all_subsets(k.m)[1:]:  # k need not be flag, so no Context
        b0 = reduced_betti0(k, j)
        h1 = reduced_homology_invariants(k, j, ring, 2)
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
        write_presentation_json(pres)
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
        print("    %s" % render_relation(pres.context, rel))
    return EXIT_OK


def cmd_homotopy(k, args):
    report = multiplicity_report(k, args.trunc)
    if args.as_json:
        write_json(report.to_dict())
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
    report = verify_presentation(k, build_presentation(k, ring, args.grading))
    if args.as_json:
        write_json({"ok": report.ok, "checks": [
            {"name": n, "ok": o, "detail": d} for n, o, d in report.checks]})
    else:
        print(report.summary())
        print("verification %s" % ("passed" if report.ok else "FAILED"))
    return EXIT_OK if report.ok else EXIT_FAIL


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
    except (OSError, ValueError, RecursionError, LoopPresError) as exc:
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
