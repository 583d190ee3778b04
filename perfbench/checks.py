"""Correctness gate for one op: exit code, stdout digest, semantic checks.

The digest is the sha256 of the op's stdout, compared with the one recorded in
reference.json from the seed commit.  For a relabelled random complex
(corpus.Complex.perm set) the raw stdout depends on the labelling, so the
digest is taken over a canonical form instead: vertex sets are mapped back to
the draw's own labels and label-dependent text (rendered polynomials, GPTW
generator choices) is reduced to its label-free counts.  `homotopy`, `hilbert`
and `verify` print only label-invariant data and are digested as printed.
"""

import hashlib
import json


def _unpermute(cx, vertices):
    back = cx.original_label()
    return sorted(back[v] for v in vertices)


def _by_subset(rows):
    return sorted(rows, key=lambda r: (len(r["J"]), r["J"]))


def canonical_text(op, stdout):
    cx = op.complex
    if cx.perm is None or op.command not in ("analyze", "presentation"):
        return stdout
    data = json.loads(stdout)
    if op.command == "analyze":
        data.pop("lines")
        if data["witness"] is not None:
            data["witness"] = _unpermute(cx, data["witness"])
        data["subsets"] = _by_subset(
            [dict(r, J=_unpermute(cx, r["J"])) for r in data["subsets"]])
    else:
        cert = data["certificate"]
        data = {
            "m": data["m"], "ring": data["ring"], "grading": data["grading"],
            "generators": sorted([_unpermute(cx, g["J"]), g["degree"]]
                                 for g in data["generators"]),
            "relation_degrees": sorted(r["degree"] for r in data["relations"]),
            "certificate": {
                "b0_by_J": _by_subset([dict(r, J=_unpermute(cx, r["J"]))
                                       for r in cert["b0_by_J"]]),
                "h1_gens_by_J": _by_subset([dict(r, J=_unpermute(cx, r["J"]))
                                            for r in cert["h1_gens_by_J"]]),
                "generators_by_degree": cert["generators_by_degree"],
                "relations_by_degree": cert["relations_by_degree"],
            },
        }
    return json.dumps(data, sort_keys=True)


def digest(op, stdout):
    return hashlib.sha256(canonical_text(op, stdout).encode()).hexdigest()


def semantic_problem(op, stdout):
    """None when the printed JSON says what a correct answer must say."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    cmd = op.command
    if cmd == "verify" and data.get("ok") is not True:
        return "verify reports ok=%r" % data.get("ok")
    if cmd == "hilbert" and data.get("match") is not True:
        return "hilbert reports match=%r" % data.get("match")
    if cmd == "analyze" and data.get("flag") is not True:
        return "analyze reports flag=%r" % data.get("flag")
    if cmd == "presentation":
        cert = data["certificate"]
        total = sum(cert["generators_by_degree"].values())
        if len(data["generators"]) != total:
            return "%d generators, certificate total %d" % (
                len(data["generators"]), total)
        if sum(r["b0"] for r in cert["b0_by_J"]) != total:
            return "certificate b0 sum differs from its degree counts"
    return None


def check(op, rc, stdout, reference):
    """(ok, reason, digest) for one finished op."""
    if rc != 0:
        return False, "exit %d" % rc if isinstance(rc, int) else str(rc), None
    try:
        sha = digest(op, stdout)
        problem = semantic_problem(op, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return False, "unreadable output: %r" % (exc,), None
    if problem:
        return False, problem, sha
    want = reference.get(op.op_id)
    if want is None:
        return False, "no reference digest", sha
    if sha != want:
        return False, "digest mismatch", sha
    return True, None, sha


def presentation_size(stdout):
    """(generators, relation terms) printed by `presentation --json`."""
    data = json.loads(stdout)
    return (len(data["generators"]),
            sum(len(r["terms"]) for r in data["relations"]))
