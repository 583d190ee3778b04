"""The three workloads: fixed op lists over seeded corpora.

An op is one CLI command on one generated JSON file.  Within a workload no
(complex, ring) pair repeats, so no op can reuse a cache that an earlier op of
the same process filled (``presentation.pc_algebra`` is keyed by complex
equality).  Why each workload exists is written in README.md.

What the workload seed changes:
- in every workload it scrambles the order of facets, and of the vertices in
  each facet, of every input file (corpus.scrambled);
- in `survey` it also relabels the vertices of every random complex.
`presentation` and `verify` keep the draws' own labels, because the rewriting
engine's work depends on the labelling: relabelling the m = 9 draw moves its
build time by about +-30 %, which would swamp any bound on wall_s.  The op
order is fixed: peak RSS depends on it, through caches that outlive an op.
"""

from dataclasses import dataclass

from corpus import gnp_clique, octahedron, polygon, scrambled

# fixed hash seed of every workload process: set iteration order, and so the
# work done, is the same from run to run
HASH_SEED = "0"
HILBERT_TRUNC = 6
# random draws per vertex count m in `survey` (graph seeds 1..n): 100 ops in
# about 12 s, so that three passes fit in one 40 s run
SURVEY_DRAWS = {8: 12, 9: 4, 10: 3}


@dataclass(frozen=True)
class Op:
    op_id: str        # "<complex>:<command> <flags>", stable across seeds
    complex: object   # corpus.Complex
    argv: tuple       # CLI argv after the file name

    @property
    def command(self):
        return self.argv[0]


def _op(cx, *argv):
    return Op("%s:%s" % (cx.name, " ".join(argv)), cx, argv)


def _scrambled(ops, workload, seed):
    return [Op(op.op_id, scrambled(op.complex, "%s:%s" % (workload, seed)),
               op.argv) for op in ops]


def presentation_ops(seed):
    return _scrambled([
        _op(polygon(9), "presentation", "--json"),
        _op(gnp_clique(9, 1), "presentation", "--json"),
        _op(gnp_clique(9, 2), "presentation", "--json", "--ring", "F2"),
        _op(polygon(8), "presentation", "--json", "--grading", "z"),
        _op(polygon(8), "presentation", "--json", "--ring", "Q"),
    ], "presentation", seed)


def verify_ops(seed):
    drawn = [gnp_clique(7, g) for g in range(1, 6)]
    ops = [
        _op(polygon(6), "verify", "--json"),
        _op(polygon(7), "verify", "--json"),
        _op(polygon(7), "verify", "--json", "--ring", "F3"),
        _op(octahedron(), "verify", "--json"),
    ]
    ops += [_op(cx, "verify", "--json") for cx in drawn[:-1]]
    ops.append(_op(drawn[-1], "verify", "--json", "--ring", "F3"))
    return _scrambled(ops, "verify", seed)


def survey_ops(seed):
    fixed = [polygon(m) for m in range(5, 11)] + [octahedron()]
    drawn = [gnp_clique(m, g, "survey:%s:m%d-g%d" % (seed, m, g))
             for m, n in SURVEY_DRAWS.items() for g in range(1, n + 1)]
    ops = []
    for cx in fixed + drawn:
        ops.append(_op(cx, "analyze", "--ring", "Z", "--json"))
        ops.append(_op(cx, "homotopy", "--json"))
        ops.append(_op(cx, "hilbert", "--trunc", str(HILBERT_TRUNC), "--json"))
        if cx.m <= 9:
            ops.append(_op(cx, "analyze", "--ring", "Q", "--json"))
    return _scrambled(ops, "survey", seed)


WORKLOADS = {
    "presentation": presentation_ops,
    "verify": verify_ops,
    "survey": survey_ops,
}
