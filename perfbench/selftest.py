"""Self-test of the benchmark's gate and tracer (about half a minute).

    python3 perfbench/selftest.py

Checks that a mutated stdout, a non-zero exit and a timeout each count as a
failed op in fail_ratio; that a traced pass prints the same stdout digests as
an untraced one; and that the traced counts pcalg.normalize.calls and
presentation.rewrite_chat.calls repeat exactly across two traced passes.
Exit code 0 when every check passes.
"""

import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import Run  # noqa: E402
from workloads import verify_ops  # noqa: E402

SEED = 5
_IDS = [op.op_id for op in verify_ops(SEED)]
# small verify ops that reach both the rewriting engine and the k[K]^! oracle
SEVEN = _IDS.index("7-gon:verify --json")
SMALL = [_IDS.index("6-gon:verify --json"), SEVEN]


def fail_case(label, *extra, **opts):
    run = Run("verify", SEED, 60, select=[SEVEN], **opts)
    run.one_pass(*extra)
    reason = run.failures[0][1] if run.failures else None
    ok = run.failed == 1 and run.attempted == 1
    return ok, "%s: fail_ratio %d/%d (%s)" % (label, run.failed, run.attempted,
                                             reason)


def traced_pair():
    plain = Run("verify", SEED, 60, select=SMALL).one_pass()
    first = Run("verify", SEED, 60, select=SMALL).one_pass("--trace")
    second = Run("verify", SEED, 60, select=SMALL).one_pass("--trace")
    out = []
    same = [r["sha256"] for r in plain["ops"]] == \
        [r["sha256"] for r in first["ops"]]
    out.append((same and all(r["ok"] for r in first["ops"]),
                "traced and untraced stdout digests agree"))
    for name in ("pcalg.normalize", "presentation.rewrite_chat"):
        a = first["trace"]["functions"].get(name, {}).get("calls", 0)
        b = second["trace"]["functions"].get(name, {}).get("calls", 0)
        out.append((a == b and a > 0,
                    "%s.calls repeats: %d, %d" % (name, a, b)))
    return out


def main():
    clean = Run("verify", SEED, 60, select=[SEVEN])
    clean.one_pass()
    results = [(clean.failed == 0 and clean.attempted == 1,
                "unmodified op: fail_ratio %d/%d"
                % (clean.failed, clean.attempted)),
               fail_case("mutated stdout", "--mutate", "0"),
               # a vertex cap below m makes the CLI refuse the input: exit 2
               fail_case("non-zero exit", env={"LOOPPRES_MAX_M": "4"}),
               fail_case("timeout", op_timeout=0.05)]
    results += traced_pair()
    for ok, text in results:
        print("%s  %s" % ("PASS" if ok else "FAIL", text))
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
