"""Write reference.json: the stdout digest of every op, from this checkout.

    python3 perfbench/record_reference.py [--seed N]

Run it on the commit whose outputs are the reference (the seed commit
e5bcfcd), never on a commit under test.  Digests of relabelled complexes are
canonical (see checks.py), so one seed covers every seed; run.py's passes at
other seeds confirm it.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    reference = {}
    for workload in sorted(WORKLOADS):
        payload = spawn(workload, args.seed, 600)
        digests = {}
        for row in payload["ops"]:
            if row["sha256"] is None or row["why"] not in (
                    None, "no reference digest"):
                sys.exit("%s: %s failed: %s" % (workload, row["op"], row["why"]))
            digests[row["op"]] = row["sha256"]
        reference[workload] = digests
        print("%s: %d ops, %.1f s" % (workload, len(digests), payload["wall_s"]))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
