"""Compare two checkouts of looppres end to end, in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1601-1610 \\
        --out BENCH_n.json [--workloads presentation,verify,survey] \\
        [--rp2-runs 3] [--verify-runs 3]

Each checkout is a clean copy of the tree (``git archive``), not a worktree.
For every seed and workload, ``perfbench/run.py --trace 0`` runs once in each
checkout, back to back; the side that runs first alternates from seed to seed
(the parent first on odd seeds), and ``__pycache__`` and ``perfbench/.work``
are removed before every run.  Per metric the output holds each side's runs,
median and quartiles (``statistics.quantiles(n=4)``, as perfbench/spread.py),
the pairs each side wins (lower is better; ties count for neither) and the
median gap against the parent's IQR.

With ``--rp2-runs N`` it also times ``presentation --json`` on the flag RP^2
over Z, N fresh interpreters a side, alternating: CPU time of the build and of
the emit as that side's ``cli.cmd_presentation`` does it, ``ru_maxrss`` after
each stage, and the sha256 of the text.  With the same N it runs the CLI
``analyze --json`` on the flag RP^2 over each ring of ``ANALYZE_RINGS``, under
one report key per ring.  With ``--verify-runs N`` it runs the CLI
``verify --json`` on each case of ``VERIFY_CASES`` (the 9-gon over Z and over
Q, the 10-gon over Z), under one report key per case.  Each CLI run is N
fresh interpreters a side, alternating, and records the child's CPU time
(user + system), its ``ru_maxrss`` and the sha256 of its stdout.  The results
file is rewritten after every pair.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

METRICS = ("setup_s", "ref_cpu_s", "peak_rss_mb")

# report key -> (m of the m-gon, ring): the verify runs of CI's tier-1 steps
VERIFY_CASES = {"verify_9gon_Z": (9, "Z"), "verify_9gon_Q": (9, "Q"),
                "verify_10gon": (10, "Z")}

# the rings of ``analyze --json`` on the flag RP^2, each under the report key
# "analyze_rp2_<ring>": CI's digest steps
ANALYZE_RINGS = ("Z", "Q", "F2", "F3")

# one flag RP^2 build and emit; prints one JSON line
RP2_PROBE = r'''
import hashlib, json, resource, time
from corpus import rp2_flag12
from looppres import cli
from looppres.exactlin import ZZ
from looppres.presentation import build_presentation

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

class Sink:
    def __init__(self):
        self.sha, self.writes = hashlib.sha256(), 0
    def write(self, text):
        self.sha.update(text.encode())
        self.writes += 1

k = rp2_flag12()
start = time.process_time()
pres = build_presentation(k, ZZ, "multi")
built, rss_built = time.process_time(), rss_mb()
sink = Sink()
cli.write_presentation_json(pres, sink)
print(json.dumps({"build_cpu_s": round(built - start, 2),
                  "emit_cpu_s": round(time.process_time() - built, 2),
                  "rss_after_build_mb": round(rss_built),
                  "peak_rss_mb": round(rss_mb()), "writes": sink.writes,
                  "sha256": sink.sha.hexdigest()}))
'''


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def clean(root):
    shutil.rmtree(os.path.join(root, "perfbench", ".work"), ignore_errors=True)
    for top, dirs, _ in os.walk(root):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(top, "__pycache__"))
            dirs.remove("__pycache__")


def run_workload(root, workload, seed):
    clean(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "40", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_env(root, dirs=("src",)):
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        os.path.join(root, d) for d in dirs))


def run_rp2(root):
    clean(root)
    proc = subprocess.run([sys.executable, "-c", RP2_PROBE], cwd=root,
                          env=child_env(root, ("src", "tests")),
                          capture_output=True, text=True, timeout=900,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_rp2(root, path):
    """The flag RP^2 of ``root``'s test corpus as a CLI input file."""
    with open(path, "w") as fh:
        subprocess.run([sys.executable, "-c",
                        "import json; from corpus import rp2_flag12; "
                        "print(json.dumps(rp2_flag12().to_json_dict()))"],
                       cwd=root, env=child_env(root, ("src", "tests")),
                       stdout=fh, timeout=60, check=True)


def run_cli(root, argv):
    """One ``looppres.cli`` child with arguments ``argv``, timed by wait4."""
    clean(root)
    with subprocess.Popen(
            [sys.executable, "-m", "looppres.cli", *argv],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024),
            "exit": proc.returncode,
            "sha256": hashlib.sha256(out).hexdigest()}


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    med = statistics.median(runs)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "spread": round((q3 - q1) / med, 4) if med else 0.0,
            "runs": runs}


def compare(parent, change):
    """Summaries of two equal-length run lists, pair i being run i of each."""
    out = {"parent": summary(parent), "change": summary(change),
           "change_wins": sum(c < p for p, c in zip(parent, change)),
           "parent_wins": sum(p < c for p, c in zip(parent, change))}
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out.update(median_ratio_change_over_parent=round(cm / pm, 3),
               parent_iqr=round(out["parent"]["q3"] - out["parent"]["q1"], 4),
               median_gap=round(pm - cm, 4))
    return out


def order(seed):
    return ("parent", "change") if seed % 2 else ("change", "parent")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--workloads", default="presentation,verify,survey")
    p.add_argument("--rp2-runs", type=int, default=0)
    p.add_argument("--verify-runs", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    report = {
        "host": "%d-core %s, CPython %s" % (os.cpu_count(), platform.system(),
                                            platform.python_version()),
        "seeds": args.seeds,
        "first_side": {str(s): order(s)[0] for s in args.seeds},
        "end_to_end": {}, "flag_rp2": {},
        **{"analyze_rp2_" + ring: {} for ring in ANALYZE_RINGS},
        **{key: {} for key in VERIFY_CASES}}
    raw = {w: {"parent": [], "change": []}
           for w in args.workloads.split(",")}

    def save():
        for w, sides in raw.items():
            done = min(len(sides["parent"]), len(sides["change"]))
            if done < 2:
                continue
            res = {side: sides[side][:done] for side in sides}
            report["end_to_end"][w] = {
                "pairs": done,
                "correct": all(r["correct"] for s in res.values() for r in s),
                "failed": sum(r["failed"] for s in res.values() for r in s),
                "metrics": {m: compare(*([r["metrics"][m]["value"]
                                          for r in res[side]]
                                         for side in ("parent", "change")))
                            for m in METRICS}}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    for seed in args.seeds:
        for w in raw:
            for side in order(seed):
                raw[w][side].append(run_workload(roots[side], w, seed))
                print(seed, w, side, json.dumps(
                    {m: raw[w][side][-1]["metrics"][m]["value"]
                     for m in METRICS}), flush=True)
            save()
    rp2 = {"parent": [], "change": []}
    for n in range(args.rp2_runs):
        for side in order(n + 1):
            rp2[side].append(run_rp2(roots[side]))
            print("flag_rp2", side, json.dumps(rp2[side][-1]), flush=True)
        report["flag_rp2"] = rp2
        save()

    def cli_pairs(key, argv, count):
        runs = {"parent": [], "change": []}
        for n in range(count):
            for side in order(n + 1):
                runs[side].append(run_cli(roots[side], argv))
                print(key, side, json.dumps(runs[side][-1]), flush=True)
            report[key] = {"runs": runs, **{
                metric: compare(*([r[metric] for r in runs[side]]
                                  for side in ("parent", "change")))
                for metric in ("cpu_s", "peak_rss_mb") if n}}
            save()

    with tempfile.TemporaryDirectory() as tmp:
        if args.rp2_runs:
            path = os.path.join(tmp, "rp2.json")
            write_rp2(roots["parent"], path)
            for ring in ANALYZE_RINGS:
                cli_pairs("analyze_rp2_" + ring,
                          ["analyze", "--json", "--ring", ring, path],
                          args.rp2_runs)
        for key, (m, ring) in VERIFY_CASES.items():
            path = os.path.join(tmp, "%dgon.json" % m)
            with open(path, "w") as fh:
                json.dump({"m": m, "facets": [[i, i + 1] for i in range(
                    1, m)] + [[1, m]]}, fh)
            cli_pairs(key, ["verify", "--json", "--ring", ring, path],
                      args.verify_runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
