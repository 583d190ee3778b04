"""Benchmark entry point: cold-process passes of a workload, metrics as JSON.

    python3 perfbench/run.py --workload presentation|verify|survey|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload's whole fixed op
list in a fresh interpreter (worker.py, PYTHONHASHSEED fixed), because
looppres keeps process-wide caches that a second in-process repeat would hit.
With --trace 0 passes repeat until the next one would overrun --seconds.
The gated CPU time takes each op at its least over the passes, rescaled to a
quiet core; the other end-to-end metrics are medians over passes.  With
--trace 1 one untraced and one traced pass run, and the per-layer metrics come
from the traced one.

Earlier stdout lines are a human-readable report; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit code 2, with no
result printed, when the checkout has no looppres sources.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

from tracer import MODULES  # noqa: E402
from workloads import HASH_SEED, WORKLOADS  # noqa: E402

OP_TIMEOUT_S = 60.0       # one op; the m >= 10 verify blow-up must fail, not hang
RUN_LIMIT_S = 170.0       # every run ends well within 180 s
SETUP_SAMPLES = 9         # setup_s is the median of this many fresh processes
PER_OP_ROWS = 20          # longer op lists are summarised per command

# gated metrics, as in BENCHMARK.json.  Times are rescaled to a quiet core by
# the worker's speed samples: on a shared host the same pass took 1.0-1.7x its
# least CPU time within minutes.  What the rescaling leaves is slowdown that
# hits the program more than the sampling loop, so each op counts at its least
# rescaled time over the passes.  The report also prints the raw times
END_TO_END = [("setup_s", "s"), ("ref_cpu_s", "s"), ("peak_rss_mb", "MB")]

RINGS = ("Z", "Q", "Fp")
# per-layer metrics: (name, unit, source); source is ("calls"|"self_s", fn),
# ("counter"|"distinct", key) or a special computed below
PER_LAYER = (
    [("freealg.add.calls", "count", ("calls", "freealg.add")),
     ("freealg.add.self_s", "s", ("self_s", "freealg.add")),
     ("freealg.add.terms_out", "count", ("counter", "freealg.add.terms_out")),
     ("freealg.mul.self_s", "s", ("self_s", "freealg.mul")),
     ("freealg.graded_commutator.self_s", "s",
      ("self_s", "freealg.graded_commutator")),
     ("freealg.nested_commutator.self_s", "s",
      ("self_s", "freealg.nested_commutator")),
     ("presentation.rewrite_chat.calls", "count",
      ("calls", "presentation.rewrite_chat")),
     ("presentation.rewrite_chat.distinct", "count",
      ("distinct", "presentation.rewrite_chat.distinct")),
     ("presentation.rewrite_chat.self_s", "s",
      ("self_s", "presentation.rewrite_chat")),
     ("presentation.gptw_generators.self_s", "s",
      ("self_s", "presentation.gptw_generators")),
     ("presentation.relation_for_cycle.self_s", "s",
      ("self_s", "presentation.relation_for_cycle")),
     ("presentation.relation_terms", "count",
      ("counter", "presentation.relation_terms")),
     ("presentation.presentation_to_dict.self_s", "s",
      ("self_s", "presentation.presentation_to_dict")),
     ("pcalg.normalize.calls", "count", ("calls", "pcalg.normalize")),
     ("pcalg.normalize.distinct_words", "count",
      ("distinct", "pcalg.normalize.distinct_words")),
     ("pcalg.normalize.zero_ratio", "ratio", ("zero_ratio", None)),
     ("pcalg.normalize.self_s", "s", ("self_s", "pcalg.normalize")),
     ("pcalg.mul.calls", "count", ("calls", "pcalg.mul")),
     ("pcalg.mul.self_s", "s", ("self_s", "pcalg.mul")),
     ("pcalg.evaluate.self_s", "s", ("self_s", "pcalg.evaluate")),
     ("pcalg.commutator_value.calls", "count",
      ("calls", "pcalg.commutator_value")),
     ("pcalg.commutator_value.self_s", "s",
      ("self_s", "pcalg.commutator_value")),
     ("pcalg.graded_dimensions.self_s", "s",
      ("self_s", "pcalg.graded_dimensions")),
     ("pcalg.graded_dimensions.words", "count",
      ("counter", "pcalg.graded_dimensions.words")),
     ("simplicial.reduced_homology.calls", "count",
      ("calls", "simplicial.reduced_homology")),
     ("simplicial.reduced_homology.self_s", "s",
      ("self_s", "simplicial.reduced_homology")),
     ("simplicial.boundary_matrix.self_s", "s",
      ("self_s", "simplicial.boundary_matrix")),
     ("simplicial.boundary_matrix.entries", "count",
      ("counter", "simplicial.boundary_matrix.entries")),
     ("simplicial.path_components.calls", "count",
      ("calls", "simplicial.path_components")),
     ("simplicial.path_components.self_s", "s",
      ("self_s", "simplicial.path_components")),
     ("simplicial.all_subsets.subsets", "count",
      ("counter", "simplicial.all_subsets.subsets")),
     ("simplicial.is_flag.self_s", "s", ("self_s", "simplicial.is_flag"))]
    + [("exactlin.homology_with_representatives.%s.%s" % (r, stat),
        "count" if stat == "calls" else "s",
        (stat, "exactlin.homology_with_representatives.%s" % r))
       for r in RINGS for stat in ("calls", "self_s")]
    + [("exactlin.smith_normal_form.calls", "count",
        ("calls", "exactlin.smith_normal_form")),
       ("exactlin.smith_normal_form.self_s", "s",
        ("self_s", "exactlin.smith_normal_form")),
       ("exactlin.smith_normal_form.entries", "count",
        ("counter", "exactlin.smith_normal_form.entries")),
       ("exactlin.field_diagonalize.calls", "count",
        ("calls", "exactlin.field_diagonalize")),
       ("exactlin.field_diagonalize.self_s", "s",
        ("self_s", "exactlin.field_diagonalize")),
       ("exactlin.field_diagonalize.entries", "count",
        ("counter", "exactlin.field_diagonalize.entries")),
       ("torbar.koszul_homology.calls", "count",
        ("calls", "torbar.koszul_homology")),
       ("torbar.koszul_homology.self_s", "s",
        ("self_s", "torbar.koszul_homology")),
       ("torbar.bar_cycle.calls", "count", ("calls", "torbar.bar_cycle")),
       ("torbar.bar_cycle.self_s", "s", ("self_s", "torbar.bar_cycle")),
       ("torbar.bar_cycle.terms", "count",
        ("counter", "torbar.bar_cycle.terms")),
       ("torbar.verify_bar_cycle.self_s", "s",
        ("self_s", "torbar.verify_bar_cycle")),
       ("homotopy.multiplicity_report.self_s", "s",
        ("self_s", "homotopy.multiplicity_report")),
       ("homotopy.loop_poincare_series.self_s", "s",
        ("self_s", "homotopy.loop_poincare_series")),
       ("cli.load_complex.self_s", "s", ("self_s", "cli.load_complex")),
       ("cli.main.self_s", "s", ("self_s", "cli.main"))]
    + [("%s.total.self_s" % m, "s", ("module_self", m)) for m in MODULES]
    + [("%s.total.share" % m, "ratio", ("module_share", m)) for m in MODULES]
    + [("trace.overhead_s", "s", ("overhead", None))]
)


class PassKilled(Exception):
    pass


def spawn(workload, seed, limit_s, *extra, op_timeout=OP_TIMEOUT_S, env=None):
    """Run worker.py in a fresh interpreter; returns its JSON payload."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONDONTWRITEBYTECODE="1", **(env or {}))
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--t0", repr(t0),
           "--timeout", str(op_timeout)] + list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(limit_s, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise PassKilled("pass exceeded %.0fs" % limit_s)
    if proc.returncode != 0:
        raise PassKilled("worker exit %d: %s"
                         % (proc.returncode, proc.stderr.strip()[-400:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Passes of one workload at one seed, and the metrics derived from them."""

    def __init__(self, workload, seed, seconds, select=None, **spawn_opts):
        """``select`` (op indices) and ``spawn_opts`` serve the self-test."""
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.n_ops = len(select or WORKLOADS[workload](seed))
        self.spawn_extra = ("--ops", ",".join(map(str, select))) if select else ()
        self.spawn_opts = spawn_opts
        self.start = time.monotonic()
        self.passes = []
        self.setups = []      # rescaled to a quiet core
        self.raw_setups = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def one_pass(self, *extra):
        self.attempted += self.n_ops
        try:
            payload = spawn(self.workload, self.seed, self.remaining(),
                            *(self.spawn_extra + extra), **self.spawn_opts)
        except PassKilled as exc:
            self.failed += self.n_ops
            self.failures.append(("whole pass", str(exc)))
            return None
        self.setups.append(payload["ref_setup_s"])
        self.raw_setups.append(payload["setup_s"])
        for row in payload["ops"]:
            if not row["ok"]:
                self.failed += 1
                self.failures.append((row["op"], row["why"]))
        return payload

    def timed_passes(self):
        while True:
            payload = self.one_pass()
            if payload is None:
                return
            self.passes.append(payload)
            per_pass = statistics.median(
                p["wall_s"] + p["setup_s"] for p in self.passes)
            if time.monotonic() - self.start + per_pass > self.seconds:
                return

    def extra_setups(self):
        while len(self.setups) < SETUP_SAMPLES and self.remaining() > 5:
            try:
                payload = spawn(self.workload, self.seed, self.remaining(),
                                "--setup-only")
            except PassKilled as exc:
                self.failures.append(("set-up process", str(exc)))
                return
            self.setups.append(payload["ref_setup_s"])
            self.raw_setups.append(payload["setup_s"])

    def op_latencies(self, key="s", pick=statistics.median):
        """Wall ("s"), CPU ("cpu_s") or rescaled CPU ("ref_cpu_s") time of
        each op, picked over the passes."""
        return [pick(p["ops"][i][key] for p in self.passes)
                for i in range(self.n_ops)]

    def end_to_end(self):
        lat = self.op_latencies()
        return {
            "setup_s": statistics.median(self.setups),
            "ref_cpu_s": sum(self.op_latencies("ref_cpu_s", min)),
            "raw_setup_s": statistics.median(self.raw_setups),
            "cpu_s": sum(self.op_latencies("cpu_s")),
            "wall_s": statistics.median(p["wall_s"] for p in self.passes),
            "op_p50_s": nearest_rank(lat, 0.5),
            "op_p90_s": nearest_rank(lat, 0.9),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in self.passes),
        }


def per_layer(traced, untraced_wall):
    tr = traced["trace"]
    fns, counters, distinct = tr["functions"], tr["counters"], tr["distinct"]

    def fn(name, key):
        return fns.get(name, {}).get(key, 0)

    module_self = {m: sum(v["self_s"] for n, v in fns.items()
                          if n.split(".")[0] == m) for m in MODULES}
    total_self = sum(module_self.values()) or 1.0
    out = {}
    for name, unit, (kind, key) in PER_LAYER:
        if kind in ("calls", "self_s"):
            value = fn(key, kind)
        elif kind == "counter":
            value = counters.get(key, 0)
        elif kind == "distinct":
            value = distinct.get(key, 0)
        elif kind == "zero_ratio":
            calls = fn("pcalg.normalize", "calls")
            value = counters.get("pcalg.normalize.zero", 0) / calls if calls else 0.0
        elif kind == "module_self":
            value = module_self[key]
        elif kind == "module_share":
            value = module_self[key] / total_self
        else:  # overhead
            value = traced["wall_s"] - untraced_wall
        out[name] = (value, unit)
    return out


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds)
    lines = []
    if trace:
        untraced = run.one_pass()
        traced = run.one_pass("--trace") if untraced else None
        if traced is None:
            return run, None, lines
        metrics = per_layer(traced, untraced["wall_s"])
        lines.append("%s traced pass (pid %d, %d aliases rebound): wall %.3f s;"
                     " untraced pass (pid %d): wall %.3f s"
                     % (workload, traced["pid"], traced["trace"]["rebinds"],
                        traced["wall_s"], untraced["pid"], untraced["wall_s"]))
        for name, (value, unit) in metrics.items():
            lines.append("  %-52s %14.6g %s" % (name, value, unit))
        return run, metrics, lines
    run.timed_passes()
    if not run.passes:
        return run, None, lines
    run.extra_setups()
    e2e = run.end_to_end()
    metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    lat = run.op_latencies()
    lines.append("%s: %d passes of %d ops (pids %s), seed %d"
                 % (workload, len(run.passes), run.n_ops,
                    ",".join(str(p["pid"]) for p in run.passes), seed))
    per_pass = "median of %d passes" % len(run.passes)
    per_op = "nearest rank over %d op medians, wall time" % len(lat)
    op_sum = "sum over %d ops of each op's median" % len(lat)
    setups = "median of %d processes" % len(run.setups)
    notes = {"setup_s": setups + ", rescaled to a quiet core",
             "ref_cpu_s": "sum over %d ops of each op's least of %d passes,"
                          " rescaled to a quiet core"
                          % (len(lat), len(run.passes)),
             "raw_setup_s": setups, "cpu_s": op_sum,
             "wall_s": per_pass, "peak_rss_mb": per_pass,
             "op_p50_s": per_op, "op_p90_s": per_op}
    gated = dict(END_TO_END)
    for name, value in e2e.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        lines.append("  %-13s %12.4f %-3s (%s%s)"
                     % (name, value, unit, notes[name],
                        "" if name in gated else "; not gated"))
    lines.append("  %-13s %12.4f %-3s (%d failed / %d attempted)"
                 % ("fail_ratio", run.failed / run.attempted, "", run.failed,
                    run.attempted))
    last = run.passes[-1]["ops"]
    if len(last) <= PER_OP_ROWS:
        for i, row in enumerate(last):
            size = (" gens=%d rel_terms=%d" % (row["gens"], row["rel_terms"])
                    if "gens" in row else "")
            lines.append("    %8.3f s  %s%s" % (lat[i], row["op"], size))
        return run, metrics, lines
    by_kind = {}
    for i, row in enumerate(last):
        by_kind.setdefault(row["op"].split(":", 1)[1], []).append(lat[i])
    for kind, values in sorted(by_kind.items()):
        lines.append("    %-28s %3d ops  median %.3f s  max %.3f s  sum %.3f s"
                     % (kind, len(values), statistics.median(values),
                        max(values), sum(values)))
    return run, metrics, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "looppres", "cli.py")):
        print("error: no looppres sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, got, lines = run_workload(name, args.seed, args.seconds,
                                       args.trace)
        for line in lines:
            print(line)
        for op, why in run.failures:
            print("  FAILED %s: %s" % (op, why))
        attempted += run.attempted
        failed += run.failed
        prefix = name + "." if args.workload == "all" else ""
        for key, (value, unit) in (got or {}).items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        if got is None:
            failed = max(failed, 1)
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
