"""One workload pass in a fresh interpreter (started by run.py, not by hand).

Imports looppres from the checkout's src/, writes the workload's inputs under
perfbench/.work/, then feeds each op to ``looppres.cli.main([...])`` with
stdout captured, a per-op timeout, and the correctness gate of checks.py.
Prints one JSON object: setup time, per-op results, peak RSS and, with
--trace, the tracer's aggregates.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so setup_s covers interpreter start, the looppres import and input
generation.

Other tenants of a shared host slow this process down by up to 2x, in
stretches from a tenth of a second to minutes.  So a SpeedSampler times a
fixed integer loop every SAMPLE_EVERY_S of CPU time, and each op's CPU time,
and the set-up time, are also given rescaled to the speed of a quiet core
(``ref_cpu_s``, ``ref_setup_s``).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")


SAMPLE_EVERY_S = 0.02    # process CPU time between two speed samples
REF_LOOP_N = 2000        # iterations of the reference loop
REF_LOOP_S = 2.4e-4      # its time when sampled in a pass on a quiet core
                         # (Intel Xeon, CPython 3.11)


def _reference_loop():
    # integers only: it allocates no container, so sampling never moves the
    # garbage collector's schedule in the program it interrupts
    x = 0
    for i in range(REF_LOOP_N):
        x = (x * 31 + i) % 1000003
    return x


class SpeedSampler:
    """Times the reference loop on SIGPROF, every SAMPLE_EVERY_S of CPU time.

    Once a process CPU timer is armed, Linux reads the process CPU clock at
    tick resolution, so every CPU time here is thread time: the load is one
    thread.

    REF_LOOP_S over a sample's loop time is the share of a quiet core's speed
    that this process got just then.  The samples fall evenly in CPU time, so
    work that took ``cpu`` seconds over samples lo..hi-1 would have taken
    ``cpu * speed(lo, hi)`` on the quiet core.
    """

    def __init__(self):
        self.loops = []

    def _sample(self, signum, frame):
        c0 = time.thread_time()
        _reference_loop()
        self.loops.append(time.thread_time() - c0)

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self):
        return len(self.loops)

    def cost(self, lo, hi):
        """CPU time the samples lo..hi-1 took out of the work around them."""
        return sum(self.loops[lo:hi])

    def speed(self, lo, hi):
        """Mean share of quiet-core speed over samples lo..hi-1.

        Work shorter than SAMPLE_EVERY_S may hold no sample; it takes the
        samples on either side of it, or a sample taken now.
        """
        if hi <= lo:
            lo, hi = max(lo - 1, 0), hi + 1
        loops = self.loops[lo:hi]
        if not loops:
            self._sample(signal.SIGPROF, None)
            loops = self.loops[-1:]
        return statistics.fmean(REF_LOOP_S / max(t, 1e-9) for t in loops)


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` eats it."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(cli_main, op, path, timeout_s):
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    c0 = time.thread_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main([op.command, path] + list(op.argv[1:]))
    except OpTimeout:
        rc = "timeout after %gs" % timeout_s
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed op, not a failed pass
        rc = "exception %r" % (exc,)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return wall, time.thread_time() - c0, rc, out.getvalue()


def _mutate(text):
    """Bump the first digit: still well-formed output, but a wrong answer."""
    for pos, ch in enumerate(text):
        if ch.isdigit():
            return text[:pos] + str((int(ch) + 1) % 10) + text[pos + 1:]
    return text + "?"


def load_reference(workload):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh).get(workload, {})


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--timeout", type=float, required=True,
                   help="per-op timeout in seconds")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--ops", help="comma-separated op indices (default all)")
    p.add_argument("--mutate", type=int, default=-1,
                   help="self-test: change one digit of this op's stdout")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sampler = SpeedSampler()
    sampler.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import looppres.cli  # the import is part of setup
    from checks import check, presentation_size
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    if args.ops:
        ops = [ops[int(i)] for i in args.ops.split(",")]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK)
    try:
        paths = {}
        for op in ops:
            name = op.complex.name
            if name not in paths:
                paths[name] = os.path.join(workdir, name + ".json")
                with open(paths[name], "w") as fh:
                    json.dump(op.complex.to_json(), fh)
        setup_s = time.monotonic() - args.t0
        setup_mark = sampler.mark()
        ref_setup_s = setup_s * sampler.speed(0, setup_mark)
        if args.setup_only:
            sampler.stop()
            print(json.dumps({"pid": os.getpid(), "setup_s": setup_s,
                              "ref_setup_s": ref_setup_s}))
            return 0

        tracer = None
        if args.trace:
            sampler.stop()  # spans hold no sampling
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        reference = load_reference(args.workload)
        signal.signal(signal.SIGALRM, _alarm)
        results = []
        t_start = time.perf_counter()
        c_start = time.thread_time()
        marks = []
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op = idx
            lo = sampler.mark()
            # looppres.cli.main is looked up per op: the tracer rebinds it
            elapsed, cpu, rc, stdout = run_op(
                looppres.cli.main, op, paths[op.complex.name], args.timeout)
            marks.append((lo, sampler.mark()))
            if idx == args.mutate:
                stdout = _mutate(stdout)
            ok, why, sha = check(op, rc, stdout, reference)
            row = {"op": op.op_id, "s": elapsed, "cpu_s": cpu, "ok": ok,
                   "why": why, "sha256": sha}
            if ok and op.command == "presentation":
                row["gens"], row["rel_terms"] = presentation_size(stdout)
            results.append(row)
        wall_s = time.perf_counter() - t_start
        cpu_s = time.thread_time() - c_start
        sampler.stop()
        for row, (lo, hi) in zip(results, marks):
            row["s"] -= sampler.cost(lo, hi)
            row["cpu_s"] -= sampler.cost(lo, hi)
            row["ref_cpu_s"] = row["cpu_s"] * sampler.speed(lo, hi)
        samples = sampler.loops[setup_mark:]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        payload = {"pid": os.getpid(), "setup_s": setup_s,
                   "ref_setup_s": ref_setup_s, "wall_s": wall_s - sum(samples),
                   "cpu_s": cpu_s - sum(samples), "ops": results,
                   "speed_samples": len(samples),
                   "peak_rss_mb": rss_kb / 1024.0}
        if tracer is not None:
            payload["trace"] = tracer.snapshot()
            tracer.write_spans(os.path.join(
                WORK, "spans-%s-%d.json" % (args.workload, args.seed)))
        print(json.dumps(payload))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
