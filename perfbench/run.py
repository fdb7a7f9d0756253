#!/usr/bin/env python3
"""KeyBin2 benchmark: one workload per run, crash-isolated workers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run builds the libraries in
../src and this package into .bench_build (CMake, Release).

Workloads (closed loop: one client process, 4 ranks, no more ranks than
cores). The batch mixtures keep the geometry of seed 42; --seed draws the
points.
  deep_proc     make_paper_mixture(32 dims, 6 comps), 10,000 points per rank,
                4 ProcComm ranks, max_depth 12. Per-bin work and traffic
                dominate; kAuto moves most merges to the coreset plane.
  insitu_proc   4 ProcComm ranks, each streaming its own 200-residue synthetic
                trajectory (5,000 frames, seed + rank) through
                md::InSituAnalyzer, which refits across ranks every 500 frames.
  batch_thread  make_paper_mixture(8 dims, 4 comps), 80,000 points per rank,
                4 ThreadComm ranks, default Params. Per-point work dominates.
                Not listed in BENCHMARK.json: ThreadComm ranks share the
                process-wide ThreadPool, whose drain() race crashes about one
                fit in seven at random, so two runs of the same code fail
                different numbers of operations, and a gated workload must
                have none fail. Run it by hand to count that crash share in
                fail_ratio. (ProcComm ranks reset the pool to inline after
                fork, so the other workloads never reach the race.)

An operation is one distributed fit (batch) or one in-situ episode (every
frame of every rank's trajectory, ten refits). Operations run back to back in
a worker process for --seconds seconds, split over five workers so set-up is
measured five times. A worker that crashes, hangs past a deadline, throws or
fails a check costs exactly one failed operation; run.py then starts a
fresh worker for the rest of the time. Nothing is rerun, resized or reseeded.

End-to-end metrics (--trace 0), reported in the result line. "A fit" is one
core::fit on the batch workloads and one refit event on insitu_proc; "an item"
is a point (batch) or a frame (in situ).
  fit_cpu_s        user + system CPU seconds per fit, summed over ranks
  cpu_us_per_item  CPU microseconds per item over whole operations (in situ:
                   the analysis's cost per frame, refits included)
  setup_s          CPU seconds of a worker's set-up: input generation, rank
                   launch and the warm-up operations (two fits on the batch
                   workloads, one episode in situ); median of the run's workers
  peak_rss_mb      peak resident MiB of a worker and its rank processes
Printed beside them, with the host's steal share, but left out of it:
  fit_s, fit_s_p90 median and 90th-percentile fit wall time; a batch fit runs
                   from a barrier-aligned start to the last rank's return, a
                   refit event takes the slowest rank's refit
  items_per_s      items per second of operation wall time, summed over ranks
  item_us          batch: fit wall time per point of a rank; in situ: median
                   push_frame time of the frames that do not refit
  setup_wall_s     worker start to the end of its warm-up
  ari              adjusted Rand index against ground truth; in situ the mean
                   over ranks of relabel_all() against the phase labels
  fail_ratio       failed / attempted operations, also carried by "attempted"
                   and "failed"
Wall times are not gated because hypervisor steal on a shared 4-vCPU host
(1% to 28% between runs) moved the same fit's wall time by up to 2.5x while
its CPU time moved about 15%. ari is not gated because insitu_proc's ranges
from 0.05 to 0.57 across seeds.

Per-layer metrics (--trace 1) come from a separate run in which every odd
operation runs over the TracedComm decorator and is timed around the calls
into each layer; even operations stay plain and are the base of
runtime.trace_overhead. Comm figures are per fit, summed over ranks. What each
should move:
  core.fit_self_s, core.fit_self_max_s, core.imbalance  rank fit (or refit)
      time minus its comm time, mean, max and max/mean: fit_cpu_s on
      deep_proc and (refits) insitu_proc
  core.predict_s  Model::predict on a rank's shard (in situ: relabel_all over
      its frames), timed after the fit and outside every gated metric: the
      per-point labelling work that dominates batch_thread
  core.candidates, core.cells, core.collapsed_trials  assessed (trial, depth)
      candidates, cells counted by assess on all ranks, trials whose every
      dimension collapsed: explain deep_proc's fit cost against insitu_proc's
      refits
  comm.msgs, comm.bytes  exact counts (equal to Communicator::stats()):
      fit_cpu_s on deep_proc
  comm.send_s, comm.recv_s, comm.transfer_s, comm.msg_latency_us_p50/p90:
      deep_proc fits and insitu_proc refits
  comm.wait_late_sender_s  receive time spent before the send began: falls
      when core.imbalance falls, not when the transport gets faster
  comm.share  comm time / rank fit time
  comm.launch_s, comm.join_s  rank fork or spawn, and the result pipes:
      setup_s on the *_proc workloads
  data.generate_s  input generation: setup_s everywhere
  runtime.trace_overhead, runtime.untraced_fit_s  traced over untraced fit
      wall time, and its base: whether the traced run can be trusted
  core.ari  the fit's accuracy, as printed by untraced runs
insitu_proc's traced runs also print core.push_us (push_features) and
md.featurize_us (featurize_frame), which make up item_us.

Correctness, checked on every operation: batch_thread's model bytes and labels
equal a serial core::fit of the concatenated shards; on every workload the
model bytes, labels and per-frame fingerprints are identical across the
operations of a run and across runs of one seed in one build; in traced runs
the decorator's message and byte counts equal Communicator::stats() and the
decorator's own tests pass.

The traced run writes trace.json (Perfetto / chrome://tracing) and stages.txt
(the program's per-stage table) to .bench_build/artifacts/<workload>-<seed>/.
"""
import argparse
import hashlib
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD, "kb2_perfbench")
TESTS = os.path.join(BUILD, "perfbench_tests")

WORKLOADS = ("batch_thread", "deep_proc", "insitu_proc")
WORKERS_PER_RUN = 5       # planned workers, so set-up is measured 5 times
SETUP_DEADLINE_S = 90.0   # worker start to its warm-up op's line
LINE_DEADLINE_S = 30.0    # between two op lines: longer counts as a hang
MAX_WORKERS = 40          # per run, crashes included

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]
# Printed beside the metrics above but left out of the result line.
EXTRA_UNITS = {"fit_s": "s", "fit_s_p90": "s", "items_per_s": "1/s",
               "item_us": "us", "setup_wall_s": "s", "ari": "ratio",
               "core.push_us": "us", "md.featurize_us": "us",
               "runtime.traced_fit_s": "s"}


def build():
    """Configure and build; the output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def source_digest():
    files = []
    for base, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(base, n) for n in names]
    return file_digest(sorted(files))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def p90(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


class Worker:
    """One kb2_perfbench process; its stdout lines arrive on a queue."""

    def __init__(self, argv):
        self.started = time.monotonic()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True,
                                     start_new_session=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def next_event(self, timeout):
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            return "hang"
        if line is None:
            return None
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            return {"ev": "garbage", "line": line[:200]}

    def stop(self):
        """Kill what is left of the worker's process group and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join()
        return self.proc.returncode


class Run:
    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ops = []        # completed op events, warm-up included
        self.setups = []     # seconds from worker start to "ready"
        self.readies = []
        self.dones = []
        self.rss = []        # per worker: largest rss_mb it reported
        self.crashes = []

    def fail(self, why):
        self.attempted += 1
        self.failed += 1
        self.crashes.append(why)

    def run_worker(self, measure_s, ref):
        a = self.args
        argv = [WORKER, "run", "--workload", a.workload, "--seed",
                str(a.seed), "--measure", f"{measure_s:.3f}", "--trace",
                str(a.trace)]
        if ref:
            argv += ["--ref", ref]
        if a.trace:
            argv += ["--artifacts", self.artifacts]
        w = Worker(argv)
        ready_at = None
        done = False
        rss = 0.0
        outcome = None
        while outcome is None:
            ev = w.next_event(SETUP_DEADLINE_S if ready_at is None
                              else LINE_DEADLINE_S)
            if ev is None:
                break
            kind = ev.get("ev") if isinstance(ev, dict) else ev
            if kind == "op":
                self.attempted += 1
                self.ops.append(ev)
                rss = max(rss, ev["rss_mb"])
                if ev["problem"]:
                    self.failed += 1
                    self.problems.append(ev["problem"])
            elif kind == "ready":
                ready_at = time.monotonic()
                self.setups.append(ready_at - w.started)
                self.readies.append(ev)
            elif kind == "done":
                done = True
                self.dones.append(ev)
            elif kind == "hang":
                outcome = "hang past the deadline"
            else:
                outcome = f"unexpected output {ev}"
        end = time.monotonic()
        code = w.stop()
        if outcome is None and code != 0:
            outcome = (f"killed by signal {-code}" if code < 0
                       else f"exit code {code}")
        if outcome is None and not done:
            outcome = "ended without its done line"
        if outcome is not None:
            self.fail(outcome)
        if rss > 0:
            self.rss.append(rss)
        return 0.0 if ready_at is None else end - ready_at

    def execute(self, ref):
        """Measure for --seconds over WORKERS_PER_RUN planned workers; a
        worker that dies hands the rest of its time to a fresh one."""
        budget = self.args.seconds / WORKERS_PER_RUN
        started = time.monotonic()
        workers = 0
        for _ in range(WORKERS_PER_RUN):
            left = budget
            while left > 0.05 and workers < MAX_WORKERS:
                if time.monotonic() - started > self.args.seconds + 100:
                    return
                workers += 1
                dones_before = len(self.dones)
                left -= self.run_worker(left, ref)
                if len(self.dones) > dones_before:
                    break
        # Launch and join are per-layer metrics: when every worker of a
        # traced run crashed, time a few set-up-and-join-only workers.
        for _ in range(3):
            if not self.args.trace or self.dones:
                break
            self.run_worker(0.0, ref)


def reference_file(run, workload, seed, tag):
    """batch_thread: the serial fit every distributed fit must reproduce."""
    path = os.path.join(BUILD, "refs", f"{workload}-{seed}-{tag}.bin")
    if os.path.exists(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    for _ in range(3):
        try:
            rc = subprocess.run([WORKER, "reference", "--workload", workload,
                                 "--seed", str(seed), "--out", path],
                                timeout=120).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        if rc == 0:
            return path
        run.fail(f"serial reference fit: {rc}")
    return None


def check_fingerprints(run, workload, seed, tag):
    """Every operation of every run of one seed in one build must agree."""
    hashes = {op["hash"] for op in run.ops}
    if len(hashes) > 1:
        run.problems.append(f"operations disagree: {sorted(hashes)}")
        return
    if not hashes:
        run.problems.append("no operation completed")
        return
    path = os.path.join(BUILD, "refs", f"{workload}-{seed}-{tag}.hash")
    (h,) = hashes
    if os.path.exists(path):
        with open(path) as f:
            if f.read().strip() != h:
                run.problems.append("fingerprint differs from an earlier run")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            f.write(h)
        os.replace(path + ".tmp", path)


def end_to_end(run):
    """Gated metrics first, then the wall-time figures printed beside them."""
    measured = [op for op in run.ops if not op["warm"]]
    fits = [f for op in measured for f in op["fits"]]
    walls = [f["wall_s"] for f in fits]
    gated = {
        "fit_cpu_s": median([f["cpu_s"] for f in fits]),
        "cpu_us_per_item": median([op["cpu_s"] / op["items"] * 1e6
                                   for op in measured]),
        "setup_s": median([r["setup_cpu_s"] for r in run.readies]),
        "peak_rss_mb": median(run.rss),
    }
    printed = {
        "fit_s": median(walls),
        "fit_s_p90": p90(walls),
        "items_per_s": median([op["items"] / op["wall_s"] for op in measured]),
        "item_us": median([op["item_us"] for op in measured]),
        "setup_wall_s": median(run.setups),
        "ari": ari(run),
    }
    return gated, printed, f"{len(fits)} fits measured"


def ari(run):
    return median([op["ari"] for op in run.ops if "ari" in op])


def per_layer(run):
    traced = [op for op in run.ops if op["traced"] and not op["warm"]]
    plain = [op for op in run.ops if not op["traced"] and not op["warm"]]
    for op in run.ops:
        if not op["traced"]:
            continue
        c = op["comm"]
        if (c["msgs"], c["bytes"], c["recvs"]) != (
                c["stats_msgs"], c["stats_bytes"], c["stats_recvs"]):
            run.problems.append(
                f"op {op['op']}: decorator counts {c['msgs']} msgs "
                f"{c['bytes']} B {c['recvs']} recvs, stats() "
                f"{c['stats_msgs']} msgs {c['stats_bytes']} B "
                f"{c['stats_recvs']} recvs")
        if c["unmatched"]:
            run.problems.append(f"op {op['op']}: {c['unmatched']} unpaired")
    fits = [f for op in traced for f in op["fits"]]

    def per_fit(key):
        return median([op["comm"][key] / len(op["fits"]) for op in traced])

    traced_fit = median([f["wall_s"] for f in fits])
    untraced_fit = median([f["wall_s"] for op in plain for f in op["fits"]])
    m = {
        "core.fit_self_s": median([f["self_mean_s"] for f in fits]),
        "core.fit_self_max_s": median([f["self_max_s"] for f in fits]),
        "core.imbalance": median([f["self_max_s"] / f["self_mean_s"]
                                  for f in fits if f["self_mean_s"] > 0]),
        "core.predict_s": median([op["predict_s"] for op in traced]),
        "core.candidates": median([f["candidates"] for f in fits]),
        "core.cells": median([f["cells"] for f in fits]),
        "core.collapsed_trials": median([f["collapsed"] for f in fits]),
        "comm.msgs": per_fit("msgs"),
        "comm.bytes": per_fit("bytes"),
        "comm.send_s": per_fit("send_s"),
        "comm.recv_s": per_fit("recv_s"),
        "comm.transfer_s": per_fit("transfer_s"),
        "comm.wait_late_sender_s": per_fit("wait_late_sender_s"),
        "comm.msg_latency_us_p50": median([op["comm"]["latency_us_p50"]
                                           for op in traced]),
        "comm.msg_latency_us_p90": median([op["comm"]["latency_us_p90"]
                                           for op in traced]),
        "comm.share": median([op["comm"]["fit_comm_s"] /
                              op["comm"]["fit_rank_s"] for op in traced]),
        "comm.launch_s": median([r["launch_s"] for r in run.readies]),
        "comm.join_s": median([d["join_s"] for d in run.dones]),
        "data.generate_s": median([r["generate_s"] for r in run.readies]),
        "runtime.trace_overhead": traced_fit / untraced_fit,
        "runtime.untraced_fit_s": untraced_fit,
        "core.ari": ari(run),
    }
    extra = {}
    if any("push_us" in op for op in traced):
        extra["core.push_us"] = median([op["push_us"] for op in traced])
        extra["md.featurize_us"] = median([op["featurize_us"]
                                           for op in traced])
    extra["runtime.traced_fit_s"] = traced_fit
    return m, extra, f"{len(fits)} traced fits"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    stat0 = cpu_times()
    tag = file_digest([WORKER])
    run = Run(args)
    run.artifacts = os.path.join(BUILD, "artifacts",
                                 f"{args.workload}-{args.seed}")
    if args.trace:
        os.makedirs(run.artifacts, exist_ok=True)
    ref = None
    if args.workload == "batch_thread":
        ref = reference_file(run, args.workload, args.seed, tag)
        if ref is None:
            run.problems.append("no serial reference fit")
    run.execute(ref)
    check_fingerprints(run, args.workload, args.seed, tag)

    if args.trace:
        tests = subprocess.run([TESTS, "--gtest_brief=1"],
                               stdout=sys.stderr, timeout=120)
        if tests.returncode != 0:
            run.problems.append("TracedComm tests failed")
        metrics, extra, counts = per_layer(run)
        table = PER_LAYER
    else:
        metrics, extra, counts = end_to_end(run)
        table = END_TO_END
    stat1 = cpu_times()

    ready = run.readies[0] if run.readies else {}
    env = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace, "nproc": os.cpu_count(),
           "hardware_concurrency": ready.get("hardware_concurrency"),
           "steal_share": round(steal_share(stat0, stat1), 4),
           "git_sha": git_sha(), "src_digest": source_digest(),
           "build_flags": ready.get("build_flags")}
    print("env " + json.dumps(env))
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"ops {run.attempted} attempted, {run.failed} failed; "
          f"{counts}; {len(run.setups)} set-ups")
    for why in run.crashes:
        print(f"failure: {why}")
    for why in run.problems:
        print(f"check failed: {why}")
    print(f"fail_ratio = {fail_ratio:.4f} ratio")
    units = dict(table, **EXTRA_UNITS)
    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"{name} = {value:.6g} {units.get(name, '')}".rstrip())
    if args.trace:
        print(f"artifacts: {run.artifacts}")

    unmeasured = [n for n, v in metrics.items() if v != v]
    if unmeasured:
        print(f"check failed: not measured: {', '.join(unmeasured)}")
    result = {
        "correct": not run.problems and not unmeasured,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": 0.0 if metrics[name] != metrics[name]
                           else metrics[name], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
