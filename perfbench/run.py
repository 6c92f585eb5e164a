"""divaut benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload quantum-hs --seed 1 --seconds 20 --trace 0

Run from the root of a divaut checkout.  The benchmark generates its inputs
from ``--seed`` under ``.perfbench_work/``, computes every expected output
with its own reference code (``reference.py``), and then:

* ``--trace 0``: a closed loop with one client.  One fresh
  ``python -m divaut`` child at a time, with ``src`` on ``PYTHONPATH`` (the
  package is not installed) and unbuffered stdout, so interpreter start-up
  is counted.  The job list is repeated in rounds for ``--seconds``; each
  end-to-end time is a sum over jobs of the job's median over rounds.
* ``--trace 1``: the same jobs in this process through ``divaut.cli.main``:
  a warm-up pass, a pass with spans around divaut's public functions
  (``spans.py``) and an untraced pass for the tracing overhead, plus
  start-up samples and micro-kernels; it reports self time and counts per
  layer.

Every output is checked against its reference.  Probes are valid inputs
that divaut has answered with a traceback; they run once per run, are
reported in ``failed_ratio`` and in the run record, and do not count in
``attempted``/``failed`` or in the timings.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  A run record with per-job rows goes to
``.perfbench_work/records/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PROCESS_START = time.perf_counter()
RUN_LIMIT_S = 165          # every run ends well inside 180 s
JOB_TIMEOUT_S = 60
STARTUP_SAMPLES = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "eval_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.self_s": "s", "fileformat.parse_s": "s",
    "semiring.format_s": "s", "activation.setup_s": "s", "activation.eval_s": "s",
    "semiring.rational_muladd_ns-64bit": "ns", "semiring.rational_muladd_ns-4096bit": "ns",
    "semiring.gaussian_muladd_ns-64bit": "ns", "semiring.gaussian_muladd_ns-4096bit": "ns",
    "automaton.advance_row_us": "us", "trace.overhead_ratio": "1",
    "semiring.max_bits": "count", "automaton.rows": "count",
    "automaton.states_max": "count", "automaton.edges_max": "count",
    "activation.pairs": "count", "activation.live_pairs": "count",
    "activation.horizon_pairs": "count", "fileformat.bytes": "count",
    "kleene.states_in": "count", "kleene.states_out": "count",
    "kleene.expr_nodes": "count", "quantum.states": "count", "failed_ratio": "1",
}
# Layer times that some workload never enters; they are printed and recorded
# on every traced run but are not part of the result line.
LAYER_TIMES_ONLY_RECORDED = (
    "fileformat.format_s", "words.parse_s", "series.oracle_s", "kleene.extract_s",
    "kleene.compile_s", "quantum.build_s", "quantum.transduce_s", "quantum.table_s",
    "quantum.probe_s", "activation.setup_s.onesided-field",
    "activation.setup_s.onesided-nonfield", "activation.setup_s.twosided-field",
    "activation.setup_s.twosided-nonfield",
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def job_timeout_s():
    """A job's time limit: JOB_TIMEOUT_S, cut so that the run ends within
    RUN_LIMIT_S even when jobs hang."""
    budget = RUN_LIMIT_S - (time.perf_counter() - PROCESS_START)
    return max(0.1, min(JOB_TIMEOUT_S, budget))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def expected_text(job):
    return "".join(line + "\n" for line in job.expect)


class Launcher:
    """Client of ``launcher.py``, which spawns and times the children."""

    def __init__(self, workdir):
        self.env = child_env()
        self.stdout_path = workdir / ".stdout"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=workdir)

    def run(self, argv):
        request = {"argv": argv, "env": self.env, "stdout_path": str(self.stdout_path),
                   "timeout_s": job_timeout_s()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            fail("the launcher process died")
        result = json.loads(reply)
        result["stdout"] = self.stdout_path.read_text(errors="replace")
        return result

    def divaut(self, job):
        """Runs one job as a child; returns its per-job row."""
        result = self.run([sys.executable, "-m", "divaut", *job.args])
        return job_row(job, result["wall_s"], result["first_byte_s"],
                       result["returncode"] if not result["timed_out"] else None,
                       result["stdout"], result["stderr"],
                       maxrss_kib=result["maxrss_kib"])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def job_row(job, wall_s, first_byte_s, code, stdout, stderr, maxrss_kib=None):
    """One job execution: its times and its verdict.  ``outcome`` is ok,
    failed (exit status, traceback or timeout) or wrong (exit 0, output
    differs from the reference)."""
    if code is None:
        outcome, note = "failed", (stderr or "").strip().splitlines()[-1:] or "timeout"
    elif code != 0 or "Traceback" in (stderr or ""):
        outcome, note = "failed", (stderr or f"exit {code}").strip().splitlines()[-1:]
    elif stdout != expected_text(job):
        outcome, note = "wrong", first_difference(stdout, expected_text(job))
    else:
        outcome, note = "ok", None
    row = {"job": job.id, "kind": job.kind, "wall_s": wall_s,
           "first_byte_s": first_byte_s, "outcome": outcome}
    if maxrss_kib is not None:
        row["maxrss_kib"] = maxrss_kib
    if note:
        row["note"] = note if isinstance(note, str) else " ".join(note)
    return row


def first_difference(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {k}: got {a[:120]!r}, expected {b[:120]!r}"
    return f"{len(got_lines)} lines, expected {len(want_lines)}"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def job_digest(jobs):
    blob = json.dumps([[job.id, job.args, hashlib.sha256(expected_text(job).encode())
                        .hexdigest()] for job in jobs])
    return hashlib.sha256(blob.encode()).hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics

def measure_end_to_end(launcher, jobs, seconds):
    rounds = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        rounds.append([launcher.divaut(job) for job in jobs])
        longest = max(longest, time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if elapsed + longest > seconds or \
                time.perf_counter() - PROCESS_START + longest > RUN_LIMIT_S - 15:
            return rounds


def end_to_end_metrics(rounds):
    """Each time metric sums, over jobs, the job's median over rounds, so a
    slow stretch in one round moves only the jobs it overlapped."""
    by_job = list(zip(*rounds))
    metrics = {
        "wall_s": sum(statistics.median(r["wall_s"] for r in runs) for runs in by_job),
        "setup_s": sum(statistics.median(r["first_byte_s"] for r in runs)
                       for runs in by_job),
        "eval_s": sum(statistics.median(r["wall_s"] - r["first_byte_s"] for r in runs)
                      for runs in by_job),
    }
    metrics["peak_rss_mb"] = max(r["maxrss_kib"] for rows in rounds for r in rows) / 1024
    per_round = {
        "wall_s": [sum(r["wall_s"] for r in rows) for rows in rounds],
        "setup_s": [sum(r["first_byte_s"] for r in rows) for rows in rounds],
        "eval_s": [sum(r["wall_s"] - r["first_byte_s"] for r in rows) for rows in rounds],
    }
    return metrics, per_round


# ---------------------------------------------------------------------------
# traced: per-layer metrics

def measure_layers(workload, launcher, jobs, workdir, seed):
    sys.path.insert(0, str(ROOT / "src"))
    import micro
    import spans

    startup = [launcher.run([sys.executable, "-c", "import divaut.cli"])["wall_s"]
               for _ in range(STARTUP_SAMPLES)]

    def in_process(tracer=None):
        rows = []
        for job in jobs:
            elapsed, first, code, out, err = spans.run_in_process(
                job, workdir, job_timeout_s(), tracer)
            rows.append(job_row(job, elapsed, first, code, out, err))
        return rows

    # an untraced pass first warms the interpreter, so the traced pass and
    # the untraced one after it, which give the overhead, start alike
    warm_rows = in_process()
    tracer = spans.Tracer()
    patches = tracer.install()
    try:
        traced_rows = in_process(tracer)
    finally:
        spans.Tracer.uninstall(patches)
    plain_rows = in_process()
    self_s, problems = tracer.self_times()

    metrics = {"cli.startup_s": statistics.median(startup) * len(jobs),
               "cli.self_s": self_s.get("cli", 0.0)}
    for name in ("fileformat.parse", "fileformat.format", "words.parse", "semiring.format",
                 "activation.eval", "series.oracle", "kleene.extract", "kleene.compile",
                 "quantum.build", "quantum.transduce", "quantum.table", "quantum.probe"):
        metrics[f"{name}_s"] = self_s.get(name, 0.0)
    metrics["activation.setup_s"] = 0.0
    for shape in ("onesided-field", "onesided-nonfield", "twosided-field",
                  "twosided-nonfield"):
        value = self_s.get(f"activation.setup.{shape}", 0.0)
        metrics[f"activation.setup_s.{shape}"] = value
        metrics["activation.setup_s"] += value
    for name in ("semiring.max_bits", "automaton.rows", "automaton.states_max",
                 "automaton.edges_max", "activation.pairs", "activation.live_pairs",
                 "activation.horizon_pairs", "fileformat.bytes", "kleene.states_in",
                 "kleene.states_out", "kleene.expr_nodes", "quantum.states"):
        metrics[name] = tracer.counts.get(name, tracer.maxima.get(name, 0))
    metrics.update(micro.semiring_kernels(seed))
    metrics["automaton.advance_row_us"] = (
        micro.advance_row_us(tracer.largest) if tracer.largest else 0.0)
    plain_s = sum(r["wall_s"] for r in plain_rows)
    traced_s = sum(r["wall_s"] for r in traced_rows)
    metrics["trace.overhead_ratio"] = traced_s / plain_s

    # the share of an end-to-end figure that the layer a workload was chosen
    # for explains, on the traced pass (start-up added back per job)
    start_total = metrics["cli.startup_s"]
    if workload == "quantum-hs":
        label, part = "activation.setup_s / setup_s", metrics["activation.setup_s"]
        whole = start_total + sum(r["first_byte_s"] for r in traced_rows)
    elif workload == "eval-tables":
        label = "(activation.eval_s + semiring.format_s) / eval_s"
        part = metrics["activation.eval_s"] + metrics["semiring.format_s"]
        whole = sum(r["wall_s"] - r["first_byte_s"] for r in traced_rows)
    else:
        label = "(kleene.* + series.oracle_s + cli.startup_s) / wall_s"
        part = (metrics["kleene.extract_s"] + metrics["kleene.compile_s"]
                + metrics["series.oracle_s"] + start_total)
        whole = start_total + traced_s
    share = (label, part / whole if whole else 0.0)
    spans_path = WORK / "records" / f"spans-{workdir.name}.jsonl"
    with open(spans_path, "w") as sink:
        for name, start, end, parent, job in tracer.spans:
            sink.write(json.dumps([name, start, end, parent, job]) + "\n")
    return metrics, warm_rows + traced_rows + plain_rows, share, problems, str(spans_path)


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small jobs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "divaut" / "__main__.py").is_file():
        fail(f"no divaut sources under {ROOT / 'src'}; run from a divaut checkout")
    sys.path.insert(0, str(HERE))
    import jobs as jobgen

    if args.workload not in jobgen.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(jobgen.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    launcher = None
    try:
        prepare_start = time.perf_counter()
        jobs, probes = jobgen.build(args.workload, args.seed, workdir, args.scale)
        launcher = Launcher(workdir)
        warm = launcher.run([sys.executable, "-m", "divaut", "--help"])  # byte-compile
        if warm["returncode"] != 0:
            print(f"perfbench: warm-up child failed: {warm['stderr'][-500:]}",
                  file=sys.stderr)
        prepare_s = time.perf_counter() - prepare_start

        if args.trace == 0:
            rounds = measure_end_to_end(launcher, jobs, args.seconds)
            metrics, per_round = end_to_end_metrics(rounds)
            rows = [dict(r, round=k) for k, rs in enumerate(rounds) for r in rs]
            units = END_TO_END
            extra = {"rounds": len(rounds), "per_round": per_round}
        else:
            metrics, rows, share, problems, spans_path = measure_layers(
                args.workload, launcher, jobs, workdir, args.seed)
            units = PER_LAYER
            extra = {"share": share, "span_problems": problems, "spans": spans_path}
        probe_rows = [launcher.divaut(job) for job in probes]
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(rows)
    failed = sum(r["outcome"] != "ok" for r in rows)
    probe_bad = sum(r["outcome"] != "ok" for r in probe_rows)
    metrics["failed_ratio"] = (failed + probe_bad) / (attempted + len(probe_rows))
    correct = failed == 0 and all(r["outcome"] != "wrong" for r in probe_rows)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "job_digest": job_digest(jobs + probes),
        "prepare_s": prepare_s, "metrics": metrics, "units": {**END_TO_END, **PER_LAYER},
        "correct": correct, "attempted": attempted, "failed": failed,
        "probes": probe_rows, "jobs": rows, **extra,
    }
    record_path = WORK / "records" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    record_path.write_text(json.dumps(record, indent=1))

    print(f"divaut benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} jobs={len(jobs)} probes={len(probes)} "
          f"python={record['python']} nproc={record['nproc']}")
    if args.trace == 0:
        print(f"  {extra['rounds']} rounds; each time sums the jobs' medians over "
              "rounds; quartiles are of the per-round sums")
        for name in ("wall_s", "setup_s", "eval_s"):
            lo, hi = quartiles(per_round[name])
            print(f"  {name:<44} {metrics[name]:12.4f} s    quartiles {lo:.4f}..{hi:.4f}")
        print(f"  {'peak_rss_mb':<44} {metrics['peak_rss_mb']:12.4f} MiB")
    else:
        for name in list(PER_LAYER) + list(LAYER_TIMES_ONLY_RECORDED):
            unit = PER_LAYER.get(name, "s")
            print(f"  {name:<44} {metrics[name]:12.6g} {unit}")
        print(f"  share {share[0]:<38} {share[1]:12.4f}")
        for problem in problems[:5]:
            print(f"  span problem: {problem}")
    print(f"  {'failed_ratio':<44} {metrics['failed_ratio']:12.4f} 1    "
          f"({failed} of {attempted} jobs, {probe_bad} of {len(probe_rows)} probes)")
    for row in [r for r in rows + probe_rows if r["outcome"] != "ok"][:10]:
        print(f"  {row['outcome']}: {row['job']}: {row.get('note', '')[:200]}")
    print(f"  record: {record_path.relative_to(ROOT)}")

    result_metrics = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
