"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Checks that each run prints every metric listed in BENCHMARK.json with its
unit, that all outputs agree with the references, that spans nest (each
child inside its parent, self time >= 0), and that the benchmark refuses to
run without divaut sources.  The file name keeps it out of the repository's
pytest collection.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def check_run(workload, trace, spec):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    assert result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (got, want)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    record_line = next(line for line in lines if line.strip().startswith("record: "))
    record = json.loads((ROOT / record_line.split("record: ", 1)[1]).read_text())
    for probe in record["probes"]:
        assert probe["outcome"] != "wrong", probe
    if trace:
        assert record["span_problems"] == [], record["span_problems"][:5]
        assert record["metrics"]["trace.overhead_ratio"] > 0
    print(f"ok  {workload:<20} trace={trace}  attempted={result['attempted']}")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(["--workload", "quantum-hs", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without divaut sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
