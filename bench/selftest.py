"""Self-test of the benchmark: every workload at its smallest size.

Usage (from the repository root):

    python3 bench/selftest.py

Runs each workload for one round (``--seconds 1``) untraced and traced,
and checks that the result line has exactly the agreed keys, that every
metric named in BENCHMARK.json is emitted with its unit, and that no job
failed (fail_frac 0).  It also checks that the benchmark refuses to run,
with a non-zero exit and no result line, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any failure.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root, workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def check_workload(root, spec, workload, trace):
    problems = []
    code, lines, err = run(root, workload, trace)
    if code != 0 or not lines:
        return [f"exit {code}: {err.strip()[-300:]}"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("failed") != 0 or not result.get("correct"):
        detail = json.loads(lines[-2])["detail"]
        problems.append(f"fail_frac {detail['fail_frac']}: "
                        f"{detail['failures']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result.get("metrics", {})
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {entry.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{m['name']} value {entry.get('value')!r}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def check_refuses_without_sources(root, spec):
    """A directory with only BENCHMARK.json and the benchmark's files."""
    bare = os.path.join(root, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))
    if code == 0 or any(line.startswith("{\"correct\"") for line in lines):
        return [f"ran without sources (exit {code})"]
    return []


def main():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_workload(root, spec, w["name"], trace)
            status = "ok" if not problems else "FAIL"
            print(f"{w['name']:16s} trace={trace} {status}")
            for p in problems:
                print(f"    {p}")
            failed |= bool(problems)
    problems = check_refuses_without_sources(root, spec)
    print(f"{'bare directory':16s} {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(f"    {p}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
