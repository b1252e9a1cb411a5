"""Smoke check for the benchmark; run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (run.py --tiny),
once untraced and once traced. Each run must exit 0 and print, as its
last line, a correct result whose metrics are exactly the end-to-end
(untraced) or per-layer (traced) metrics that BENCHMARK.json names,
each with its unit. It then copies only BENCHMARK.json and the
benchmark's directories into a scratch directory inside the repository
and checks that the benchmark fails there, with no result, because the
program is missing. Exits 1 if any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench-bare"


def run(bench, cwd, workload, trace, tiny=True):
    cmd = bench["command"] + ["--workload", workload, "--seed", "11",
                              "--seconds", "1", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) and "metrics" in out else None


def check_result(proc, wanted):
    """Problems with one run's output; empty when it meets the contract."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    out = result_line(proc.stdout)
    if out is None:
        return ["last line is not a JSON result"]
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(out)}")
    if out.get("correct") is not True or out.get("failed") != 0:
        problems.append(f"correct={out.get('correct')} failed={out.get('failed')}")
    if not isinstance(out.get("attempted"), int) or out["attempted"] < 1:
        problems.append(f"attempted={out.get('attempted')}")
    got = out["metrics"]
    for name in sorted(set(wanted) | set(got)):
        if name not in got:
            problems.append(f"metric {name} missing")
        elif name not in wanted:
            problems.append(f"metric {name} not in BENCHMARK.json")
        elif got[name].get("unit") != wanted[name]:
            problems.append(f"metric {name} unit {got[name].get('unit')!r}, "
                            f"want {wanted[name]!r}")
        elif not (isinstance(got[name].get("value"), (int, float))
                  and math.isfinite(got[name]["value"])):
            problems.append(f"metric {name} value {got[name].get('value')!r}")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_result(run(bench, ROOT, w["name"], trace), wanted[trace])
            failures += bool(problems)
            print(f"{w['name']} trace={trace}: {'; '.join(problems) or 'ok'}")

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        BARE.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", BARE)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, BARE / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench, BARE, bench["workloads"][0]["name"], 0, tiny=False)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    bare_ok = proc.returncode != 0 and result_line(proc.stdout) is None
    failures += not bare_ok
    print(f"without the program: exit {proc.returncode}, "
          f"{'no result' if result_line(proc.stdout) is None else 'a result'}: "
          f"{'ok' if bare_ok else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
