"""Reduced-size smoke test of the benchmark command.

Runs the command named in BENCHMARK.json with --smoke (small rank
counts) and one measured second, for every workload, untraced and
traced.  Asserts that the last stdout line parses as the result object,
that every metric BENCHMARK.json names prints with its unit, and that no
operation failed (failed_share = 0).

Run from the repository root:  python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", str(trace), "--smoke"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result = run(bench["command"], workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0, (workload, trace, result)
            metrics = result["metrics"]
            names = [m["name"] for m in expected[trace]]
            assert sorted(metrics) == sorted(names), (workload, trace, sorted(metrics))
            for m in expected[trace]:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (workload, m["name"], got)
                assert isinstance(got["value"], (int, float)), (workload, m["name"], got)
            print(f"ok  {workload} trace={trace}  attempted={result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
