"""Run every workload untraced and traced, and print all metrics as tables.

Run from the repository root:

    python3 perfbench/report.py --seed 0 --seconds 20

Prints, for each workload, the end-to-end metrics (untraced run) and the
per-layer metrics (traced run) by name and unit, then the traced self-time
split of train and eval per geometry as shares of the traced call. Exits 1
if any run failed or reported a failed operation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    info = {key: value for line in lines[:-1] for key, value in line.items()}
    return lines[-1], info


def print_split(info):
    """Mean share of each span's self time in traced train and eval calls."""
    shares = {}
    for split in info["self_split"]:
        key = (split["op"], split["geometry"])
        for name, seconds in split["self_seconds"].items():
            shares.setdefault(key, {}).setdefault(name, []).append(
                seconds / split["wall_s"]
            )
    for (op, geometry), by_name in shares.items():
        ranked = sorted(by_name.items(), key=lambda item: -sum(item[1]))
        print(f"  {op} {geometry}: " + ", ".join(
            f"{name} {100 * sum(v) / len(v):.1f}%" for name, v in ranked
            if sum(v) / len(v) >= 0.005
        ))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            result, info = run_once(workload, args.seed, args.seconds, trace)
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
            if trace:
                print_split(info)
            else:
                print(f"  env: {json.dumps(info['env'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
