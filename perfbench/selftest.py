"""Self-test of the benchmark harness at toy sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs a shrunken copy through the
untraced and the traced path and checks that:

- every end-to-end or per-layer metric BENCHMARK.json names is reported,
  with the same unit, and no other metric is;
- every operation passed its output checks;
- each traced call's self times add up to its duration;
- every wrapped module attribute is the original object afterwards, also
  when the traced code raises.

It also checks that run.py refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def originals():
    """The current binding of every traced module attribute."""
    return {
        (module_name, attr): getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _, _ in tracing.TARGETS
    }


def toy(workload):
    return dataclasses.replace(
        workload, dim=6, target_dim=2, classes=3, per_class=8,
        max_iters=2, splits=1,
    )


def expect(condition, message, failures):
    if not condition:
        failures.append(message)


def check_units(reported, declared, label, failures):
    units = {name: entry["unit"] for name, entry in reported.items()}
    want = {entry["name"]: entry["unit"] for entry in declared}
    expect(units == want, f"{label}: metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(want) - set(units))}, "
           f"extra {sorted(set(units) - set(want))}, "
           f"unit mismatches {[n for n in want if n in units and units[n] != want[n]]}",
           failures)


def check_workload(name, failures):
    before = originals()
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        label = f"{name} trace={int(trace)}"
        with tempfile.TemporaryDirectory(dir=run.WORK) as work:
            result, info = run.run_workload(
                toy(run.WORKLOADS[name]), seed=7, seconds=0, trace=trace, work=Path(work)
            )
        reported = run.with_units(result["metrics"], run.metric_units(trace))
        check_units(reported, declared, label, failures)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{label}: operations failed: "
               f"{[op for op in info['ops'] if not op['ok']]}", failures)
        for split in info["self_split"]:
            total = sum(split["self_seconds"].values())
            expect(abs(total - split["wall_s"]) <= 1e-9 * max(1.0, split["wall_s"]),
                   f"{label}: self times add to {total}, call took {split['wall_s']}",
                   failures)
        expect(not trace or info["self_split"], f"{label}: no traced calls", failures)
        expect(originals() == before,
               f"{label}: a wrapped attribute was not restored", failures)


def check_restore_on_error(failures):
    before = originals()
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            expect(originals() != before, "installed() wrapped nothing", failures)
            raise RuntimeError("raised inside the traced block")
    except RuntimeError:
        pass
    expect(originals() == before,
           "a wrapped attribute was not restored after an error", failures)


def check_refuses_without_sources(failures):
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        bare = Path(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False,
        )
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           f"run.py without sources exited {done.returncode} with {done.stdout!r}",
           failures)


def main():
    run.WORK.mkdir(exist_ok=True)
    failures = []
    check_restore_on_error(failures)
    for workload in SPEC["workloads"]:
        check_workload(workload["name"], failures)
        print(f"checked {workload['name']}", flush=True)
    check_refuses_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
