"""Smoke check for the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py

Asserts that the metric lists in the code match BENCHMARK.json, that each
pass emits every metric of its list with its unit, that the unbroken runs
are correct, and that a truncated manifest is counted as a failed command
instead of crashing the driver. Takes about a minute; exits non-zero on the
first failed assertion.
"""

import json
import math
import os
import sys

import run as bench
from tracing import PER_LAYER
from workloads import WORKLOADS


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def _truncate_manifest(p) -> None:
    manifest = p.records.with_name("manifest.csv")
    text = manifest.read_text("utf-8")
    manifest.write_text(text[: len(text) // 2], encoding="utf-8")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text("utf-8"))
    for key, listed in (("end_to_end", bench.END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        _check(declared == list(listed), f"BENCHMARK.json {key} differs from the code's list")
    _check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")

    os.environ.update(bench.BLAS_THREADS)
    smoke = bench.WORK / "smoke"
    for name in WORKLOADS:
        for trace in (False, True):
            result = bench.run(name, 0, 0, trace, smoke / name, tiny=True)
            line = bench.summary(result)
            _check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{name} trace={int(trace)} failed: {result['problems']}")
            units = {metric: value["unit"] for metric, value in line["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            _check(units == wanted, f"{name} trace={int(trace)} metrics differ: {sorted(set(units) ^ set(wanted))}")
            _check(all(math.isfinite(v["value"]) for v in line["metrics"].values()),
                   f"{name} trace={int(trace)} has a non-finite metric")
            print(f"ok  {name} trace={int(trace)}: {len(units)} metrics, {line['attempted']} commands")

    result = bench.run("loso-paper", 0, 0, False, smoke / "broken", tiny=True,
                       after_setup=_truncate_manifest)
    _check(not result["correct"] and result["failed"] >= 1 and result["error_rate"] > 0,
           f"a truncated manifest was not counted as a failure: {result['problems']}")
    print(f"ok  truncated manifest counted: error_rate {result['error_rate']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
