"""Benchmark driver for adlrec.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; paths resolve against the checkout that holds this
file, and the program is run from its `src/` tree.

--trace 0 runs the real `adlrec` CLI as subprocesses. It generates the
workload's inputs from --seed three times and reports the median set-up
time, then repeats the workload command until --seconds have passed (at
least once) and reports the median wall time and peak RSS. It checks every
command's exit code and output digests and the workload's results.

--trace 1 runs the same commands in this process through `adlrec.cli.main`
with the hooks of tracing.py installed, and reports the per-layer metrics.
It also runs the workload command once untraced in this process, so the
tracing overhead compares like with like.

BLAS is pinned to one thread in this process and every process it starts.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result (samples,
digests, environment, problems) is written to
`.perfbench_work/<workload>/result.json` in the checkout.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tracing import PER_LAYER, Tracer
from workloads import OUTPUT_ERRORS, WORKLOADS, check_manifest, check_result, plan, sha256_file

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
BUDGET_S = 170.0  # a command still running this long after start is killed and counted failed

# (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wf1_mean", "score", "higher"),
]


@dataclass
class Ledger:
    """Commands attempted and the problems met; failed / attempted is error_rate."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")
        return problem is None

    def flag(self, problem: str) -> None:
        """A problem found across commands already counted; fails the run."""
        self.problems.append(problem)
        self.failed = max(self.failed, 1)


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    returncode: int


def run_adlrec(args: list[str], log: Path, deadline: float) -> Sample:
    """Run `python -m adlrec ARGS`; wall time and the child's own peak RSS."""
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with open(log, "wb") as stream:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "adlrec", *args],
            cwd=ROOT, env=env, stdout=stream, stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def _out_dir(args: list[str]) -> Path:
    return Path(args[args.index("--out") + 1])


def _exit_problem(returncode: int | None, log: Path) -> str | None:
    if returncode == 0:
        return None
    tail = log.read_text("utf-8", errors="replace").strip().splitlines()[-3:]
    return f"exit code {returncode}: " + " | ".join(tail)


def _command_problem(args, returncode, log) -> str | None:
    """Exit code, then the output digests of the command's run manifest."""
    problem = _exit_problem(returncode, log)
    if problem is None:
        try:
            check_manifest(_out_dir(args))
        except OUTPUT_ERRORS as exc:
            problem = f"{type(exc).__name__}: {exc}"
    return problem


def _result_problem(workload, p, returncode, log) -> tuple[str | None, float | None, str | None]:
    """(problem, quality, sha256 of the result file) of a workload command."""
    problem = _exit_problem(returncode, log)
    if problem is not None:
        return problem, None, None
    try:
        quality, result_file = check_result(workload.kind, p.out, p.corpus)
        return None, quality, sha256_file(result_file)
    except OUTPUT_ERRORS as exc:
        return f"{type(exc).__name__}: {exc}", None, None


def measure(workload, seed, seconds, work, tiny=False, after_setup=None) -> dict:
    """Untraced pass: end-to-end metrics from subprocess runs of the CLI."""
    deadline = time.monotonic() + BUDGET_S
    ledger = Ledger()
    p = plan(workload, work, seed, tiny)
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    setups, input_digests = [], set()
    for repeat in range(SETUP_REPEATS):
        steps = []
        for step, args in enumerate(p.setup):
            log = logs / f"setup{repeat}-{step}.log"
            steps.append(run_adlrec(args, log, deadline))
            if not ledger.record(f"setup {args[0]}", _command_problem(args, steps[-1].returncode, log)):
                break
        else:
            setups.append(steps)
            input_digests.add(sha256_file(p.records))
            continue
        break
    if len(input_digests) > 1:
        ledger.flag("setup: the same seed gave different records.jsonl")
    setup_s = [sum(s.wall_s for s in steps) for steps in setups]
    samples = {"setup_s": setup_s}
    result = {"samples": samples, "digests": {}}
    if len(setups) < SETUP_REPEATS:
        return _finish(result, ledger, {})
    if after_setup is not None:
        after_setup(p)

    runs, quality, results = [], None, set()
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        # stop early rather than start a repeat that would run past the budget
        if runs and deadline - time.monotonic() < 2 * max(s.wall_s for s in runs):
            break
        log = logs / f"run{len(runs)}.log"
        sample = run_adlrec(p.run, log, deadline)
        runs.append(sample)
        problem, quality_now, digest = _result_problem(workload, p, sample.returncode, log)
        if ledger.record(f"run {p.run[0]}", problem):
            quality = quality_now
            results.add(digest)
    if len(results) > 1:
        ledger.flag("run: repeats of the workload command gave different results")
    samples["run_s"] = [s.wall_s for s in runs]
    samples["peak_rss_mb"] = [s.peak_rss_mb for s in runs]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(samples["run_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    if quality is not None:
        metrics["wf1_mean"] = quality
    result["digests"] = {"records.jsonl": input_digests.pop(), "results": sorted(results)}
    return _finish(result, ledger, metrics)


def _call_cli(cli, args, log: Path, tracer=None) -> int | None:
    """adlrec.cli.main(args) in this process; None if it raised."""
    with open(log, "w", encoding="utf-8") as stream, redirect_stdout(stream), redirect_stderr(stream):
        span = tracer.begin("cli") if tracer is not None else None
        try:
            return cli.main(args)
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return None
        finally:
            if span is not None:
                tracer.end(span)


def measure_traced(workload, seed, work, tiny=False) -> dict:
    """Traced pass: per-layer metrics from in-process runs of the CLI."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from adlrec import cli

    ledger = Ledger()
    tracer = Tracer()
    p = plan(workload, work, seed, tiny)
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    with tracer.installed():
        for step, args in enumerate(p.setup):
            log = logs / f"setup-{step}.log"
            if not ledger.record(f"setup {args[0]}", _command_problem(args, _call_cli(cli, args, log, tracer), log)):
                return _finish({}, ledger, tracer.metrics())

    log = logs / "untraced.log"
    start = time.perf_counter()
    returncode = _call_cli(cli, p.run, log)
    untraced_s = time.perf_counter() - start
    problem, _, untraced_digest = _result_problem(workload, p, returncode, log)
    ledger.record(f"untraced {p.run[0]}", problem)

    log = logs / "traced.log"
    with tracer.installed():
        tracer.phase = "run"
        returncode = _call_cli(cli, p.run, log, tracer)
        if returncode == 0:
            tracer.add("cli.output_bytes", sum(f.stat().st_size for f in p.out.iterdir()))
    problem, _, digest = _result_problem(workload, p, returncode, log)
    if ledger.record(f"traced {p.run[0]}", problem) and digest != untraced_digest:
        ledger.flag("tracing changed the workload's results")

    metrics = tracer.metrics()
    traced_s = metrics["cli.total_s"]
    result = {
        "tracing": {
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "overhead_s": traced_s - untraced_s,
            "self_s": tracer.self_times("run"),
            "stage_s": tracer.self_times("run", by_stage=True),
        },
        "digests": {"records.jsonl": sha256_file(p.records), "results": [digest]},
    }
    return _finish(result, ledger, metrics)


def _finish(result: dict, ledger: Ledger, metrics: dict) -> dict:
    result.update(
        correct=ledger.failed == 0,
        attempted=ledger.attempted,
        failed=ledger.failed,
        error_rate=ledger.failed / max(ledger.attempted, 1),
        problems=ledger.problems,
        metrics=metrics,
    )
    return result


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; src_sha256 still names the code
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no mode argument
        blas = {}
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        tiny: bool = False, after_setup=None) -> dict:
    """One benchmark run; returns the full result document."""
    workload = WORKLOADS[workload_name]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    if trace:
        result = measure_traced(workload, seed, work, tiny)
    else:
        result = measure(workload, seed, seconds, work, tiny, after_setup)
    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    result = {"workload": workload_name, "seed": seed, "trace": int(trace), **result, "environment": env}
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def summary(result: dict) -> dict:
    """The result line: every metric of the pass, with its unit."""
    listed = PER_LAYER if result["trace"] else END_TO_END
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit, _ in listed
        if name in result["metrics"]
    }
    return {k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}


def _print_report(result: dict) -> None:
    print(f"{result['workload']}  seed {result['seed']}  trace {result['trace']}")
    metrics, samples = result["metrics"], result.get("samples", {})
    listed = PER_LAYER if result["trace"] else END_TO_END
    for name, unit, _ in listed:
        if name in metrics:
            n = len(samples.get(name, ()))
            note = f"median of {n}" if n else ""
            print(f"  {name:<34}{metrics[name]:>16.6g} {unit:<6}{note}")
    print(f"  {'error_rate':<34}{result['error_rate']:>16.6g} {'ratio':<6}"
          f"{result['failed']} failed of {result['attempted']} commands")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    digests = result.get("digests", {})
    if digests:
        print(f"  sha256 records.jsonl {digests['records.jsonl']}")
        for digest in digests["results"]:
            print(f"  sha256 results       {digest}")
    tracing = result.get("tracing")
    if tracing:
        print(f"  tracing overhead: traced cli.total_s {tracing['traced_s']:.4f} s"
              f" - untraced {tracing['untraced_s']:.4f} s = {tracing['overhead_s']:.4f} s")
        for key, title in (("self_s", "by layer"), ("stage_s", "by stage, nested layers in their caller")):
            print(f"  self time of the workload command {title}:")
            for layer, seconds in tracing[key].items():
                print(f"    {layer:<32}{seconds:>12.4f} s")
            print(f"    {'sum':<32}{sum(tracing[key].values()):>12.4f} s")
    print("  environment " + json.dumps(result["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adlrec" / "cli.py").is_file():
        print(f"error: no adlrec source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    compileall.compile_dir(SRC, quiet=1)  # the build: bytecode, so set-up times exclude it

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), WORK / args.workload)
    _print_report(result)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
