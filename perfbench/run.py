"""Benchmark of obsnet's user path: gen -> design -> verify.

Run from the root of a checkout (the directory holding ``src/obsnet`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload design-bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # fast self-check of the benchmark
    python3 perfbench/run.py --record-digests   # rewrite perfbench/digests.json

A measurement run starts ``perfbench/worker.py`` several times, one process
at a time, each with one BLAS thread. One process measures for ``--seconds``
seconds; with ``--trace 0`` others before and after it only set up and exit,
and set-up time is the median of all set-ups, from process start to the
first timed op.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The names and units of both come from
``BENCHMARK.json``.

The report lines name every metric with its unit and sample count, the op
counts, the probe outcomes and the environment. The last line is one JSON
object: ``correct``, ``attempted`` and ``failed`` count the timed ops, whose
outputs were all checked; probes count only in the printed ``error_rate``.
Raw results and, for traced runs, every span go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Set-ups measured before and after the measuring process, whose own set-up
# is one more sample. Set-up lasts ~0.3 s and the machine's speed drifts over
# seconds, so samples at both ends of the run steady the median.
SETUPS_BEFORE, SETUPS_AFTER = 4, 5
DEADLINE_S = 170.0  # a run ends within this, or fails


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _lines(proc: subprocess.Popen, deadline: float):
    """Yield (line, time read) from the process's stdout until it closes."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode("utf-8"), time.perf_counter()
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise BenchError("the benchmark ran past its deadline")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk


def _worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns its set-up time and its result, if any."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE)
    ready, result = None, None
    try:
        for line, at in _lines(proc, deadline):
            if line == "READY":
                ready = at - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited {code}")
    return ready, result


def _sampling(name: str, unit: str, setups: int, passes: int, trace: int) -> str:
    """How a reported value was sampled."""
    if name == "setup_s":
        return f"median of {setups} set-ups"
    if name == "peak_rss_mb":
        return "max RSS of the measuring process"
    if name.endswith(".peak_mb"):
        return "largest tracemalloc peak of one call, in an untimed memory pass"
    if name.endswith((".p50_s", ".max_s")):
        return f"over every call in {passes} traced passes"
    if unit == "count":
        return "per pass"
    return f"median of {passes} {'traced passes' if trace else 'passes'}"


def measure(workload: str, seed: int, seconds: int, trace: int, smoke: bool = False,
            record: bool = False) -> tuple[dict, list[str], dict]:
    """One benchmark run; returns the result line's object, the report lines
    and the full record, which is also written to ``.perfbench/``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    common += ["--smoke"] * smoke + ["--record"] * record
    setup_only = common + ["--setup-only"]
    setups = [_worker(setup_only, deadline)[0] for _ in range(0 if trace else SETUPS_BEFORE)]
    ready, result = _worker(common + ["--trace", str(trace)], deadline)
    if result is None:
        raise BenchError("the worker printed no result")
    setups.append(ready)
    setups += [_worker(setup_only, deadline)[0] for _ in range(0 if trace else SETUPS_AFTER)]

    values = dict(result["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"the worker did not measure {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    probes = result["probes"]
    probe_failed = sum(p["failed"] for p in probes)
    ops = result["attempted"] + len(probes)
    failed = result["failed"] + probe_failed
    env = dict(result["env"], nproc=os.cpu_count(),
               python=platform.python_version(), git_sha=_git_sha(), seed=seed)
    report = [
        f"obsnet benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}"
        + (" smoke" if smoke else ""),
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for name, m in metrics.items():
        report.append(f"{name:58s} {m['value']:14.6f} {m['unit']:6s} "
                      f"{_sampling(name, m['unit'], len(setups), result['samples'], trace)}")
    report.append(f"{'error_rate':58s} {failed / ops:14.6f} {'ratio':6s} "
                  f"{failed} failed of {ops} ops ({result['failed']} of "
                  f"{result['attempted']} timed, {probe_failed} of {len(probes)} probes)")
    for p in probes:
        expected = workloads.PROBE_EXPECTED.get(p["op"])
        report.append(f"probe {p['op']}: exit {p['exit']} kind {p['kind']}"
                      f" {'failed' if p['failed'] else 'passed'} {p['problems'][:1]};"
                      f" at the seed commit {expected}")
    report.append("output digests: " + ("compared with the recorded ones" if
                                        result["digests_checked"] else
                                        "none recorded for this seed; semantic checks only"))
    report += [f"problem: {p}" for p in result["problems"]]

    line = {"correct": result["failed"] == 0 and not result["problems"],
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = {"result": line, "env": env, "setup_samples": setups, "probes": probes,
              "error_rate": {"failed": failed, "ops": ops}, "worker": result}
    record_file = out_dir / f"result-{workload}-seed{seed}-trace{trace}.json"
    record_file.write_text(json.dumps(record, indent=2) + "\n")
    return line, report, record


def smoke() -> list[str]:
    """Each workload at tiny sizes, untraced and traced; returns the failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    failures = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            line, report, record = measure(workload, workloads.DEFAULT_SEED, 0, trace,
                                           smoke=True)
            print("\n".join(report))
            where = f"{workload} trace={trace}"
            names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            text = "\n".join(report)
            if set(line["metrics"]) != names or any(n not in text for n in names):
                failures.append(f"{where}: metric names differ from BENCHMARK.json")
            if not line["correct"] or line["failed"]:
                # traced passes are compared byte for byte with untraced ones
                failures.append(f"{where}: outputs failed their checks")
            for probe in record["probes"]:
                seen = {"exit": probe["exit"], "kind": probe["kind"]}
                if seen != workloads.PROBE_EXPECTED[probe["op"]] or not probe["failed"]:
                    failures.append(f"{where}: probe {probe['op']} gave {seen}")
            if record["error_rate"]["failed"] != len(record["probes"]):
                failures.append(f"{where}: error_rate counts {record['error_rate']}")
    return failures


def record_digests() -> None:
    table = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for workload in workloads.WORKLOADS:
            line, report, record = measure(workload, seed, 0, 0, record=True)
            if not line["correct"]:
                raise BenchError("\n".join(report))
            table.setdefault(str(seed), {})[workload] = record["worker"]["digests"]
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def screen_pool() -> None:
    ready, result = _worker(["--screen"], time.perf_counter() + 3600)
    doc = {"about": "instances for the ops that run verify, screened at the seed commit"
                    " by run.py --screen: every pool entry passed all of its trials",
           **result}
    text = json.dumps(doc, indent=None, separators=(",", ":"))
    (HERE / "pool.json").write_text(text.replace('],[', '],\n[') + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="obsnet end-to-end benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself on tiny inputs")
    parser.add_argument("--record-digests", action="store_true",
                        help="record output digests for the default and held-out seeds")
    parser.add_argument("--screen", action="store_true",
                        help="screen the instances of the verify ops into perfbench/pool.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "obsnet" / "__init__.py").is_file():
        print("run from the root of an obsnet checkout: src/obsnet is missing", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            failures = smoke()
            print("\n".join(failures) or "smoke ok")
            return 1 if failures else 0
        if args.screen:
            screen_pool()
            return 0
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        line, report, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
