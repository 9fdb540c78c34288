"""One workload in one process: set-up, timed passes, the traced run, checks.

run.py starts this script from the root of a checkout:

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        [--setup-only] [--smoke] [--record]
    python3 perfbench/worker.py --screen

It prints ``READY`` when set-up is done. Unless ``--setup-only`` is given it
then measures and prints one line ``RESULT <json>`` with the metric values,
their sample counts, the op counts and every problem the checks found.

A pass runs every timed op once, in order, as a closed loop of one op at a
time. Each op is the body of ``obsnet gen`` through the library, then
``obsnet.cli.run(["design", ...])``, then optionally
``obsnet.cli.run(["verify", ...])``, on files in a scratch directory of the
checkout.
"""

import os

# Before numpy is imported: one BLAS thread, as the measurements assume.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import obsnet  # noqa: E402
from obsnet import cli  # noqa: E402
from obsnet.generate import generate_instance  # noqa: E402
from obsnet.graphs import serialize_instance  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # untraced passes in a run, however short --seconds is
MIN_PAIRS = 1  # untraced and traced pass pairs in a traced run


class _Untraced:
    """Stands in for a Recorder when nothing is traced."""

    op = ""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, k):
        pass


def _cli(argv: list[str], rec) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = rec.call("cli.run", cli.run, argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_op(op: workloads.Op, workdir: Path, rec=_Untraced) -> dict:
    """Run one op; returns its times, exit code and raw outputs."""
    rec.op = op.name
    inst_path = workdir / f"{op.name}.instance.json"
    design_path = workdir / f"{op.name}.design.json"
    result = {"gen": 0.0, "design": 0.0, "verify": 0.0}
    if not op.probe:
        start = time.perf_counter()
        if op.gen is not None:
            instance = rec.call("generate.generate_instance", generate_instance, *op.gen)
        else:
            instance = workloads.build_hand_instance(op.hand)
        text = rec.call("graphs.serialize_instance", serialize_instance, instance)
        inst_path.write_text(text, encoding="utf-8")
        result["gen"] = time.perf_counter() - start
        rec.count("graphs.instance_bytes", len(text))
        result["instance"] = text
    design_path.unlink(missing_ok=True)
    code, _, err, result["design"] = _cli(
        ["design", "--in", str(inst_path), "--out", str(design_path), *op.design_args], rec)
    if code == 0 and op.trials is not None:
        code, result["verify_out"], err, result["verify"] = _cli(
            ["verify", "--in", str(inst_path), "--design", str(design_path),
             "--trials", str(op.trials)], rec)
    result["exit"], result["stderr"] = code, err
    return result


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Bench:
    """Set-up state of one workload plus the outputs seen so far."""

    def __init__(self, workload: str, seed: int, smoke: bool, workdir: Path):
        self.workdir = workdir
        ops = workloads.build_ops(workload, seed, smoke)
        self.timed = [op for op in ops if not op.probe]
        self.probes = [op for op in ops if op.probe]
        self.probe_text = {}  # probes' instances are made in set-up, untimed
        for op in self.probes:
            instance = (generate_instance(*op.gen) if op.gen is not None
                        else workloads.build_hand_instance(op.hand))
            text = serialize_instance(instance)
            (workdir / f"{op.name}.instance.json").write_text(text, encoding="utf-8")
            self.probe_text[op.name] = text
        warm = workdir / "warmup"
        warm.mkdir()
        run_op(workloads.WARMUP, warm)
        self.reference: dict[str, dict] = {}  # op -> first outputs seen
        self.executions: dict[str, int] = {}
        self.bad: dict[str, int] = {}  # op -> executions that failed
        self.problems: list[str] = []

    def one_pass(self, rec=_Untraced) -> dict:
        sums = {"gen": 0.0, "design": 0.0, "verify": 0.0}
        results = []
        start = time.perf_counter()
        for op in self.timed:
            result = run_op(op, self.workdir, rec)
            results.append(result)
            for key in sums:
                sums[key] += result[key]
        wall = time.perf_counter() - start
        for op, result in zip(self.timed, results):
            self._judge(op, result)
        return {"pipeline_s": wall, "gen_s": sums["gen"], "design_s": sums["design"],
                "verify_s": sums["verify"]}

    def _outputs(self, op, result) -> tuple[dict, list[str]]:
        problems = []
        if result["exit"] != 0:
            problems.append(f"exited {result['exit']}: {' '.join(result['stderr'].split())}")
        docs = {"instance": result.get("instance", self.probe_text.get(op.name))}
        design_path = self.workdir / f"{op.name}.design.json"
        if design_path.is_file():
            docs["design"] = design_path.read_text("utf-8")
        if "verify_out" in result:
            docs["verify"] = result["verify_out"]
        return docs, problems

    def _judge(self, op, result) -> None:
        docs, problems = self._outputs(op, result)
        self.executions[op.name] = self.executions.get(op.name, 0) + 1
        ref = self.reference.setdefault(op.name, docs)
        if ref is not docs and any(_digest(ref.get(k, "")) != _digest(docs.get(k, ""))
                                   for k in set(ref) | set(docs)):
            problems.append("outputs differ from the first execution of the op in this run")
        if problems:
            self.bad[op.name] = self.bad.get(op.name, 0) + 1
            self.problems.extend(f"{op.name}: {p}" for p in problems)

    @staticmethod
    def _check(op, docs: dict) -> list[str]:
        import check

        problems = []
        if op.gen is not None:
            n, m, _, _, undirected = op.gen
            problems += check.check_instance(docs["instance"], n, m, undirected)
        if "design" in docs:
            problems += check.check_design(docs["instance"], docs["design"])
        if op.trials is not None and "verify" in docs:
            problems += check.check_verify(docs["verify"], op.trials)
        return problems

    def check_outputs(self, recorded: dict | None) -> dict:
        """Check each op's first outputs; an op whose first outputs are wrong
        fails on every execution, since later ones matched them. Returns the
        digests of those outputs."""
        digests = {}
        for op in self.timed:
            docs = self.reference[op.name]
            digests[op.name] = {k: _digest(v) for k, v in docs.items()}
            problems = self._check(op, docs)
            if recorded is not None and recorded.get(op.name) != digests[op.name]:
                problems.append("output digests differ from those recorded for this seed")
            if problems:
                self.bad[op.name] = self.executions[op.name]
                self.problems.extend(f"{op.name}: {p}" for p in problems)
        return digests

    def run_probes(self) -> list[dict]:
        """Run each probe once, untimed. A probe fails on a nonzero exit or on
        outputs that fail their checks."""
        outcomes = []
        for op in self.probes:
            result = run_op(op, self.workdir)
            docs, problems = self._outputs(op, result)
            kind = None
            if result["exit"] != 0:
                try:
                    kind = json.loads(result["stderr"])["error"]["kind"]
                except (ValueError, KeyError, TypeError):
                    kind = "unparsed"
            else:
                problems += self._check(op, docs)
            outcomes.append({"op": op.name, "exit": result["exit"], "kind": kind,
                             "failed": bool(problems), "problems": problems})
        return outcomes


def _median_of(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _another(durations: list[float], least: int, deadline: float) -> bool:
    """Whether to start one more pass: at least ``least`` passes, and no
    pass that would end, at the median duration so far, after ``deadline``."""
    if len(durations) < least:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced passes within ``seconds`` (at least MIN_PASSES): the end-to-end metrics."""
    samples = []
    deadline = time.perf_counter() + seconds
    while _another([s["pipeline_s"] for s in samples], MIN_PASSES, deadline):
        samples.append(bench.one_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = _median_of(samples)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {"metrics": metrics, "samples": len(samples), "passes": samples}


def _layer_sums(spans: list[tuple], counts: dict) -> dict:
    """Per-layer busy time and counts of one traced pass. ``cli.self_s`` is
    the time inside ``cli.run`` that no layer's span covers: argument
    parsing, file I/O and printing."""
    total: dict[str, float] = {}
    children: dict[int, float] = {}
    for sid, parent, _, name, start, end in spans:
        total[name] = total.get(name, 0.0) + end - start
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    out = {metric: sum(total.get(name, 0.0) for name in names)
           for metric, names in tracing.LAYER_TIMES.items()}
    out["cli.self_s"] = sum(end - start - children.get(sid, 0.0)
                            for sid, _, _, name, start, end in spans if name == "cli.run")
    out.update({name: counts.get(name, 0) for name in tracing.COUNTS})
    return out


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list[tuple]]:
    """Alternating untraced and traced passes, then one memory pass: the
    per-layer metrics, and every span recorded."""
    rec = tracing.Recorder()
    plain, traced_walls, layers = [], [], []
    trial_s, branching_s = [], []
    pairs: list[float] = []
    deadline = time.perf_counter() + seconds
    while _another(pairs, MIN_PAIRS, deadline):
        start = time.perf_counter()
        plain.append(bench.one_pass()["pipeline_s"])
        first = len(rec.spans)
        rec.counts = {}
        with tracing.traced(rec):
            traced_walls.append(bench.one_pass(rec)["pipeline_s"])
        spans = rec.spans[first:]
        layers.append(_layer_sums(spans, rec.counts))
        trial_s += [e - s for _, _, _, n, s, e in spans if n == "verification.observability_trial"]
        branching_s += [e - s for _, _, _, n, s, e in spans if n == "network.min_branching"]
        pairs.append(time.perf_counter() - start)
    metrics = _median_of(layers)
    metrics["network.min_branching.max_s"] = max(branching_s, default=0.0)
    metrics["verification.observability_trial.p50_s"] = statistics.median(trial_s or [0.0])
    metrics["verification.observability_trial.max_s"] = max(trial_s, default=0.0)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    peaks: dict[str, float] = {}
    with tracing.memory_peaks(peaks):
        bench.one_pass()
    for _, _, name in tracing.PEAK_SITES:
        metrics[name] = peaks.get(name, 0.0)
    return {"metrics": metrics, "samples": len(layers),
            "passes": {"untraced_s": plain, "traced_s": traced_walls}}, rec.spans


def screen(workdir: Path) -> dict:
    """Run pool candidates in order, keeping those whose outputs pass the
    checks, until each kind's pool is full."""
    pool: dict[str, list] = {kind: [] for kind in workloads.POOL_SIZES}
    rejected = []
    for kind, size in workloads.POOL_SIZES.items():
        candidates = workloads.pool_candidates(kind)
        while len(pool[kind]) < size:
            op = next(candidates)
            result = run_op(op, workdir)
            docs = {"instance": result["instance"], "verify": result.get("verify_out")}
            design = workdir / f"{op.name}.design.json"
            if design.is_file():
                docs["design"] = design.read_text("utf-8")
            problems = Bench._check(op, docs) if result["exit"] == 0 else [result["stderr"]]
            if problems:
                rejected.append({"kind": kind, "gen": op.gen, "problems": problems})
            else:
                pool[kind].append(op.gen)
    return {"pool": pool, "rejected": rejected}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="skip the comparison with recorded digests")
    parser.add_argument("--screen", action="store_true",
                        help="screen the pool candidates instead of measuring")
    args = parser.parse_args()
    if not args.screen and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    src = Path(obsnet.__file__).resolve().parent
    if src != (ROOT / "src" / "obsnet").resolve():
        print(f"obsnet was imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.screen:
            print("READY", flush=True)
            print("RESULT " + json.dumps(screen(workdir)), flush=True)
            return 0
        bench = Bench(args.workload, args.seed, args.smoke, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result, spans = measure_traced(bench, args.seconds)
        else:
            result, spans = measure(bench, args.seconds), None
        result["probes"] = bench.run_probes()
        recorded = None
        if not (args.smoke or args.record):
            table = json.loads((HERE / "digests.json").read_text("utf-8"))
            recorded = table.get(str(args.seed), {}).get(args.workload)
        result["digests"] = bench.check_outputs(recorded)
        result["digests_checked"] = recorded is not None
        result["attempted"] = sum(bench.executions.values())
        result["failed"] = sum(bench.bad.values())
        result["problems"] = bench.problems[:50]
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        result["env"] = {**{var: os.environ[var] for var in BLAS_VARS},
                         "numpy": numpy.__version__,
                         "blas": f"{blas.get('name')} {blas.get('version')}"}
        if spans is not None:
            stem = f"spans-{args.workload}-seed{args.seed}"
            with open(scratch / f"{stem}.jsonl", "w", encoding="utf-8") as fh:
                for sid, parent, op, name, start, end in spans:
                    fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                         "start": start, "end": end}) + "\n")
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
