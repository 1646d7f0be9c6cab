"""The augrank benchmark.

Run from the repository root (stdlib only; augrank is imported from ./src):

    python3 bench/run.py --workload bm25_first_stage --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # every workload, untraced then traced
    python3 bench/run.py --record-reference              # rewrite bench/reference_hashes.json

One run generates the workload's inputs from the seed, computes the
reference artifacts (bench/reference.py) and then, again and again for
--seconds, runs `augrank pipeline run` in a fresh process with a fresh
output directory and times the experiment's set-up (bench/setup_probe.py).
Every iteration's artifacts are checked against the reference. With
--trace 1, untraced iterations alternate with traced ones
(bench/traced_pipeline.py) and the per-layer metrics are reported instead
of the end-to-end ones.

On a shared host the same work runs up to twice as slow for spells of a
second to minutes, and wall and CPU time move with it. So the harness pins
every measured child to one CPU next to bench/calibrator.py, which runs at
a lower priority on the same CPU and gauges its speed during the child's
lifetime; the rest of the harness (and the remote scorer) stay on the
other CPUs. An untraced iteration's time is the child's CPU seconds
rescaled from the speed the calibrator saw to NOMINAL_UNITS_PER_S, plus,
on remote_terms, the scorer's fixed service delay times the requests the
pipeline made, which it waits through. The scorer's own handling and the
loopback transfer are left out: they are the benchmark's, and the time
the host takes to wake the scorer's CPU varies from run to run. pipeline_s is
the median of these over the run's untraced iterations and peak_rss_mb
the median of their peak resident memory. setup_s is the median, over
set-up probes spread across the run (one every SETUP_EVERY untraced
iterations), of each probe's median repetition, rescaled the same way.
The raw wall and CPU seconds are printed on `# samples` lines.

Every metric is printed as `metric <name> <value> <unit>`; the last line
is one JSON object {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count queries over all iterations. A query fails
when its lines in reranked.run are missing or differ from the reference;
a pipeline that exits non-zero fails all of its queries. Any artifact that
differs makes the run incorrect and the exit code 1.

The reference for any seed is computed independently of augrank. For the
default seed, bench/reference_hashes.json additionally pins the SHA-256 of
every artifact as the seed code wrote it, so a change to the generator or
the reference cannot go unnoticed.

Generation, the reference and the scorer's start-up stay outside every
metric. All work happens in .bench_work/ under the repository root, which
is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass

import gen
import layers
import reference
import scorer_server

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
HASHES_PATH = os.path.join(BENCH_DIR, "reference_hashes.json")
WORK_ROOT = ".bench_work"
DEFAULT_SEED = 0
SETUP_EVERY = 3  # untraced iterations per set-up probe
# Calibrator units per CPU second that count as nominal speed. It sets only
# the scale of the rescaled seconds: at this value bm25_first_stage's
# pipeline_s reads about its fastest wall time (1.45 s) on the 2-vCPU Xeon
# VM the benchmark was written on.
NOMINAL_UNITS_PER_S = 17_500.0
CPUS = sorted(os.sched_getaffinity(0))
MEASURING_CPU = CPUS[-1]  # measured children and the calibrator
OTHER_CPUS = set(CPUS[:-1]) or {MEASURING_CPU}  # the harness and the scorer
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120.0
END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Workload:
    sizes: gen.Sizes
    config: dict


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "bm25_first_stage": Workload(
        gen.Sizes(passages=3000, queries=150, dense_depth=20),
        {"mode": "none", "rerank_depth": 20},
    ),
    "rerank_nl_deep": Workload(
        gen.Sizes(passages=3000, queries=50, initial_depth=100),
        {"mode": "nl", "max_words": 64, "rerank_depth": 100},
    ),
    "remote_terms": Workload(
        gen.Sizes(passages=3000, queries=50, initial_depth=100),
        {"mode": "terms", "max_terms": 64, "rerank_depth": 100, "scorer": "remote", "batch_size": 32},
    ),
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class ScorerProcess:
    """The benchmark-owned remote scorer, in its own process."""

    def __init__(self, log_path: str):
        self.log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "scorer_server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.stop()
            raise BenchError("the benchmark scorer did not start")
        self.address = f"http://127.0.0.1:{port}"
        self.opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        with self.opener.open(self.address + "/stats", timeout=10) as response:
            return json.load(response)

    def stop(self) -> None:
        self.proc.stdin.close()  # the scorer exits at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Calibrator:
    """bench/calibrator.py on the measuring CPU."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "calibrator.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        os.sched_setaffinity(self.proc.pid, {MEASURING_CPU})
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise BenchError("the calibrator did not start")

    def reading(self) -> tuple[int, float]:
        """Units of work and CPU seconds, cumulative."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        units, cpu = self.proc.stdout.readline().split()
        return int(units), float(cpu)

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def nominal_factor(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Factor that rescales CPU seconds spent between two calibrator
    readings to the nominal speed."""
    units, cpu = after[0] - before[0], after[1] - before[1]
    if units <= 0 or cpu < 0.01:
        raise BenchError("the calibrator got no CPU time next to the measured child")
    return units / cpu / NOMINAL_UNITS_PER_S


def run_child(argv: list[str], env: dict, log_path: str) -> tuple[float, float, int, float, float]:
    """Start time, wall seconds, exit code, peak RSS (MiB) and CPU seconds
    of a child, run on the measuring CPU."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
        os.sched_setaffinity(proc.pid, {MEASURING_CPU})
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def check_artifacts(out_dir: str, expected: dict[str, str], expected_queries: dict[str, str]):
    """(failed query count, names of artifacts that differ)."""
    differing = [name for name, text in expected.items() if read_text(os.path.join(out_dir, name)) != text]
    by_query: dict[str, list[str]] = {}
    for line in (read_text(os.path.join(out_dir, "reranked.run")) or "").splitlines(keepends=True):
        by_query.setdefault(line.split(" ", 1)[0], []).append(line)
    failed = sum("".join(by_query.get(qid, ())) != lines for qid, lines in expected_queries.items())
    return failed, differing


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    head = read_text(os.path.join(git, "HEAD"))
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = read_text(os.path.join(git, ref))
    if loose:
        return loose.strip()
    for line in (read_text(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return "unknown"


def machine_facts(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(CPUS),
        "measuring_cpu": MEASURING_CPU,
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "commit": git_commit(root),
    }


def check_declared(root: str) -> None:
    """BENCHMARK.json must declare exactly the workloads and metrics this
    harness measures, with the same units."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    pairs = (
        ({w["name"] for w in declared["workloads"]}, set(WORKLOADS), "workloads"),
        ({m["name"]: m["unit"] for m in declared["end_to_end"]}, END_TO_END_UNITS, "end_to_end metrics"),
        ({m["name"]: m["unit"] for m in declared["per_layer"]}, layers.UNITS, "per_layer metrics"),
    )
    for found, measured, what in pairs:
        if found != measured:
            raise BenchError(f"BENCHMARK.json {what} differ from what bench/ measures")


class Experiment:
    """One workload's generated inputs, config and reference, in a fresh
    directory under .bench_work; `close` removes it and stops the scorer."""

    def __init__(self, root: str, name: str, seed: int):
        os.makedirs(os.path.join(root, WORK_ROOT), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=os.path.join(root, WORK_ROOT))
        self.scorer = None
        try:
            self._prepare(root, name, seed)
        except BaseException:
            self.close()
            raise

    def _prepare(self, root: str, name: str, seed: int) -> None:
        workload = WORKLOADS[name]
        inputs = gen.generate(name, seed, workload.sizes, os.path.join(self.dir, "inputs"))
        files = {
            "corpus": "corpus.jsonl",
            "queries": "queries.jsonl",
            "qrels": "qrels.txt",
            "snippet_cache": "snippets.jsonl",
            "initial_run": "initial.run",
            "dense_run": "dense.run",
            "baseline_run": "baseline.run",
        }
        cfg = {key: inputs.paths[f] for key, f in files.items() if f in inputs.paths}
        if workload.config["mode"] == "none":
            del cfg["snippet_cache"]
        cfg["output_dir"] = os.path.join(self.dir, "out")
        cfg.update(workload.config)
        if workload.config.get("scorer") == "remote":
            self.scorer = ScorerProcess(os.path.join(self.dir, "scorer.log"))
            cfg["scorer_address"] = self.scorer.address
        self.expected, self.expected_queries = reference.artifacts(inputs, cfg)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(cfg, handle)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])),
            NO_PROXY="127.0.0.1,localhost",
            no_proxy="127.0.0.1,localhost",
        )

    def close(self) -> None:
        if self.scorer is not None:
            self.scorer.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def child(self, script: str, *args: str) -> list[str]:
        return [sys.executable, os.path.join(BENCH_DIR, script), *args]

    def pipeline_argv(self, out_dir: str) -> list[str]:
        return [sys.executable, "-m", "augrank.cli", "pipeline", "run", "--config", self.config_path, "--output-dir", out_dir]

    def setup_time(self, calibrator: Calibrator) -> tuple[float, float]:
        """Median CPU seconds of the probe's set-up repetitions, raw and
        rescaled to the nominal speed."""
        argv = self.child("setup_probe.py", "--config", self.config_path)
        log = os.path.join(self.dir, "setup_probe.log")
        before = calibrator.reading()
        with open(log, "w", encoding="utf-8") as errors:
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.PIPE, stderr=errors, text=True)
            os.sched_setaffinity(proc.pid, {MEASURING_CPU})
            try:
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        after = calibrator.reading()
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{read_text(log)}")
        cpu = statistics.median(json.loads(out.splitlines()[-1]))
        return cpu, cpu * nominal_factor(before, after)


def measure(root: str, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run. Returns the result object and the human-readable
    metric lines."""
    experiment = Experiment(root, name, seed)
    calibrator = None
    try:
        problems = []
        if seed == DEFAULT_SEED:
            with open(HASHES_PATH, encoding="utf-8") as handle:
                recorded = json.load(handle)[name]
            got = {artifact: sha256(text) for artifact, text in experiment.expected.items()}
            if got != recorded:
                problems.append("reference artifacts differ from reference_hashes.json")
        if not trace:
            calibrator = Calibrator()

        setup, plain, plain_wall, plain_cpu, plain_rss, plain_served = [], [], [], [], [], []
        setup_cpu, traced_wall, traced_metrics, absent = [], [], [], set()
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        iteration = 0
        while True:
            traced = trace and iteration % 2 == 1
            out_dir = os.path.join(experiment.dir, f"out-{iteration}")
            log = os.path.join(experiment.dir, f"iteration-{iteration}.log")
            trace_out = os.path.join(experiment.dir, f"trace-{iteration}.json")
            served = experiment.scorer.stats() if experiment.scorer else None
            if traced:
                argv = experiment.child("traced_pipeline.py", "--config", experiment.config_path,
                                        "--output-dir", out_dir, "--trace-out", trace_out)
            else:
                argv = experiment.pipeline_argv(out_dir)
            reading = calibrator.reading() if calibrator else None
            start, wall, code, rss, cpu = run_child(argv, experiment.env, log)
            factor = nominal_factor(reading, calibrator.reading()) if calibrator else None
            if experiment.scorer:
                after = experiment.scorer.stats()
                served = {key: after[key] - served[key] for key in after}
            attempted += len(experiment.expected_queries)
            if code != 0:
                failed += len(experiment.expected_queries)
                problems.append(f"iteration {iteration} exited with {code}: {(read_text(log) or '')[-2000:]}")
                break
            bad_queries, differing = check_artifacts(out_dir, experiment.expected, experiment.expected_queries)
            failed += bad_queries
            if differing:
                problems.append(f"iteration {iteration}: {', '.join(differing)} differ from the reference")
            if traced:
                with open(trace_out, encoding="utf-8") as handle:
                    spans = json.load(handle)
                traced_metrics.append(layers.from_trace(spans, served, start))
                traced_wall.append(spans["pipeline_end"] - start)
                absent.update(spans["absent"])
                os.remove(trace_out)
            else:
                plain_wall.append(wall)
                plain_cpu.append(cpu)
                plain_rss.append(rss)
                plain_served.append(served["requests"] * scorer_server.DELAY_S if served else 0.0)
                if calibrator:
                    plain.append(cpu * factor + plain_served[-1])
            shutil.rmtree(out_dir, ignore_errors=True)
            if calibrator and iteration % SETUP_EVERY == 0:
                raw, rescaled = experiment.setup_time(calibrator)
                setup_cpu.append(raw)
                setup.append(rescaled)
            iteration += 1
            enough = len(plain_wall) >= MIN_ITERATIONS and (not trace or len(traced_wall) >= MIN_ITERATIONS)
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        if calibrator:
            calibrator.stop()
        experiment.close()

    if trace and traced_metrics:
        metrics = layers.median_metrics(traced_metrics)
        metrics["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain_wall)
        units = layers.UNITS
    elif not trace and plain:
        metrics = {
            "pipeline_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(plain_rss),
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = {}, {}
    lines = [f"# workload={name} seed={seed} trace={int(trace)} iterations={iteration} "
             f"untraced={len(plain_wall)} traced={len(traced_wall)}"]
    lines.append("# machine " + json.dumps(machine_facts(root)))
    lines += [f"# absent {name_}: its metrics read 0" for name_ in sorted(absent)]
    lines += [f"# problem: {p}" for p in problems]
    lines.append(f"# samples pipeline_s {json.dumps(plain)}")
    lines.append(f"# samples wall_s {json.dumps(plain_wall)}")
    lines.append(f"# samples cpu_s {json.dumps(plain_cpu)}")
    lines.append(f"# samples service_delay_s {json.dumps(plain_served)}")
    lines.append(f"# samples setup_s {json.dumps(setup)}")
    lines.append(f"# samples setup_cpu_s {json.dumps(setup_cpu)}")
    lines += [f"metric {key} {value} {units[key]}" for key, value in metrics.items()]
    lines.append(f"metric failed_query_share {failed / attempted} ratio ({failed}/{attempted} queries)")
    result = {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, lines


def record_reference(root: str) -> None:
    """Run the program under test once per workload on the default seed and
    write the SHA-256 of each artifact, after checking that they match the
    independent reference."""
    hashes = {}
    for name in WORKLOADS:
        experiment = Experiment(root, name, DEFAULT_SEED)
        try:
            out_dir = os.path.join(experiment.dir, "out")
            log = os.path.join(experiment.dir, "pipeline.log")
            _, _, code, _, _ = run_child(experiment.pipeline_argv(out_dir), experiment.env, log)
            if code != 0:
                raise BenchError(f"{name}: pipeline exited with {code}: {read_text(log)}")
            written = {a: read_text(os.path.join(out_dir, a)) for a in experiment.expected}
            differing = [a for a, text in written.items() if text != experiment.expected[a]]
            if differing:
                raise BenchError(f"{name}: {', '.join(differing)} differ from bench/reference.py")
            hashes[name] = {a: sha256(text) for a, text in written.items()}
        finally:
            experiment.close()
    with open(HASHES_PATH, "w", encoding="utf-8") as handle:
        json.dump(hashes, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark augrank's pipeline on a generated workload.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    # Terminating the harness still stops its children and removes .bench_work.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "augrank", "cli.py")):
        print("error: run from the repository root (src/augrank/cli.py not found)", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, OTHER_CPUS)  # the scorer inherits this
    try:
        check_declared(root)
        if args.record_reference:
            record_reference(root)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload != "all":
            result, lines = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            return 0 if result["correct"] else 1
        all_correct = True
        for name in WORKLOADS:
            for trace in (False, True):
                result, lines = measure(root, name, args.seed, args.seconds, trace)
                print("\n".join(lines))
                print(json.dumps(result), flush=True)
                all_correct &= result["correct"]
        return 0 if all_correct else 1
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
