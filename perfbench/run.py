"""fiberspin benchmark: CLI workloads timed end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload trace-dump --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a source checkout; nothing needs building. Each
invocation is `python -m fiberspin <args>` in a child process against
`src/`, one at a time, timed from spawn to exit, with its peak RSS read
from os.wait4 (see spawner.py for why a helper process spawns it) and its
output checked (see workloads.py). The run repeats
invocations for --seconds and reports medians.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter running `import fiberspin`
  wall_s       median wall time of one invocation
  wall_s_tail  the highest order statistic with at least ten samples above
               it, never below the median (so it equals the median below 21
               samples); its percentile and the sample count are printed
  peak_rss_mb  median peak RSS of the invocation's own process, in MiB
and prints failed_frac, the share of invocations that exited non-zero,
timed out or failed the output check; the result's `attempted` and
`failed` carry the same two counts.

--trace 1 runs the invocation twice through tracer.py, which calls
fiberspin.cli.main in-process with the package's functions wrapped, and
reports the per-layer metrics of tracer.PER_LAYER, averaged over the two
runs, whose exact counts must agree. trace.overhead_s is the traced wall
time minus the median wall time of untraced invocations made in the same
run.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Human-readable lines and the run facts (git state, nproc, Python,
numpy and kernel backend, load average, seed, argv) come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"

if not (SRC / "fiberspin" / "cli.py").is_file():
    sys.exit(f"error: no fiberspin source tree at {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import fiberspin  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: fresh-interpreter imports timed before the first invocation; one more
#: follows every invocation
SETUP_FIRST = 5
TIMEOUT_S = 45.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("wall_s_tail", "s"), ("peak_rss_mb", "MiB"))
#: per-layer stats that count work and so must repeat exactly between traced runs
EXACT_STATS = ("calls", "points", "bytes")


@dataclass
class Invocation:
    wall_s: float
    rss_mib: float
    error: str | None
    sha256: str


class Children:
    """Runs fiberspin children, one at a time, through spawner.py.

    The children get PYTHONPATH=src and no BLAS thread pool: fiberspin only
    multiplies 4x4 matrices, which never use it.
    """

    def __init__(self):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "FIBERSPIN_"))}
        env["PYTHONPATH"] = str(SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        self._helper = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS MiB) of argv run to completion."""
        request = {
            "argv": argv, "env": self.env, "stdout": str(stdout), "stderr": str(stderr), "timeout": TIMEOUT_S,
        }
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        answer = self._helper.stdout.readline()
        if not answer:
            raise RuntimeError(f"spawner exited with code {self._helper.wait()}")
        answer = json.loads(answer)
        return answer["wall_s"], answer["code"], answer["rss_mib"]

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


def invoke(work, children: Children, traced_stats: Path | None = None) -> Invocation:
    """One CLI invocation of a workload, its output checked."""
    stdout, stderr = TMP / "stdout", TMP / "stderr"
    if work.out_path:
        Path(work.out_path).unlink(missing_ok=True)
    if traced_stats is None:
        argv = [sys.executable, "-m", "fiberspin", *work.cli_args]
    else:
        argv = [sys.executable, str(TRACER), str(traced_stats), *work.cli_args]
    wall, code, rss = children.run(argv, stdout, stderr)
    error = None
    data = b""
    if code != 0:
        lines = stderr.read_bytes().decode("utf-8", "replace").strip().splitlines()
        error = f"exit code {code}: {lines[-1] if lines else 'no stderr'}"
    else:
        data = Path(work.out_path or stdout).read_bytes()
        error = work.check(data)
    sha = hashlib.sha256(workloads.fingerprint_bytes(work.name, data)).hexdigest()
    return Invocation(wall, rss, error, sha)


def time_setup(children: Children) -> float:
    wall, code, _ = children.run(
        [sys.executable, "-c", "import fiberspin"], TMP / "setup.out", TMP / "setup.err"
    )
    if code != 0:
        raise RuntimeError(f"`import fiberspin` exited with code {code}")
    return wall


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples above it.

    Never below the median: with fewer than 21 samples the median is returned.
    """
    xs = sorted(samples)
    k = max(len(xs) - 11, len(xs) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def repeat_invocations(work, children: Children, deadline: float, setup: list[float] | None) -> list[Invocation]:
    """Invoke until the next round would pass the deadline (at least once).

    When setup is a list, one fresh-import timing is appended after every
    invocation, so set-up samples spread over the run like the invocations.
    """
    done: list[Invocation] = []
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        done.append(invoke(work, children))
        if setup is not None:
            setup.append(time_setup(children))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            return done


def git_state() -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, env=env, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def run_facts(seed: int, work) -> dict:
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fiberspin": fiberspin.__version__,
        "backend": fiberspin.backend(),
        "seed": seed,
        "argv": ["python", "-m", "fiberspin", *work.cli_args],
    }


def end_to_end(work, children: Children, seconds: int) -> tuple[dict, list[Invocation], list[str], list[str]]:
    setup = [time_setup(children) for _ in range(SETUP_FIRST)]
    done = repeat_invocations(work, children, time.perf_counter() + seconds, setup)
    walls = [inv.wall_s for inv in done]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "peak_rss_mb": statistics.median(inv.rss_mib for inv in done),
    }
    n = len(done)
    notes = {
        "setup_s": f"median of {len(setup)} fresh `import fiberspin`",
        "wall_s": f"median of {n} invocations",
        "wall_s_tail": f"p{tail_pct:.0f} of {n} invocations",
        "peak_rss_mb": f"median of {n} invocations",
    }
    lines = [f"  {name:<13}{metrics[name]:>12.6g} {unit:<4} {notes[name]}" for name, unit in END_TO_END]
    return metrics, done, lines, []


def per_layer(work, children: Children, seconds: int) -> tuple[dict, list[Invocation], list[str], list[str]]:
    deadline = time.perf_counter() + seconds
    traced, untraced, stats = [], [], []
    # traced and untraced runs alternate, so a drift in machine speed over
    # the run does not land in trace.overhead_s
    for k in range(2):
        untraced.append(invoke(work, children))
        path = TMP / f"trace{k}.json"
        path.unlink(missing_ok=True)
        traced.append(invoke(work, children, traced_stats=path))
        if path.exists():
            stats.append(json.loads(path.read_text(encoding="utf-8")))
    untraced += repeat_invocations(work, children, deadline, None)
    done = traced + untraced
    if len(stats) < 2:
        return {}, done, [], ["a traced run wrote no spans"]

    for name in stats[0]["missing"]:
        print(f"warning: traced function {name} no longer exists", file=sys.stderr)
    problems = []
    first, second = (tracer.layer_metrics(s) for s in stats)
    metrics = {}
    for name, value in first.items():
        if name.rpartition(".")[2] in EXACT_STATS:
            if value != second[name]:
                problems.append(f"{name} differs between traced runs: {value} vs {second[name]}")
            metrics[name] = value
        else:
            metrics[name] = 0.5 * (value + second[name])
    for layer in work.must_call:
        if not all(_calls(s, layer) for s in stats):
            problems.append(f"span coverage: {layer} recorded no calls on {work.name}")
    for layer in work.must_skip:
        if any(_calls(s, layer) for s in stats):
            problems.append(f"span coverage: {layer} was called on {work.name}")
    traced_wall = statistics.mean(inv.wall_s for inv in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(inv.wall_s for inv in untraced)

    lines = [f"  {name:<42}{metrics[name]:>14.6g} {unit}" for name, unit, _ in tracer.PER_LAYER]
    lines.append(
        f"  traced wall {traced_wall:.4g} s, mean of 2 runs;"
        f" untraced wall median of {len(untraced)} invocations"
    )
    return metrics, done, lines, problems


def _calls(stats: dict, span: str) -> int:
    return sum(n for name, _, n, _, _ in stats["spans"] if name == span)


def run_workload(name: str, seed: int, seconds: int, trace: bool, children: Children) -> dict:
    work = workloads.WORKLOADS[name](seed, str(TMP.relative_to(ROOT)))
    facts = run_facts(seed, work)
    load_start = os.getloadavg()
    metrics, done, lines, problems = (per_layer if trace else end_to_end)(work, children, seconds)
    facts["loadavg_start"], facts["loadavg_end"] = load_start, os.getloadavg()
    errors = [inv.error for inv in done if inv.error]
    shas = sorted({inv.sha256 for inv in done if not inv.error})

    print(f"{name}  seed {seed}  trace {int(trace)}")
    for line in lines:
        print(line)
    print(f"  {'failed_frac':<13}{len(errors) / len(done):>12.6g}      {len(errors)} of {len(done)} invocations")
    print(f"  output sha256 {', '.join(s[:16] for s in shas) or '-'} ({len(shas)} distinct)")
    for message in errors[:5] + problems:
        print(f"FAIL {name}: {message}", file=sys.stderr)
    print("facts " + json.dumps(facts))
    units = {n: u for n, u, _ in tracer.PER_LAYER} if trace else dict(END_TO_END)
    return {
        "correct": not errors and not problems,
        "attempted": len(done),
        "failed": len(errors),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=int, default=40, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (
        [w["name"] for w in declared["workloads"]],
        [m["name"] for m in declared["end_to_end"]],
        [m["name"] for m in declared["per_layer"]],
    )
    if names != (list(workloads.WORKLOADS), [n for n, _ in END_TO_END], [n for n, _, _ in tracer.PER_LAYER]):
        print("error: BENCHMARK.json and perfbench disagree on workload or metric names", file=sys.stderr)
        return 2

    chosen = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.chdir(ROOT)
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir()
    children = Children()
    try:
        for name in chosen:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), children)
            print(json.dumps(result), flush=True)
    finally:
        children.close()
        shutil.rmtree(TMP, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
