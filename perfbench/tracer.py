"""Per-layer tracing of one fiberspin CLI invocation, from outside the package.

Run as a script, it wraps the public functions of each fiberspin module,
calls fiberspin.cli.main(argv) in-process and writes the aggregated spans
to STATS as JSON; stdout and the exit code are the CLI's own:

    PYTHONPATH=src python3 perfbench/tracer.py STATS.json evolve --eta 0.1

No file of the package changes. Each wrapper replaces the function in its
defining module and in every fiberspin module that rebound it with
`from .x import y`, so calls through either name are seen. The cli.cmd_*
handlers are wrapped as one layer, `cli.cmd`, before main() builds the
parser that binds them.

Spans are aggregated by (name, parent) as they close, never stored one per
call: fmt9 alone runs once per printed number. Parent stacks are
thread-local because `taustar` runs a thread pool. A span that opens on a
pool thread with an empty stack takes the span open on the main thread as
its parent, and its interval is kept, so the parent's self time excludes
the wall time its pool covered. A span's self time is its duration minus
that of its children.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time

#: module -> functions traced in it; the span is named "<module>.<function>"
LAYERS = {
    "cli": ("fmt9", "_emit"),
    "kernels": ("ent_trace_grid",),
    "entanglement": ("entanglement_trace", "tau_star", "concurrence_mixed", "concurrence_pure"),
    "network": ("coupling", "steady_fields", "denominator"),
    "numerics": ("solve2", "eig_hermitian4", "propagate"),
    "spins": ("analytic_eigensystem", "build_hamiltonian", "evolve_analytic"),
    "validate": (
        "sample_params",
        "suite_oracle_identity",
        "suite_eigensystem",
        "suite_evolution",
        "suite_entanglement",
    ),
}
HANDLER = "cli.cmd"

#: per-layer metrics: name, unit, which direction is better
PER_LAYER = (
    ("cli.cmd.self_s", "s", "lower"),
    ("cli.fmt9.calls", "count", "lower"),
    ("cli.fmt9.self_s", "s", "lower"),
    ("cli._emit.calls", "count", "lower"),
    ("cli._emit.self_s", "s", "lower"),
    ("cli._emit.bytes", "B", "lower"),
    ("kernels.ent_trace_grid.calls", "count", "lower"),
    ("kernels.ent_trace_grid.points", "count", "lower"),
    ("kernels.ent_trace_grid.self_s", "s", "lower"),
    ("kernels.ent_trace_grid.points_per_s", "1/s", "higher"),
    ("entanglement.entanglement_trace.self_s", "s", "lower"),
    ("entanglement.tau_star.calls", "count", "lower"),
    ("entanglement.tau_star.self_s", "s", "lower"),
    ("entanglement.tau_star.concurrency", "ratio", "higher"),
    ("entanglement.concurrence_mixed.calls", "count", "lower"),
    ("entanglement.concurrence_mixed.self_s", "s", "lower"),
    ("entanglement.concurrence_pure.calls", "count", "lower"),
    ("entanglement.concurrence_pure.self_s", "s", "lower"),
    ("network.coupling.calls", "count", "lower"),
    ("network.coupling.self_s", "s", "lower"),
    ("network.steady_fields.calls", "count", "lower"),
    ("network.steady_fields.self_s", "s", "lower"),
    ("network.denominator.calls", "count", "lower"),
    ("numerics.solve2.calls", "count", "lower"),
    ("numerics.solve2.self_s", "s", "lower"),
    ("numerics.eig_hermitian4.calls", "count", "lower"),
    ("numerics.eig_hermitian4.self_s", "s", "lower"),
    ("numerics.propagate.calls", "count", "lower"),
    ("numerics.propagate.self_s", "s", "lower"),
    ("spins.analytic_eigensystem.self_s", "s", "lower"),
    ("spins.build_hamiltonian.self_s", "s", "lower"),
    ("spins.evolve_analytic.self_s", "s", "lower"),
    ("validate.suite_oracle_identity.total_s", "s", "lower"),
    ("validate.suite_eigensystem.total_s", "s", "lower"),
    ("validate.suite_evolution.total_s", "s", "lower"),
    ("validate.suite_entanglement.total_s", "s", "lower"),
    ("validate.sample_params.accept_frac", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Aggregates spans by (name, parent) in per-thread tables."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._main_stack = self._state()[0]

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            pass
        # stack of open frames [name, child seconds, pool intervals],
        # (name, parent) -> [calls, total s, self s], name -> counter
        state = self._local.state = ([], {}, {})
        with self._lock:
            self._tables.append(state)
        return state

    def wrap(self, name: str, fn, counter=None):
        """Return fn traced as span `name`; counter(args, kwargs) adds to counts[name].

        The parent is charged with the whole wrapped call, wrapper included,
        so tracing cost lands in neither the parent's nor the child's self time.
        """
        local = self._local
        state_of = self._state
        main_stack = self._main_stack
        lock = self._lock
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t_in = clock()
            try:
                stack, table, counts = local.state
            except AttributeError:
                stack, table, counts = state_of()
            pooled = False
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent, pooled = main_stack[-1], True
            else:
                parent = None
            frame = [name, 0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                if frame[2]:
                    own -= _covered(frame[2], t0, t1)
                key = (name, parent[0] if parent else "")
                rec = table.get(key)
                if rec is None:
                    rec = table[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                if counter is not None:
                    counts[name] = counts.get(name, 0) + counter(args, kwargs)
                if pooled:
                    with lock:
                        if parent[2] is None:
                            parent[2] = []
                        parent[2].append((t0, t1))
                elif parent is not None:
                    parent[1] += clock() - t_in

        return traced

    def spans(self) -> list[list]:
        """[name, parent, calls, total_s, self_s] merged over threads."""
        merged: dict[tuple[str, str], list] = {}
        for _, table, _ in self._tables:
            for key, (calls, total, own) in table.items():
                rec = merged.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
        return [[name, parent, *rec] for (name, parent), rec in sorted(merged.items())]

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for _, _, counts in self._tables:
            for name, value in counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged


def _kernel_points(args, kwargs) -> int:
    # ent_trace_grid(eta, tau0, step, n)
    return int(args[3] if len(args) > 3 else kwargs["n"])


class _EmitBytes:
    """Bytes each _emit call wrote, to its --out file or to stdout."""

    def __init__(self):
        self._stdout_seen = self._stdout_size()

    @staticmethod
    def _stdout_size() -> int:
        sys.stdout.flush()
        try:
            return os.fstat(sys.stdout.fileno()).st_size
        except (OSError, ValueError):
            return 0

    def __call__(self, args, kwargs) -> int:
        # _emit(rows, fmt, out, kv=True)
        out = args[2] if len(args) > 2 else kwargs.get("out")
        if out:
            return os.path.getsize(out)
        size = self._stdout_size()
        grown, self._stdout_seen = size - self._stdout_seen, size
        return grown


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function wherever fiberspin binds it.

    Returns the traced functions that no longer exist.
    """
    modules = [importlib.import_module(f"fiberspin.{m}") for m in LAYERS]
    modules.append(importlib.import_module("fiberspin"))
    counters = {"kernels.ent_trace_grid": _kernel_points, "cli._emit": _EmitBytes()}
    targets = []
    missing = []
    for module, names in LAYERS.items():
        mod = sys.modules[f"fiberspin.{module}"]
        for fname in names:
            if callable(getattr(mod, fname, None)):
                targets.append((f"{module}.{fname}", getattr(mod, fname)))
            else:
                missing.append(f"{module}.{fname}")
    cli = sys.modules["fiberspin.cli"]
    targets += [(HANDLER, fn) for attr, fn in vars(cli).items() if attr.startswith("cmd_")]
    for span, original in targets:
        wrapped = tracer.wrap(span, original, counters.get(span))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    return missing


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for name, _, n, t, s in stats["spans"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + t
        own[name] = own.get(name, 0.0) + s
    counts = stats["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    denominator_in_sampler = sum(
        n for name, parent, n, _, _ in stats["spans"]
        if name == "network.denominator" and parent == "validate.sample_params"
    )
    derived = {
        "cli._emit.bytes": counts.get("cli._emit", 0),
        "kernels.ent_trace_grid.points": counts.get("kernels.ent_trace_grid", 0),
        "kernels.ent_trace_grid.points_per_s": ratio(
            counts.get("kernels.ent_trace_grid", 0), total.get("kernels.ent_trace_grid", 0.0)
        ),
        "entanglement.tau_star.concurrency": ratio(
            total.get("entanglement.tau_star", 0.0), total.get(HANDLER, 0.0)
        ),
        "validate.sample_params.accept_frac": ratio(
            calls.get("validate.sample_params", 0), denominator_in_sampler
        ),
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat == "self_s":
            out[metric] = own.get(span, 0.0)
        elif stat == "total_s":
            out[metric] = total.get(span, 0.0)
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: tracer.py STATS.json [fiberspin arguments...]", file=sys.stderr)
        return 2
    stats_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    from fiberspin import cli

    t0 = time.perf_counter()
    code = cli.main(cli_argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    stats = {
        "code": code,
        "main_s": main_s,
        "spans": tracer.spans(),
        "counts": tracer.counts(),
        "missing": missing,
    }
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
