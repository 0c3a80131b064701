"""Benchmark of the ``martin`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each ``martin`` invocation is a child
process, started one at a time from this process (closed loop, one
client), with ``src`` first on ``PYTHONPATH``, ``MARTIN_THREADS`` cleared
and ``--seed`` passed through.  A set is one pass over the workload's
invocations; sets repeat until ``--seconds`` have passed.  Every report is
gated for correctness and must be byte-identical across the sets of a run;
failed invocations count in the result's ``failed``.

``--trace 0`` prints the end-to-end metrics: the median set wall time, the
median start-up (``import martinlevels.cli``) time, the largest child's
peak RSS, and the workload's error against its reference.  ``--trace 1``
alternates untraced sets with sets run through the layer wrappers of
``tracing.py`` and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is the JSON result; a full record of the
run goes to ``.bench_build/perfbench/``.
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
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9                # import-only children timed per run
HARD_LIMIT_S = 170.0             # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "oracle_rel_err": "ratio",
}


def per_layer_units():
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    units["greenratio.unknowns"] = "count"
    units["greenratio.ns_per_matvec_node"] = "ns"
    units["levelset.vertices"] = "count"
    units["export.bytes"] = "B"
    units["trace.startup_s"] = "s"
    units["trace.uncovered_frac"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall: float
    maxrss_kb: int
    spawned: float               # perf_counter just before spawn


def run_child(args, out_dir, deadline):
    """Run ``python3 ARGS`` to completion; time and peak RSS from wait4.

    RUSAGE_CHILDREN would give a running maximum over all children, which
    hides a drop in one child's memory, so each child is reaped with wait4.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "MARTIN_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out_dir / "stdout.txt"), write, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(out_dir / "stderr.txt"), write, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(0.5, deadline - t0))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, t0)


def _tail(path, n=400):
    try:
        return path.read_text(errors="replace")[-n:].strip()
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------------

@dataclass
class SetResult:
    traced: bool
    wall: float = 0.0
    children: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)      # label -> report dict
    traces: list = field(default_factory=list)       # (Child, span list)
    missing: set = field(default_factory=set)
    failed: int = 0


class Runner:
    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.digests = {}
        self.problems = []
        self.configs = {}
        (work / "configs").mkdir(parents=True, exist_ok=True)
        for inv in workload.invocations:
            for name, obj in inv.configs.items():
                path = work / "configs" / name
                path.write_text(json.dumps(obj, indent=1))
                self.configs[name] = str(path)

    def time_import(self, k):
        """Wall time of a child that only imports the CLI, or None if it fails."""
        out = self.work / "setup" / str(k)
        child = run_child(["-c", "import martinlevels.cli"], out, self.deadline)
        if child.rc != 0:
            self.problems.append(f"import martinlevels.cli: exit code {child.rc}: "
                                 f"{_tail(out / 'stderr.txt')}")
            return None
        return child.wall

    def run_set(self, index, traced):
        res = SetResult(traced)
        for inv in self.workload.invocations:
            out = self.work / f"set{index:03d}" / inv.label
            argv = [self.configs.get(a, a) for a in inv.argv]
            args = [str(HERE / "child.py")]
            if traced:
                args += ["--spans", str(out / "spans.json")]
            args += ["--", *argv, "--out", str(out), "--seed", str(self.seed)]
            child = run_child(args, out, self.deadline)
            res.children.append(child)
            res.wall += child.wall
            problems = self._check(inv, out, child, res)
            if traced and (out / "spans.json").is_file():
                record = json.loads((out / "spans.json").read_text())
                res.traces.append((child, record["spans"]))
                res.missing.update(record["missing"])
            if problems:
                res.failed += 1
                self.problems += [f"set {index} {inv.label}: {p}" for p in problems]
        if traced:
            fired = set()
            for _, spans in res.traces:
                fired.update(s[0] for s in spans)
            silent = set(self.workload.spans) - fired - tracing.missing_spans(res.missing)
            self.problems += [f"set {index}: span {name} never fired" for name in sorted(silent)]
        return res

    def _check(self, inv, out, child, res):
        if child.rc != 0:
            return [f"exit code {child.rc}: {_tail(out / 'stderr.txt')}"]
        path = out / inv.report
        try:
            raw = path.read_bytes()
            report = json.loads(raw)
        except (OSError, ValueError) as e:
            return [f"cannot read {inv.report}: {e}"]
        res.reports[inv.label] = report
        problems = inv.gate(report)
        digest = hashlib.sha256(raw).hexdigest()
        if self.digests.setdefault(inv.label, digest) != digest:
            problems.append(f"{inv.report} differs from the first set's")
        return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(res):
    """Per-layer metrics of one traced set, summed over its invocations."""
    totals = tracing.summarize([])
    matvec_s = matvec_nodes = 0.0
    startup = main = 0.0
    for child, spans in res.traces:
        for name, row in tracing.summarize(spans).items():
            for k, v in row.items():
                totals[name][k] += v
        s, n = tracing.matvec_seconds_and_nodes(spans)
        matvec_s += s
        matvec_nodes += n
        root = next((sp for sp in spans if sp[0] == "cli.main" and sp[3] < 0), None)
        if root is not None:
            startup += root[1] - child.spawned
            main += root[2] - root[1]
    m = {}
    for name in tracing.SPAN_NAMES:
        row = totals[name]
        m[f"{name}_s"] = row["s"]
        m[f"{name}_self_s"] = row["self_s"]
        m[f"{name}_calls"] = row["calls"]
    for span, (metric, _) in tracing.COUNTS.items():
        m[metric] = totals[span]["count"]
    m["greenratio.ns_per_matvec_node"] = 1e9 * matvec_s / matvec_nodes if matvec_nodes else 0.0
    m["trace.startup_s"] = startup
    m["trace.uncovered_frac"] = (res.wall - startup - main) / res.wall
    return m


def dropped_metrics(missing):
    """Metrics of spans whose wrapped function no longer exists.

    These are reported as missing, never as 0.
    """
    out = set()
    for span in tracing.missing_spans(missing):
        out.update({f"{span}_s", f"{span}_self_s", f"{span}_calls"})
        if span in tracing.COUNTS:
            out.add(tracing.COUNTS[span][0])
        if span in ("greenratio.matvec", "greenratio.solve"):
            out.add("greenratio.ns_per_matvec_node")
    return out


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    return {"cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "git_sha": git_sha(),
            "longdouble_eps": float(np.finfo(np.longdouble).eps)}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "martinlevels" / "cli.py").is_file():
        print(f"error: no martinlevels sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    deadline = t_start + HARD_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".bench_build" / "perfbench"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = out_root / f"{tag}-{os.getpid()}"
    runner = Runner(workload, args.seed, work, deadline)

    # The first import compiles bytecode, which users pay once, not per run;
    # the timed imports are spread over the run, one after each set.
    imports = [runner.time_import(0)]
    sets = []
    t_measure = time.perf_counter()
    while True:
        res = runner.run_set(len(sets), traced=bool(args.trace) and len(sets) % 2 == 1)
        sets.append(res)
        if not args.trace:
            imports.append(runner.time_import(len(imports)))
        now = time.perf_counter()
        kinds = {s.traced for s in sets}
        if now - t_measure >= args.seconds and len(kinds) == 1 + args.trace:
            break
        if now + max(s.wall for s in sets) > deadline:
            if len(kinds) < 1 + args.trace:
                runner.problems.append("no time left for a traced set")
            break
    while not args.trace and len(imports) <= SETUP_SAMPLES:
        imports.append(runner.time_import(len(imports)))
    setup = [w for w in imports[1:] if w is not None]
    attempted = len(imports) + sum(len(s.children) for s in sets)
    failed = imports.count(None) + sum(s.failed for s in sets)

    plain = [s for s in sets if not s.traced]
    traced = [s for s in sets if s.traced]
    metrics = {}
    if traced:
        per_set = [layer_metrics(s) for s in traced]
        missing = set().union(*(s.missing for s in traced))
        drop = dropped_metrics(missing)
        units = per_layer_units()
        for name, unit in units.items():
            if name in drop:
                continue
            if name == "trace.overhead_frac":
                value = (statistics.median(s.wall for s in traced)
                         / statistics.median(s.wall for s in plain) - 1.0)
            else:
                value = statistics.median(m[name] for m in per_set)
            metrics[name] = {"value": value, "unit": unit}
        if missing:
            print(f"missing (not reported): {sorted(missing)} -> {sorted(drop)}",
                  file=sys.stderr)
    elif not args.trace:
        values = {"wall_s": statistics.median(s.wall for s in plain),
                  "peak_rss_mb": max(c.maxrss_kb for s in plain for c in s.children) / 1024}
        if setup:
            values["setup_s"] = statistics.median(setup)
        full = next((s.reports for s in plain
                     if len(s.reports) == len(workload.invocations)), None)
        if full is not None:
            values["oracle_rel_err"] = workload.oracle(full)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()
                   if k in values}

    correct = failed == 0 and not runner.problems
    env = environment()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "set_walls": [s.wall for s in sets], "set_traced": [s.traced for s in sets],
              "setup_walls": setup, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "problems": runner.problems,
              "metrics": metrics, "elapsed_s": time.perf_counter() - t_start}
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    for p in runner.problems:
        print(f"FAIL {p}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(f"failed_frac = {failed}/{attempted}; {len(sets)} sets; record "
          f"{out_root / (tag + '.json')}", file=sys.stderr)
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
