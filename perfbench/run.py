"""geomgates benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads are closed loops: one
client, one ``geomgates.cli.main`` call at a time, in this process; the
only other threads are the program's own pool.  A *pass* is the
workload's fixed list of CLI calls; passes repeat until the next one would
end after ``--seconds``.  A pass's time is the sum over its calls of each
call's median over passes; set-up time is the median of several
fresh-process cold starts.

``--trace 0`` reports the end-to-end metrics, with the process and all
its threads kept on one CPU (see pin_one_cpu).  ``--trace 1`` runs one
untraced part and then a part with spans around the calls into every
module, and reports the per-layer metrics (see perfbench/README.md).
Every output file is checked against the repository's verify bounds and
hashed; passes over the same inputs must write identical bytes.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # tail percentile: the highest with this many samples above it
UNTRACED_SHARE = 1 / 3  # share of a traced run spent on the untraced reference


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile would not
    lie above the median, so the maximum is reported instead.
    """
    v = sorted(values)
    k = len(v) - TAIL_BEYOND - 1 if len(v) > 2 * TAIL_BEYOND else len(v) - 1
    return v[k], 100.0 * (k + 1) / len(v), len(v)


def pass_time(passes, k):
    """Time of one pass (k = 0: wall, 1: CPU) as the sum over its calls of
    each call's median over passes, so a stall during one call of one pass
    does not move the figure."""
    return sum(statistics.median([p[i][k] for p in passes]) for i in range(len(passes[0])))


def setup_probes(config):
    """Median cold start over fresh processes: (setup_s, import_s, load_config_s)."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(SRC)]
    if config is not None:
        cmd.append(str(config))
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        rec = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(rec["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"probe imported geomgates from {rec['module']}, not {SRC}")
        samples.append(rec)
    return (
        statistics.median([r["import_s"] + r["load_config_s"] for r in samples]),
        statistics.median([r["import_s"] for r in samples]),
        statistics.median([r["load_config_s"] for r in samples]),
    )


def pin_one_cpu():
    """Keep this process, every thread it starts later and its child
    processes on one CPU; return that CPU, or None where affinity cannot be
    set.

    On a shared host the pool's two threads on two vCPUs hand the GIL back
    and forth across both, so time stolen from either vCPU stalls both
    threads, and pass times spread several times wider than the pool's
    gain.  On one CPU a pass costs its CPU time plus what is stolen from
    that CPU.  The pool keeps its ``min(8, os.cpu_count())`` workers, so
    its code paths still run.  Call this before any thread starts.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def invoke(cli, argv):
    """One CLI call with stdout captured: (exit status or None, traceback or None)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            return None, traceback.format_exc()


def digest(directory: Path):
    """sha256 of every file under directory, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


class Runner:
    """Runs passes of one workload and keeps the correctness tally."""

    def __init__(self, cli, wl, work: Path):
        self.cli = cli
        self.wl = wl
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first_hashes = None
        self.messages = []

    def _op(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def one_pass(self):
        """Run every call of the pass, then check it: [(wall, cpu)] per call."""
        pass_dir = self.work / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        records = []
        for i, call in enumerate(self.wl.calls):
            out = pass_dir / f"{i:02d}-{call.label}"
            c0, t0 = time.process_time(), time.perf_counter()
            rc, err = invoke(self.cli, call.argv + ["--out", str(out)])
            records.append((call, out, rc, err, (time.perf_counter() - t0, time.process_time() - c0)))

        for call, out, rc, err, _ in records:
            self._op(err is None and rc == call.expect_rc,
                     f"{call.label}: exit {rc}, expected {call.expect_rc}" + (f"\n{err}" if err else ""))
            try:
                ops = call.check(out)
            except (KeyError, ValueError, TypeError) as exc:  # output not in the expected shape
                ops = [(False, f"check failed on the output: {exc!r}")]
            for ok, message in ops:
                self._op(ok, f"{call.label}: {message}")
        hashes = digest(pass_dir) if pass_dir.exists() else {}
        if self.first_hashes is None:
            self.first_hashes = hashes
        else:
            diff = sorted(k for k in set(hashes) | set(self.first_hashes)
                          if hashes.get(k) != self.first_hashes.get(k))
            self._op(not diff, f"determinism: files differ from the first pass: {diff}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        return [times for *_, times in records]

    def passes_until(self, deadline):
        """Passes until the next one would end after deadline (at least one)."""
        out = []
        while True:
            start = time.perf_counter()
            out.append(self.one_pass())
            span = time.perf_counter() - start
            if time.perf_counter() + span > deadline:
                return out


def steal_ticks():
    """(steal, total) CPU ticks since boot from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def machine_record(affinity, pinned_cpu):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,  # CPUs the run may use, before any pinning
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        # mirrors experiments._map_ordered's pool size
        "pool_workers": min(8, os.cpu_count() or 1),
        "pinned_cpu": pinned_cpu,
    }


def load_declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "geomgates" / "cli.py").is_file():
        print(f"run.py: no geomgates sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_declared()
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    pinned_cpu = None if args.trace else pin_one_cpu()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        wl = workloads.WORKLOADS[args.workload](
            rng, work / "inputs", SRC / "geomgates" / "configs" / "default.ini")
        try:
            setup_s, import_s, load_s = setup_probes(wl.config)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2

        sys.path.insert(0, str(SRC))
        import geomgates.cli as cli

        runner = Runner(cli, wl, work)
        ticks0 = steal_ticks()
        start = time.perf_counter()
        detail = {"workload": args.workload, "seed": args.seed, "machine": machine_record(affinity, pinned_cpu)}
        if args.trace:
            import tracing

            plain = runner.passes_until(start + UNTRACED_SHARE * args.seconds)
            rec = tracing.Recorder()
            rec.install()
            try:
                traced = runner.passes_until(start + args.seconds)
            finally:
                rec.uninstall()
            layers, hist = tracing.summarize(rec, len(traced))
            layers.update({
                "setup.import_s": import_s,
                "config.load_config_s": load_s,
                "failed_share": runner.failed / max(runner.attempted, 1),
                "trace.overhead_s": pass_time(traced, 0) - pass_time(plain, 0),
            })
            detail.update(passes={"untraced": len(plain), "traced": len(traced)},
                          rungs_histogram=hist, absent=rec.absent,
                          spans_file=str(rec.write(OUT / f"spans-{args.workload}.npz").relative_to(ROOT)))
            metrics, units = layers, per_layer
        else:
            passes = runner.passes_until(start + args.seconds)
            wall_s = pass_time(passes, 0)
            if wl.gate_calls:
                latencies = [wall for p in passes for wall, _ in p]
                p50, (tail_v, tail_pct, n_ops) = statistics.median(latencies), tail(latencies)
            else:  # no gate call: both gate metrics repeat the pass time
                p50, tail_v, tail_pct, n_ops = wall_s, wall_s, None, 0
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": pass_time(passes, 1),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "gate_p50_s": p50,
                "gate_tail_s": tail_v,
            }
            detail.update(passes=len(passes), calls={
                f"{i:02d}-{call.label}": [[round(x, 5) for x in p[i]] for p in passes]
                for i, call in enumerate(wl.calls)}, gates={
                "count": n_ops, "tail_percentile": tail_pct},
                operations={"attempted": runner.attempted, "failed": runner.failed,
                            "failed_share": runner.failed / max(runner.attempted, 1)})
            units = end_to_end
        detail["hashes"] = runner.first_hashes
        ticks1 = steal_ticks()
        if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
            # share of all CPU time the hypervisor gave to other guests
            detail["machine"]["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])

        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"run.py: metrics not produced: {missing}", file=sys.stderr)
            return 2
        for message in runner.messages[:20]:
            print(f"FAILED {message}", file=sys.stderr)
        print(json.dumps(detail, sort_keys=True))
        for name, unit in units.items():
            print(f"{name:48s} {metrics[name]:.6g} {unit}")
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
