"""Benchmark of the lenequiv CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/lenequiv`` must exist).
Every measured run is a fresh interpreter started as a user would start the
CLI, ``python -m lenequiv.cli run CONFIG``, one child at a time.

``--trace 0`` times untraced CLI runs for about S seconds (at least five)
and reports the end-to-end metrics: the mean wall and CPU time of a run,
the median peak memory of a run, and the median import time of
``lenequiv.cli``.
``--trace 1`` makes one untraced and two traced runs (perfbench/tracer.py),
whatever S is, and reports per-layer counts and times; the two traced runs
must give identical counts.  Every report is checked against known answers
(perfbench/workloads.py).  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details (git
SHA, Python version, CPU count, representation seeds, every sample) are
written to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MIN_SAMPLES = 5
SETUP_SAMPLES = 15
# Stop starting children once this much of a run's time is spent, so that
# one invocation ends well inside three minutes.
BUDGET_S = 150.0


class Sample:
    """One child run through perfbench/spawn.py, with what went wrong."""

    def __init__(self, argv, out_path, err_path, timeout):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        launcher = [sys.executable, "-S", str(HERE / "spawn.py"),
                    "%.1f" % max(timeout, 1.0), str(out_path), str(err_path), "--"]
        done = subprocess.run(launcher + argv, env=env, cwd=ROOT, capture_output=True,
                              check=True)
        cost = json.loads(done.stdout)
        self.wall_s = cost["wall_s"]
        self.cpu_s = cost["cpu_s"]
        self.peak_rss_mb = cost["peak_rss_mb"]
        self.code = cost["code"]
        self.problems = []
        if self.code != 0:
            self.problems.append("exit code %d" % self.code)
        stderr = Path(err_path).read_text(errors="replace")
        if "Traceback" in stderr:
            self.problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])

    def record(self):
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
                "code": self.code, "problems": self.problems}


class Run:
    """One benchmark invocation for one workload."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.prefix = "%s-seed%d" % (workload.name, seed)
        self.config = workload.config(seed)
        self.config_path = WORK / (self.prefix + ".config.json")
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.samples = []

    def remaining(self):
        return BUDGET_S - (time.perf_counter() - self.started)

    def spawn(self, argv, tag):
        return Sample([sys.executable] + argv, WORK / (self.prefix + tag + ".out"),
                      WORK / (self.prefix + tag + ".err"), self.remaining())

    def setup_times(self):
        """Wall time of a fresh interpreter that imports lenequiv.cli."""
        argv = ["-c", "import lenequiv.cli"]
        warm = self.spawn(argv, ".setup")  # compiles bytecode once, untimed
        if warm.problems:
            self.samples.append(warm)
        return [self.spawn(argv, ".setup").wall_s for _ in range(SETUP_SAMPLES)]

    def cli(self, traced=False):
        tag = ".traced" if traced else ".cli"
        argv = ["-m", "lenequiv.cli", "run", str(self.config_path)]
        if traced:
            trace_path = WORK / (self.prefix + ".trace.json")
            trace_path.unlink(missing_ok=True)
            argv = [str(HERE / "tracer.py"), str(trace_path), "--"] + argv[2:]
        sample = self.spawn(argv, tag)
        out_path = WORK / (self.prefix + tag + ".out")
        sample.report_bytes = out_path.stat().st_size
        if not sample.problems:
            try:
                report = json.loads(out_path.read_text())
                sample.problems += self.workload.check(self.config, report, self.seed)
            except (ValueError, KeyError, TypeError) as exc:
                sample.problems.append("malformed report: %r" % exc)
        if traced:
            sample.trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
            if sample.trace is None:
                sample.problems.append("traced run wrote no trace")
        self.samples.append(sample)
        return sample

    def timed(self):
        """Untraced CLI runs for about `seconds`, at least MIN_SAMPLES.

        Wall and CPU time are the mean over the whole run.  On a shared host
        other tenants slow the core for phases of tens of seconds to
        minutes; the mean weighs every second of the run alike, and it
        varied less from run to run than the fastest sample or the median."""
        while True:
            last = self.cli()
            spent = sum(s.wall_s for s in self.samples)
            if len(self.samples) >= MIN_SAMPLES and spent + last.wall_s > self.seconds:
                break
            if last.wall_s * 1.5 > self.remaining():
                break
        return {
            "wall_s": (statistics.fmean(s.wall_s for s in self.samples), "s"),
            "cpu_s": (statistics.fmean(s.cpu_s for s in self.samples), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in self.samples), "MB"),
        }

    def traced(self):
        plain = self.cli()
        runs = [self.cli(traced=True) for _ in range(2)]
        layers = [layer_metrics(s.trace, s.report_bytes) for s in runs if s.trace]
        if len(layers) < 2:
            return {}
        counts = [{k: v for k, (v, unit) in m.items() if unit != "s"} for m in layers]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            runs[1].problems.append("counters differ between traced runs: %s" % diff)
        metrics = {k: (statistics.median(m[k][0] for m in layers) if unit == "s" else v, unit)
                   for k, (v, unit) in layers[0].items()}
        metrics["trace_overhead_s"] = (
            statistics.median(s.wall_s for s in runs) - plain.wall_s, "s")
        return metrics


def layer_metrics(trace, report_bytes):
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    def fn(name, field="calls"):
        return trace["functions"].get(name, {}).get(field, 0)

    def counter(name):
        return trace["counters"].get(name, 0)

    self_s = trace["layer_self_s"]
    stabilizers = ("intersections.stabilized_count_detail",
                   "intersections.stabilized_self_count_detail")
    enumerators = ("intersections.self_intersections", "intersections.mutual_intersections")
    enumerations = sum(e["calls"] for e in trace["edges"]
                       if e["parent"] in stabilizers and e["callee"] in enumerators)
    stabilize_calls = sum(fn(n) for n in stabilizers)
    skips = sum(e["raised"].get("DegeneracyError", 0) for e in trace["edges"]
                if e["module"] == "intersections" and e["callee"].startswith("sl2."))
    coset_calls = fn("intersections.self_coset_key") + fn("intersections.mutual_coset_key")
    coset_s = (fn("intersections.self_coset_key", "s")
               + fn("intersections.mutual_coset_key", "s"))
    records = counter("intersections.records")
    bracket_calls = sum(v["calls"] for k, v in trace["functions"].items()
                        if k.startswith("bracket."))
    return {
        "word_algebra.compose.calls": (fn("word_algebra.compose"), "count"),
        "word_algebra.free_reduce.calls": (fn("word_algebra.free_reduce"), "count"),
        "word_algebra.cyclic_normal_form.calls": (fn("word_algebra.cyclic_normal_form"), "count"),
        "word_algebra.cyclic_normal_form.letters":
            (counter("word_algebra.cyclic_normal_form.letters"), "letters"),
        "word_algebra.self_s": (self_s["word_algebra"], "s"),
        "fuchsian.sample_representation.s": (fn("fuchsian.sample_representation", "s"), "s"),
        "fuchsian.certify.k_scale_index": (counter("fuchsian.certify.k_scale_index"), "count"),
        "fuchsian.ball.calls": (fn("fuchsian.Representation.ball"), "count"),
        "fuchsian.ball.max_bound": (counter("fuchsian.ball.max_bound"), "letters"),
        "fuchsian.ball.words": (counter("fuchsian.ball.words"), "count"),
        "fuchsian.self_s": (self_s["fuchsian"], "s"),
        "sl2.axes_cross.calls": (fn("sl2.axes_cross"), "count"),
        "sl2.degenerate_skips": (skips, "count"),
        "sl2.evaluate.letters": (counter("sl2.evaluate.letters"), "letters"),
        "sl2.self_s": (self_s["sl2"], "s"),
        "intersections.self_intersections.calls": (fn("intersections.self_intersections"), "count"),
        "intersections.self_intersections.s": (fn("intersections.self_intersections", "s"), "s"),
        "intersections.mutual_intersections.calls":
            (fn("intersections.mutual_intersections"), "count"),
        "intersections.mutual_intersections.s":
            (fn("intersections.mutual_intersections", "s"), "s"),
        "intersections.coset_key.calls": (coset_calls, "count"),
        "intersections.coset_key.s": (coset_s, "s"),
        "intersections.records": (records, "count"),
        "intersections.key_yield": (records / coset_calls if coset_calls else 0.0, "ratio"),
        "intersections.stabilize.calls": (stabilize_calls, "count"),
        "intersections.stabilize.bounds":
            (enumerations / stabilize_calls if stabilize_calls else 0.0, "ratio"),
        "intersections.self_s": (self_s["intersections"], "s"),
        "trace_poly.trace_polynomial.calls": (fn("trace_poly.trace_polynomial"), "count"),
        "trace_poly.trace_polynomial.s": (fn("trace_poly.trace_polynomial", "s"), "s"),
        "trace_poly.verify_trace_identity.calls": (fn("trace_poly.verify_trace_identity"), "count"),
        "trace_poly.memo_size": (counter("trace_poly.memo_size"), "count"),
        "trace_poly.terms": (counter("trace_poly.terms"), "count"),
        "trace_poly.self_s": (self_s["trace_poly"], "s"),
        "pipeline.simple_candidates.calls": (fn("pipeline.simple_candidates"), "count"),
        "pipeline.simple_candidates.s": (fn("pipeline.simple_candidates", "s"), "s"),
        "pipeline.is_filling.calls": (fn("pipeline.is_filling"), "count"),
        "pipeline.is_filling.s": (fn("pipeline.is_filling", "s"), "s"),
        "pipeline.find_min_N.s": (fn("pipeline.find_min_N", "s"), "s"),
        "pipeline.check_nonconjugate.calls": (fn("pipeline.check_nonconjugate"), "count"),
        "pipeline.check_nonconjugate.s": (fn("pipeline.check_nonconjugate", "s"), "s"),
        "pipeline.check_equal_length_symbolic.s":
            (fn("pipeline.check_equal_length_symbolic", "s"), "s"),
        "pipeline.self_s": (self_s["pipeline"], "s"),
        "bracket.calls": (bracket_calls, "count"),
        "reports.run.s": (fn("reports.run", "s"), "s"),
        "reports.emit.s": (fn("reports.emit", "s"), "s"),
        "cli.report_bytes": (report_bytes, "B"),
    }


def git_sha():
    """Commit of the checkout, read from .git without leaving it."""
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


def run_one(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds)
    metrics = {}
    if trace:
        metrics.update(run.traced())
    else:
        setup = run.setup_times()
        metrics.update(run.timed())
        metrics["setup_s"] = (statistics.median(setup), "s")
    failed = sum(1 for s in run.samples if s.problems)
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "representation_seeds": run.config["seeds"],
        "config": run.config,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": len(run.samples),
        "failed": failed,
        "error_rate": failed / len(run.samples),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": [s.record() for s in run.samples],
    }
    (WORK / (run.prefix + (".traced" if trace else "") + ".result.json")).write_text(
        json.dumps(result, indent=1))
    print("%s seed=%d rep_seeds=%s sha=%s python=%s nproc=%s"
          % (workload.name, seed, run.config["seeds"], result["git_sha"], result["python"],
             result["nproc"]))
    for k, (v, u) in metrics.items():
        print("  %-44s %14s %s" % (k, v if isinstance(v, int) else "%.6g" % v, u))
    print("  %-44s %14.6g (%d failed of %d runs)"
          % ("error_rate", result["error_rate"], failed, len(run.samples)))
    for i, s in enumerate(run.samples):
        for p in s.problems:
            print("  run %d: %s" % (i, p))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lenequiv" / "cli.py").is_file():
        print("no lenequiv source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(WORKLOADS[n], args.seed, args.seconds, args.trace) for n in names]
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (r["workload"] + "." if prefix else "") + k: v
            for r in results for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
