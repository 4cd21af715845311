#!/usr/bin/env python3
"""Campaign benchmark of the LoopFrog reproduction.

Times the real `lf-bench run --all` campaign the way a user waits for it,
checks every campaign's output byte for byte against the committed
references, and (with `--trace 1`) breaks the cost down by layer from the
engine's own spans plus the per-layer probes in `perfbench/harness`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds `lf-bench` and the
probe harness with cargo (into `$CARGO_TARGET_DIR`, default `target/`),
runs every campaign in a throwaway directory under `.bench_work/`, and
prints one JSON object as the last line of its standard output. See
`perfbench/README.md` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"

# Registry (render) order of the scenarios `run --all` prints.
SCENARIOS = [
    "fig1_width_sweep", "fig6_speedups", "fig7_utilization", "fig8_ipc_breakdown",
    "fig9_ssb_size", "fig10_granule", "table2_categories", "table3_comparison",
    "assoc_sensitivity", "bloom_ablation", "dynamic_deselect", "packing_ablation",
    "generality", "area_power", "simpoint_check", "simpoint_sampled",
]
JOBS = 2
# Kernels a warm-up campaign is narrowed to, picked by seed.
WARMUP_KERNELS = ["stencil_blur", "md_force", "compress_rle", "hash_lookup", "graph_relax",
                  "event_queue"]
# Extra campaigns that re-run a cold workload against its now-filled cache:
# set-up (plan, prepare, dedupe) does the same work either way, so each one
# adds a `setup_s` sample to the median.
SETUP_RESAMPLES = 2
# A run must end within 180 s of its build finishing.
RUN_BUDGET_S = 170.0

WORKLOADS = {
    "cold_smoke": {"scale": "smoke", "tier": "detailed", "cached": False},
    "cached_smoke": {"scale": "smoke", "tier": "detailed", "cached": True},
    "sampled_eval": {"scale": "eval", "tier": "sampled", "cached": False},
}

PLANNER_LINE = re.compile(
    r"planner: (\d+) requests → (\d+) unique \(\d+ deduplicated\); (\d+) from cache, (\d+) simulated")
SECTION = re.compile(r"(?:^|\n)━━━ (\S+) ━━━\n\n")


class BenchError(Exception):
    """The benchmark cannot produce a result (broken checkout, build, or run)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def split_sections(text):
    """Campaign stdout → {scenario: rendered text}, or None if unframed."""
    parts = SECTION.split(text)
    if parts[0] != "":
        return None
    return dict(zip(parts[1::2], parts[2::2]))


def reference_outputs(workload):
    """The committed per-scenario outputs a workload's campaigns must print."""
    if WORKLOADS[workload]["scale"] == "smoke":
        return {s: (ROOT / "results" / f"{s}.txt").read_text() for s in SCENARIOS}
    refs = split_sections((BENCH_DIR / "reference" / f"{workload}.txt").read_text())
    if refs is None or list(refs) != SCENARIOS:
        raise BenchError(f"reference output for {workload} is malformed")
    return refs


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return (Path.cwd() / configured).resolve() if configured else ROOT / "target"


def build():
    """Builds `lf-bench` and the probe harness; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "lf-bench"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 str(BENCH_DIR / "harness" / "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            raise BenchError(f"`{' '.join(cmd)}` failed:\n{r.stdout[-4000:]}")
    release = target_dir() / "release"
    return release / "lf-bench", release / "perfbench-harness"


def tree_snapshot():
    """(size, mtime) of every source file, for the hermeticity check."""
    skip = {ROOT / d for d in (".git", ".bench_build", ".bench_work", "target")}
    skip.add(target_dir())
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if Path(dirpath, d) not in skip]
        for f in filenames:
            st = os.stat(os.path.join(dirpath, f))
            snap[os.path.relpath(os.path.join(dirpath, f), ROOT)] = (st.st_size, st.st_mtime_ns)
    return snap


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Runner:
    """Launches campaigns in throwaway directories and gates their output."""

    def __init__(self, lf_bench, workload, work, deadline):
        self.lf_bench = lf_bench
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.work = work
        self.deadline = deadline
        self.references = reference_outputs(workload)
        # The cached workload's cache, filled once during set-up.
        self.shared_cache = work / "cache"
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def fresh_cache(self):
        self.count += 1
        return self.work / f"cache-{self.count}"

    def campaign_cache(self):
        """An empty cache for a cold campaign, the filled one for a cached."""
        return self.shared_cache if self.spec["cached"] else self.fresh_cache()

    def campaign(self, cache_dir, trace=True, kernel_filter=None, gate=True):
        """Runs one `lf-bench run --all` campaign; returns its record."""
        self.count += 1
        cwd = self.work / f"campaign-{self.count}"
        cwd.mkdir(parents=True)
        cmd = [str(self.lf_bench), "run", "--all", "--scale", self.spec["scale"],
               "--tier", self.spec["tier"], "-j", str(JOBS), "--cache-dir", str(cache_dir)]
        if kernel_filter:
            cmd += ["--filter", kernel_filter]
        if trace:
            cmd += ["--trace-out", "trace.json"]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (cwd / "stderr.txt").read_text(errors="replace")
        if proc.returncode != 0:
            raise BenchError(f"campaign exited {proc.returncode}: {' '.join(cmd)}\n{stderr[-2000:]}")
        rec = {"wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "cache_mb": dir_bytes(cache_dir) / 1e6, "cwd": cwd, "cache_dir": cache_dir}
        m = PLANNER_LINE.search(stderr)
        rec["counts"] = tuple(int(x) for x in m.groups()) if m else None
        if trace:
            rec["spans"] = json.loads((cwd / "trace.json").read_text())["traceEvents"]
        if gate:
            self.gate(rec)
        return rec

    def gate(self, rec):
        """Correctness: every scenario's output matches its reference and
        `failures.json` is empty. Each unique run and each scenario render
        is one attempted operation."""
        failures = json.loads((rec["cwd"] / "results" / "failures.json").read_text())["failures"]
        sections = split_sections((rec["cwd"] / "stdout.txt").read_text()) or {}
        bad = [s for s in SCENARIOS if sections.get(s) != self.references[s]]
        unique = rec["counts"][1] if rec["counts"] else 0
        self.attempted += unique + len(SCENARIOS)
        self.failed += len(failures) + len(bad) + (rec["counts"] is None)
        for s in bad:
            log(f"{self.workload}: scenario {s} differs from its reference ({rec['cwd']})")
        for f in failures:
            log(f"{self.workload}: failed run {f}")


def phase_spans(spans):
    return {e["name"]: e for e in spans if e["cat"] == "phase"}


def setup_s(rec):
    """Launch → first cache probe: the start of the `cache` phase span."""
    return phase_spans(rec["spans"])["cache"]["ts"] / 1e6


def percentile(sorted_us, p):
    # Same rule as the engine's own `DurationSummary`.
    return sorted_us[round((len(sorted_us) - 1) * p)] if sorted_us else 0


def engine_metrics(rec):
    """Per-layer engine costs of one traced campaign, from its spans."""
    phases = phase_spans(rec["spans"])
    ms = {name: phases[name]["dur"] / 1e3 for name in
          ("plan", "prepare", "cache", "simulate", "render")}
    end = lambda name: phases[name]["ts"] + phases[name]["dur"]
    ms["dedupe"] = (phases["cache"]["ts"] - end("prepare")) / 1e3
    ms["store"] = (phases["render"]["ts"] - end("simulate")) / 1e3
    wall_ms = rec["wall_s"] * 1e3
    covered = sum(ms.values())
    out = {f"engine.{k}_ms": v for k, v in ms.items()}
    out["engine.untraced_ms"] = wall_ms - covered
    out["engine.covered_frac"] = covered / wall_ms
    runs = sorted(e["dur"] for e in rec["spans"] if e["cat"] == "run")
    out["engine.run_p50_ms"] = percentile(runs, 0.5) / 1e3
    out["engine.run_p90_ms"] = percentile(runs, 0.9) / 1e3
    out["engine.run_max_ms"] = (runs[-1] if runs else 0) / 1e3
    busy = JOBS * phases["simulate"]["dur"]
    out["engine.pool_busy_frac"] = sum(runs) / busy if runs and busy else 0.0
    for e in rec["spans"]:
        if e["cat"] == "render":
            out[f"engine.render.{e['name']}_ms"] = e["dur"] / 1e3
    _, unique, hits, simulated = rec["counts"] or (0, 0, 0, 0)
    out["engine.unique_runs"] = float(unique)
    out["engine.simulated_runs"] = float(simulated)
    out["engine.cache_hits"] = float(hits)
    return out


def median_of(records, key):
    return statistics.median(key(r) for r in records)


def measure(runner, seconds, paired=False):
    """Campaigns, back to back, until `seconds` have passed (at least one).

    Cold workloads give each campaign an empty cache; the cached workload
    chains campaigns against the cache filled during set-up. With `paired`,
    each campaign is followed by a twin without span export, the baseline of
    the tracing overhead; adjacent twins see the same host load."""
    traced, plain = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        traced.append(runner.campaign(runner.campaign_cache()))
        if paired:
            plain.append(runner.campaign(runner.campaign_cache(), trace=False))
    return traced, plain


def fill_cache(runner):
    """Set-up of the cached workload (untimed): copies a filled run cache
    into the run's own cache directory.

    The fill is one gated cold campaign, made once per `lf-bench` build and
    kept under `.bench_work/` for the later runs in the same checkout."""
    digest = hashlib.sha256(runner.lf_bench.read_bytes()).hexdigest()[:16]
    fill = WORK_ROOT / f"fill-{digest}"
    if not fill.is_dir():
        for stale in WORK_ROOT.glob("fill-*"):
            shutil.rmtree(stale, ignore_errors=True)
        made = runner.fresh_cache()
        runner.campaign(made, trace=False)
        if runner.failed:
            fill = made  # a fill that failed its gate is never kept
        else:
            made.rename(fill)
    shutil.copytree(fill, runner.shared_cache)


def run_benchmark(args, lf_bench, harness):
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(lf_bench, args.workload, work, deadline)
        spec = runner.spec
        if spec["cached"]:
            fill_cache(runner)
        # Warm-up: one discarded campaign. The cold workloads narrow it to
        # one seed-picked kernel; it warms the binary, page cache and CPU.
        kernel = None if spec["cached"] else WARMUP_KERNELS[args.seed % len(WARMUP_KERNELS)]
        runner.campaign(runner.campaign_cache(), trace=False, kernel_filter=kernel, gate=False)

        measured, plain = measure(runner, args.seconds, paired=bool(args.trace))
        if not args.trace:
            setups = [setup_s(r) for r in measured]
            if not spec["cached"]:
                for _ in range(SETUP_RESAMPLES):
                    setups.append(setup_s(runner.campaign(measured[-1]["cache_dir"])))
            metrics = {
                "wall_s": median_of(measured, lambda r: r["wall_s"]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": median_of(measured, lambda r: r["peak_rss_mb"]),
                "cache_mb": median_of(measured, lambda r: r["cache_mb"]),
            }
            return runner, metrics, True

        per_campaign = [engine_metrics(r) for r in measured]
        values = {k: statistics.median(m[k] for m in per_campaign) for k in per_campaign[0]}
        values["engine.trace_overhead_ms"] = 1e3 * statistics.median(
            t["wall_s"] - p["wall_s"] for t, p in zip(measured, plain))
        try:
            probe = subprocess.run(
                [str(harness), "--scale", spec["scale"], "--tier", spec["tier"],
                 "--cache-dir", str(measured[-1]["cache_dir"]), "--work", str(work / "probes"),
                 "--seed", str(args.seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("run budget exhausted in the harness") from None
        if probe.returncode != 0:
            raise BenchError(f"harness failed:\n{probe.stderr[-2000:]}")
        doc = json.loads(probe.stdout)
        values.update(doc["metrics"])
        checks = doc["checks"]
        continuity = checks["basket_continuity"]
        if not continuity:
            log(f"frozen basket simulated {checks['basket_cycles']} cycles / "
                f"{checks['basket_insts']} insts; expected 252485 / 158564")
        return runner, values, continuity
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def declared_metrics(section):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        for needed in ("Cargo.toml", "crates/bench", "results", "BENCHMARK.json"):
            if not (ROOT / needed).exists():
                raise BenchError(f"not a source checkout: {needed} is missing under {ROOT}")
        lf_bench, harness = build()
        before = tree_snapshot()
        runner, metrics, ok = run_benchmark(args, lf_bench, harness)
        changed = sorted({path for path, _ in set(before.items()) ^ set(tree_snapshot().items())})
        for path in changed:
            log(f"the run changed the source tree: {path}")
        units = {m["name"]: m["unit"]
                 for m in declared_metrics("per_layer" if args.trace else "end_to_end")}
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as e:
        log(str(e))
        sys.exit(2)
    result = {
        "correct": ok and runner.failed == 0 and not changed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
