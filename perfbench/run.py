"""Benchmark of flowunfold: training throughput, single-image latency and
batched evaluation, end to end, plus a traced run for per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-deblur-64 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process
    python3 perfbench/run.py --self-check            # every workload, shortened

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer totals of one traced pass, beside the wall time of the
same pass untraced.  perfbench/README.md describes the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

def import_program():
    """flowunfold from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flowunfold
        import flowunfold.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import flowunfold from {src}: {exc}")
    if Path(flowunfold.__file__).resolve().parent != src / "flowunfold":
        sys.exit(f"perfbench: flowunfold imported from {flowunfold.__file__}, not {src}")
    return flowunfold


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    blas = next((line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                 if "openblas" in line.lower()), None)
    if blas is not None:
        lib = ctypes.CDLL(blas)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    env["blas"] = config().decode().strip()
                    env["blas_threads"] = threads()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    env["cache_per_cpu"] = caches
    return env


# The probe's time per block (probe.py) on the host the reference figures in
# perfbench/README.md come from, in its fast state.
PROBE_REFERENCE_MS = 2.1


class Probe:
    """The host-speed probe, a helper process (probe.py).

    The 2-core host this was built on alternates, for seconds to minutes at
    a time, between a fast state and one in which the same code runs about
    1.8 times slower; a whole 45 s run can fall in either.  Timing metrics
    are scaled by PROBE_REFERENCE_MS over the probe's time around the same
    round, so they read as times at the reference speed.  The probe runs in
    a process of its own, started before flowunfold is imported, so a change
    to the program moves only the metric."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ms(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _number(value):
    return value if value is not None and math.isfinite(value) else None


def pick(values: dict, table: list) -> dict:
    """The metrics BENCHMARK.json names in ``table``, with its units."""
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no value for the metrics {missing}")
    return {m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]} for m in table}


def run_workload(cls, fu, spec, probe, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    import numpy as np

    from spans import Tracer
    from workloads import MIN_SINGLE_CALLS, SETUP_REPS, Ops

    ops = Ops()
    work = HERE / "work" / f"{cls.name}-{os.getpid()}"
    try:
        if trace:
            # one set-up and one round per pass; the first pass pays the
            # process's one-time costs, so the untraced pass compared with
            # the traced one is the second
            walls = []
            tracer = Tracer()
            for name in ("warm-up", "untraced", "traced"):
                if name == "traced":
                    tracer.install(fu)
                t0 = time.perf_counter()
                wl = cls(fu, work / name, seed, ops)
                wl.prepare()
                wl.setup_rep()
                wl.finish_setup()
                wl.round()
                walls.append(time.perf_counter() - t0)
                tracer.uninstall()
            wl.check()
            tracer.write_spans(HERE / "out" / f"{cls.name}-seed{seed}.spans.jsonl")
            return {"metrics": pick(per_layer_values(tracer, walls), spec["per_layer"]),
                    "ops": ops}

        wl = cls(fu, work, seed, ops)
        wl.prepare()
        before = time.perf_counter() - _T0
        scale = {}  # group -> reference probe time over the probe times around it

        def timed(group, step):
            wl.group = group
            first = probe.ms()
            t0 = time.perf_counter()
            step()
            dt = time.perf_counter() - t0
            scale[group] = PROBE_REFERENCE_MS / ((first + probe.ms()) / 2)
            return dt

        groups = [-1 - rep for rep in range(1 if quick else SETUP_REPS)]
        reps = {group: timed(group, wl.setup_rep) for group in groups}
        t0 = time.perf_counter()
        wl.finish_setup()
        once = before + time.perf_counter() - t0  # the set-up made once

        start = time.perf_counter()
        for group in itertools.count():
            timed(group, wl.round)
            if (time.perf_counter() - start >= seconds
                    and len(wl.samples["recon_ms"]) >= MIN_SINGLE_CALLS):
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        wl.check()

        def timings(factor) -> dict:
            """The timing metrics, each time measured in group g multiplied by factor(g)."""
            s = wl.samples

            def rate(key):  # median over commands of images per second
                rates = [n / (dt * (1.0 if key in wl.unscaled else factor(g)))
                         for g, n, dt in s[key]]
                return statistics.median(rates) if rates else None

            latencies = [ms * factor(g) for g, ms in s["recon_ms"]]
            return {
                "setup_s": (once * statistics.median(factor(g) for g in groups)
                            + statistics.median(reps[g] * factor(g) for g in groups)),
                "pretrain_images_per_s": rate("pretrain"),
                "finetune_images_per_s": rate("finetune"),
                "recon_b1_ms_p50": float(np.percentile(latencies, 50)),
                "recon_b1_ms_p90": float(np.percentile(latencies, 90)),
                "eval_images_per_s": rate("eval"),
            }

        unscaled = timings(lambda group: 1.0)
        print(f"# {len(wl.samples['recon_ms'])} single calls, {len(wl.samples['pretrain'])} "
              f"pretrain, {len(wl.samples['finetune'])} train and {len(wl.samples['eval'])} "
              f"eval commands; speed scale median {statistics.median(scale.values()):.3f} "
              f"(range {min(scale.values()):.3f}-{max(scale.values()):.3f})")
        print("# unscaled " + json.dumps({k: v if v is None else round(v, 4)
                                          for k, v in unscaled.items()}))
        values = dict(timings(scale.__getitem__), eval_psnr_db=wl.psnr_out,
                      peak_rss_mb=peak_mb)
        return {"metrics": pick(values, spec["end_to_end"]), "ops": ops}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_layer_values(tracer, walls) -> dict:
    """Calls and self time of every installed span (0 for one never called),
    the tracer's counters, and the untraced and traced passes' wall times."""
    totals = tracer.totals()
    values = {"trace.wall_s": walls[2], "trace.untraced_wall_s": walls[1]}
    values.update(tracer.counters)
    for span in tracer.installed:
        values[span + ".calls"] = totals[span]["calls"]
        values[span + ".self_ms"] = totals[span]["self_ms"]
    return values


def run_children(names, args) -> int:
    """Each workload in its own process, one at a time."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def self_check(spec, workload_names) -> int:
    """Run every workload shortened, traced and untraced, and check that
    what it prints names exactly BENCHMARK.json's metrics, with its units."""
    problems = []
    if [w["name"] for w in spec["workloads"]] != workload_names:
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in workload_names:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            label = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: exit {proc.returncode}, no result line\n{proc.stderr}")
                continue
            units = {m["name"]: m["unit"] for m in table}
            got = result.get("metrics", {})
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if set(got) != set(units):
                problems.append(f"{label}: metric names differ: missing "
                                f"{sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}")
            for metric, entry in got.items():
                value = entry.get("value")
                if entry.get("unit") != units.get(metric) or not isinstance(value, (int, float)):
                    problems.append(f"{label}: {metric} = {entry}")
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                problems.append(f"{label}: exit {proc.returncode}, correct {result.get('correct')}, "
                                f"failed {result.get('failed')}\n{proc.stderr}")
            print(f"{label}: {len(got)} metrics, {result.get('attempted')} operations, "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
    for problem in problems:
        print("self-check: " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up repetition (the self-check uses it)")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload shortened and check the printed metrics")
    args = parser.parse_args()
    if args.workload is None and not args.self_check:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # the probe starts before flowunfold is imported, so nothing the program
    # does to its own process reaches it
    single = not args.self_check and args.workload != "all"
    probe = Probe() if single and args.trace == 0 else None
    try:
        fu = import_program()
        from workloads import WORKLOADS

        if args.self_check:
            return self_check(spec, list(WORKLOADS))
        if args.workload == "all":
            return run_children(list(WORKLOADS), args)
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")

        print("# env " + json.dumps(environment()), flush=True)
        outcome = run_workload(WORKLOADS[args.workload], fu, spec, probe, args.seed,
                               args.seconds, bool(args.trace), args.quick)
    finally:
        if probe is not None:
            probe.close()
    ops = outcome["ops"]
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
