"""Record the benchmark's reference data and check its run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/record.py golden --seeds 0-31
        Runs each workload's sweep once per seed and stores the sha256 of
        its CSV in recorded.json; bench.py rejects a CSV that differs.

    python3 perfbench/record.py spread --runs 10 --trace 0 [--save]
        Runs bench.py once per seed (first-seed, first-seed+1, ...) for
        each workload, one run at a time, and prints every metric's
        median and quartile spread ((q3 - q1) / median) next to its bound
        in BENCHMARK.json.  With --trace 1 it also checks that the exact
        counts repeat across the runs.  --save stores the medians, with
        the machine they were measured on, in recorded.json.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import bench

BENCHMARK = bench.ROOT / "BENCHMARK.json"

# Per-layer metrics that are exact counts: they must repeat bit for bit
# across runs and do not depend on the seed.
EXACT_COUNTS = ("siso.calls", "siso.butterfly_calls_per_call",
                "siso.fold_calls_per_call", "siso.metric_store_bytes",
                "ops.max_star_pairs_per_bit_iter", "ops.llr_reduces_per_bit_iter",
                "ops.muls_per_bit_iter", "ops.adds_per_bit_iter")


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _store(recorded: dict) -> None:
    with open(bench.RECORDED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record_golden(names, seeds) -> None:
    recorded = _load(bench.RECORDED)
    for name in names:
        table = recorded["csv_sha256"].setdefault(name, {})
        for seed in seeds:
            _, csv = bench.sweep(bench.WORKLOADS[name], seed)
            if csv is None:
                raise SystemExit(f"{name} seed {seed}: the sweep failed")
            table[str(seed)] = hashlib.sha256(csv).hexdigest()
            print(f"{name} seed={seed} {table[str(seed)]}", flush=True)
        recorded["csv_sha256"][name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        _store(recorded)


def _cache_sizes() -> dict:
    """Data and unified cache sizes seen by CPU 0, by level (L3 is shared)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "caches_of_cpu0": _cache_sizes(),
            "python": platform.python_version(),
            "numpy": bench.np.__version__,
            "rule": "numbers from a 2-core box: compare ratios between commits "
                    "measured on one machine, not absolute values"}


def run_once(command: list, name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run, launched exactly as BENCHMARK.json's command launches it."""
    done = subprocess.run(
        command + ["--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} seed {seed}: incorrect result\n{done.stderr}")
    return result


def spread(names, runs, first_seed, seconds, trace, save) -> None:
    config = _load(BENCHMARK)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    recorded = _load(bench.RECORDED)
    key = "per_layer" if trace else "end_to_end"
    for name in names:
        values, units = {}, {}
        for seed in range(first_seed, first_seed + runs):
            result = run_once(config["command"], name, seed, seconds, trace)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if k in bounds or k in EXACT_COUNTS or k == "trace.overhead_frac"),
                flush=True)
        summary = {}
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3
            width = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = "" if bound is None else (
                " ok" if width < bound / 3 else " WIDE" if width < bound else " OVER BOUND")
            if metric in bounds:
                print(f"  {metric:<30} median={med:.6g} {units[metric]} spread={width:.4f}"
                      f" bound={bound}{flag}")
            summary[metric] = {"median": med, "q1": q1, "q3": q3}
        if trace:
            unsteady = [m for m in EXACT_COUNTS if len(set(values[m])) != 1]
            print(f"  exact counts repeat across {runs} runs: "
                  f"{'yes' if not unsteady else 'NO: ' + ', '.join(unsteady)}")
        if save:
            entry = recorded.setdefault("seed_commit", {}).setdefault(name, {})
            entry[key] = {"runs": runs, "seeds": f"{first_seed}-{first_seed + runs - 1}",
                          "seconds": seconds, "metrics": summary}
            recorded["machine"] = machine()
            _store(recorded)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    golden = sub.add_parser("golden", help="store CSV hashes for a seed range")
    golden.add_argument("--seeds", required=True, help="first-last, e.g. 0-31")
    sp = sub.add_parser("spread", help="run every workload over several seeds")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--seconds", type=float, default=_load(BENCHMARK)["run_seconds"])
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("--save", action="store_true")
    for p in (golden, sp):
        p.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                       help="repeatable; default all")
    args = parser.parse_args(argv)
    names = args.workload or list(bench.WORKLOADS)
    if args.command == "golden":
        record_golden(names, _seed_range(args.seeds))
    else:
        spread(names, args.runs, args.first_seed, args.seconds, args.trace, args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
