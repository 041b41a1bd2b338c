"""Benchmark of lteturbo: `turbosim ber` sweep points, end to end and per layer.

Run from the root of a checkout (no build step; the sources under src/
are imported directly):

    python3 perfbench/bench.py --workload short-n40 --seed 1 --seconds 20 --trace 0

Each workload is one `turbosim ber` sweep point, driven through the
public lteturbo.cli.main in this process and repeated with the same seed
until --seconds have passed.  Every sweep's CSV is checked, a sample of
its blocks is rebuilt and decoded again one block at a time, and the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of untraced
sweeps; --trace 1 adds one traced sweep and one counting sweep and
reports the per-layer metrics.  README.md has the workload -> layer ->
metric map.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "lteturbo" / "__init__.py").is_file():
    sys.exit(f"perfbench: no lteturbo sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lteturbo  # noqa: E402
from lteturbo import cli, siso, sim, turbo  # noqa: E402

import spans  # noqa: E402

if Path(lteturbo.__file__).resolve().parent != SRC / "lteturbo":
    sys.exit(f"perfbench: imported lteturbo from {lteturbo.__file__}, not {SRC}")

RECORDED = Path(__file__).with_name("recorded.json")
SETUP_LAUNCHES = 11
SPEEDUP_PAIRS = 3


@dataclass(frozen=True)
class Workload:
    """One `turbosim ber` sweep point."""
    n: int
    alg: str
    iters: int
    snr_db: float
    blocks: int
    threads: int
    sample: int          # blocks the sample check decodes again one at a time
    window_len: int | None = None
    acq_len: int = 32
    quant: tuple[int, int] | None = None

    def argv(self, seed: int) -> list[str]:
        args = ["ber", "--n", str(self.n), "--alg", self.alg,
                "--iters", str(self.iters), "--snr-db", repr(self.snr_db),
                "--blocks", str(self.blocks), "--seed", str(seed),
                "--threads", str(self.threads), "--acq-len", str(self.acq_len)]
        if self.window_len is not None:
            args += ["--window-len", str(self.window_len)]
        if self.quant is not None:
            args += ["--quant", f"{self.quant[0]}:{self.quant[1]}"]
        return args

    def spec(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def info_bits(self) -> int:
        return self.blocks * self.n


def decoder_config(spec: dict):
    """The DecoderConfig of a Workload.spec(), built with the public API."""
    return lteturbo.DecoderConfig(
        mode=lteturbo.MaxStarMode.from_name(spec["alg"]),
        iterations=spec["iters"], qpp=lteturbo.params_for_block_size(spec["n"]),
        window_len=spec["window_len"], acquisition_len=spec["acq_len"],
        quantization=None if spec["quant"] is None else tuple(spec["quant"]))


# Why each workload exists is in README.md.  Block counts are whole
# batches of run_monte_carlo's default batch size (256 for n=1024, 42
# for n=6144) and, for n=40, eight 256-block chunks of the thread pool.
WORKLOADS = {
    "short-n40": Workload(n=40, alg="max-log", iters=8, snr_db=2.0,
                          blocks=2048, threads=2, sample=16),
    "waterfall-n1024": Workload(n=1024, alg="log-map", iters=8, snr_db=1.0,
                                blocks=256, threads=1, sample=2),
    "long-n6144-win": Workload(n=6144, alg="linear", iters=4, snr_db=0.7,
                               blocks=42, threads=1, sample=1, window_len=64,
                               acq_len=32, quant=(6, 2)),
}

END_TO_END = {"info_mbps": "Mbit/s", "decode_mbps_iter": "Mbit/s",
              "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "sim.pool_s": "s", "sim.mc_busy_s": "s", "sim.mc_wall_s": "s",
    "sim.speedup_2w": "x", "turbo.generate_s": "s", "channel.rng_s": "s",
    "channel.demap_s": "s", "trellis.encode_s": "s", "turbo.decode_s": "s",
    "turbo.exchange_s": "s", "siso.s": "s", "siso.self_s": "s",
    "siso.branch_s": "s", "maxstar.butterfly_s": "s", "maxstar.fold_s": "s",
    "maxstar.butterfly_ns_per_pair": "ns", "maxstar.fold_ns_per_reduce": "ns",
    "siso.calls": "count", "siso.butterfly_calls_per_call": "count",
    "siso.fold_calls_per_call": "count", "siso.metric_store_bytes": "B",
    "ops.max_star_pairs_per_bit_iter": "count",
    "ops.llr_reduces_per_bit_iter": "count", "ops.muls_per_bit_iter": "count",
    "ops.adds_per_bit_iter": "count", "turbo.useful_iter_frac": "1",
    "trace.overhead_frac": "1",
}

# The module-level names the traced pass wraps.  Wrapping works because
# each caller looks the name up in its own module at call time: cli ->
# sim.run_ber_point -> sim.run_monte_carlo -> turbo.* -> siso.*.
TRACE_TARGETS = [
    (sim, "run_ber_point"), (sim, "run_monte_carlo"),
    (turbo, "block_rng"), (turbo, "turbo_encode"), (turbo, "bpsk_modulate"),
    (turbo, "serialize_codeword"), (turbo, "llr_demap"), (turbo, "split_llrs"),
    (turbo, "turbo_decode"), (turbo, "siso_decode"),
    (siso, "compute_branch_metrics"), (siso, "max_star"),
    (siso, "max_star_reduce"),
]

CSV_COLUMNS = ("snr_db", "mode", "iterations", "blocks", "info_bits",
               "bit_errors", "block_errors", "ber", "fer", "adds", "subs",
               "muls", "max_star_pairs", "llr_reduces", "stream_reads",
               "stream_writes")
OPS_COLUMNS = CSV_COLUMNS[9:]
STREAMS = ("lu", "parity1", "parity2", "tail1_info", "tail1_parity",
           "tail2_info", "tail2_parity")


# ---------------------------------------------------------------------------
# running sweeps

def sweep(wl: Workload, seed: int) -> tuple[float, bytes | None]:
    """Run one sweep point; returns (wall seconds, CSV bytes or None).

    None means the run raised or exited non-zero; the reason goes to
    stderr.
    """
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(wl.argv(seed))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = "an exception"
    wall = time.perf_counter() - start
    if code != 0:
        print(f"perfbench: turbosim ber ended with {code}", file=sys.stderr)
        return wall, None
    return wall, out.getvalue().encode()


class DecodeTimer:
    """Wraps turbo.turbo_decode: busy seconds per sweep, optional capture.

    While capturing, it keeps each call's channel LLRs and final LLRs so
    the sample check can compare single-block decodes with the batch the
    sweep really decoded.
    """

    def __init__(self):
        self.busy_s = 0.0
        self.capturing = False
        self.captured = []
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        def timed_decode(ch, *args, **kwargs):
            start = time.perf_counter()
            result = fn(ch, *args, **kwargs)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.busy_s += elapsed
                if self.capturing:
                    self.captured.append((ch, result.final_llrs))
            return result
        return timed_decode


@dataclass
class Point:
    wall_s: float
    decode_s: float      # time inside turbo_decode, summed over threads
    csv: bytes | None
    peak_rss_mib: float  # process peak RSS when this sweep ended


def timed_points(wl: Workload, seed: int, seconds: float,
                 sample_channels: dict) -> tuple[list[Point], dict]:
    """Repeat the sweep for about `seconds` (at least once).

    Returns the points and, for each sample block index, the final LLR
    row the first sweep produced for it (None when no decoded row carried
    that block's channel LLRs).
    """
    timer = DecodeTimer()
    points = []
    rows = {}
    with spans.patched([(turbo, "turbo_decode")], timer.wrap):
        start = time.perf_counter()
        # stop when one more sweep of average length would end past `seconds`
        while not points or (time.perf_counter() - start) * (1 + 1 / len(points)) <= seconds:
            timer.busy_s = 0.0
            timer.capturing = not points
            wall, csv = sweep(wl, seed)
            points.append(Point(wall, timer.busy_s, csv, peak_rss_mib()))
            if timer.capturing:
                timer.capturing = False
                rows = {b: find_row(timer.captured, ch)
                        for b, ch in sample_channels.items()}
                timer.captured.clear()
    return points, rows


# ---------------------------------------------------------------------------
# correctness

def rebuild_block(wl: Workload, config, seed: int, index: int):
    """Channel LLRs of block `index`, from the public per-block recipe.

    Block b draws its n information bits and then 3n+12 Gaussians from
    block_rng(seed, b); see the lteturbo.channel docstring.
    """
    sigma2 = lteturbo.ChannelConfig.for_block_size(wl.n, wl.snr_db).noise_variance
    rng = lteturbo.block_rng(seed, index)
    bits = rng.integers(0, 2, wl.n, dtype=np.uint8)
    noise = rng.standard_normal(3 * wl.n + 12)
    symbols = lteturbo.bpsk_modulate(lteturbo.serialize_codeword(
        lteturbo.turbo_encode(bits, config.qpp)))
    return lteturbo.split_llrs(
        lteturbo.llr_demap(symbols + np.sqrt(sigma2) * noise, sigma2), wl.n)


def _rows(array) -> np.ndarray:
    array = np.asarray(array)
    return array.reshape(-1, array.shape[-1])


def find_row(captured, ch) -> np.ndarray | None:
    """Final LLRs of the captured batch row whose inputs equal ch, bit for bit."""
    for batch_ch, final in captured:
        for r in np.flatnonzero((_rows(batch_ch.lu) == ch.lu).all(axis=1)):
            if all(_rows(getattr(batch_ch, s))[r].tobytes()
                   == getattr(ch, s).tobytes() for s in STREAMS):
                return _rows(final)[r].copy()
    return None


def sample_indices(wl: Workload, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(int(b) for b in rng.choice(wl.blocks, wl.sample, replace=False))


def sample_failures(wl: Workload, config, channels: dict, rows: dict):
    """Decode each sample block alone; compare with its row in the batch.

    Returns (failed block indices, per-block OpCounts as a dict).
    """
    failed = []
    ops = None
    for b, ch in channels.items():
        try:
            single = lteturbo.turbo_decode(ch, config)
        except Exception:
            traceback.print_exc()
            failed.append(b)
            continue
        ops = single.ops.as_dict()
        if rows.get(b) is None:
            print(f"perfbench: sample block {b} was not among the decoded "
                  "batches (generation differs)", file=sys.stderr)
            failed.append(b)
        elif single.final_llrs.tobytes() != rows[b].tobytes():
            print(f"perfbench: sample block {b} decodes differently alone "
                  "than in its batch", file=sys.stderr)
            failed.append(b)
    return failed, ops


def load_golden(name: str) -> dict:
    """Recorded sha256 of the sweep CSV, by seed, for one workload."""
    with open(RECORDED) as fh:
        return json.load(fh)["csv_sha256"].get(name, {})


def parse_row(csv: bytes) -> dict:
    lines = csv.decode(errors="replace").splitlines()
    return dict(zip(CSV_COLUMNS, lines[-1].split(",")))


def csv_problems(wl: Workload, seed: int, csv: bytes, golden: dict,
                 per_block_ops: dict | None) -> list[str]:
    """Reasons why a sweep CSV is wrong; empty when it is right.

    The CSV must hash to the recorded value when the seed was recorded.
    For any seed it must have the v1 layout and a row whose fields agree
    with the workload and with each other, and whose op counts are the
    per-block counts of a single-block decode times the block count.
    """
    problems = []
    want = golden.get(str(seed))
    if want is not None and hashlib.sha256(csv).hexdigest() != want:
        problems.append(f"sha256 differs from the recorded one for seed {seed}")
    lines = csv.decode(errors="replace").splitlines()
    if (len(lines) != 5 or lines[:2] != ["# turbosim ber v1", f"# seed={seed}"]
            or not lines[2].startswith("# config=")
            or lines[3] != ",".join(CSV_COLUMNS)):
        return problems + ["not a one-row turbosim ber v1 CSV"]
    row = parse_row(csv)
    expect = {"snr_db": repr(wl.snr_db), "mode": wl.alg,
              "iterations": str(wl.iters), "blocks": str(wl.blocks),
              "info_bits": str(wl.info_bits)}
    if per_block_ops is not None:
        expect.update({c: str(per_block_ops[c] * wl.blocks) for c in OPS_COLUMNS})
    problems += [f"{k}={row.get(k)!r}, expected {v!r}"
                 for k, v in expect.items() if row.get(k) != v]
    try:
        bit_errors, block_errors = int(row["bit_errors"]), int(row["block_errors"])
    except (KeyError, ValueError):
        return problems + ["error counts are not integers"]
    if not (0 <= block_errors <= wl.blocks and block_errors <= bit_errors
            <= wl.info_bits and (bit_errors == 0) == (block_errors == 0)):
        problems.append(f"inconsistent error counts {bit_errors}, {block_errors}")
    if row["ber"] != repr(bit_errors / wl.info_bits):
        problems.append(f"ber={row['ber']!r} does not match the counts")
    if row["fer"] != repr(block_errors / wl.blocks):
        problems.append(f"fer={row['fer']!r} does not match the counts")
    return problems


@dataclass
class Tally:
    """Blocks attempted and failed, with the reasons for failures."""
    attempted: int = 0
    failed: int = 0

    def add(self, blocks: int, problems) -> None:
        self.attempted += blocks
        if problems:
            self.failed += blocks
            for p in problems:
                print(f"perfbench: {p}", file=sys.stderr)


def check_points(wl, seed, points, golden, per_block_ops, tally) -> bytes | None:
    """Check every sweep CSV; all must be byte-identical.  Returns the first."""
    first = points[0].csv
    for p in points:
        if p.csv is None:
            tally.add(wl.blocks, ["the sweep did not complete"])
            continue
        problems = csv_problems(wl, seed, p.csv, golden, per_block_ops)
        if p.csv != first:
            problems.append("CSV differs from the first sweep of this run")
        tally.add(wl.blocks, problems)
    return first


# ---------------------------------------------------------------------------
# end-to-end measurements

_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lteturbo
spec = json.loads(sys.argv[2])
lteturbo.DecoderConfig(
    mode=lteturbo.MaxStarMode.from_name(spec["alg"]),
    iterations=spec["iters"], qpp=lteturbo.params_for_block_size(spec["n"]),
    window_len=spec["window_len"], acquisition_len=spec["acq_len"],
    quantization=None if spec["quant"] is None else tuple(spec["quant"]))
print(time.perf_counter() - start)
"""


def setup_seconds(wl: Workload) -> float:
    """Median time a fresh interpreter takes to import lteturbo and build
    the workload's DecoderConfig (QPP validation, trellis tables)."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), json.dumps(wl.spec())],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer measurements

def traced_sweep(wl: Workload, seed: int):
    """One sweep with every TRACE_TARGETS name wrapped in a span.

    Returns (wall seconds, CSV, LayerTimes, forward-metric bytes).
    """
    tracer = spans.SpanTracer(TRACE_TARGETS)
    with lteturbo.track_metric_allocations() as allocs, tracer.active():
        wall, csv = sweep(wl, seed)
    return wall, csv, spans.analyse(tracer.spans), sum(m.data.nbytes for m in allocs)


class UsefulIterations:
    """Count-pass override of turbo_decode: decode with per-iteration LLRs
    and count, per block, the iterations up to the last change in hard
    decisions (at least 1)."""

    def __init__(self):
        self.useful = 0
        self.run = 0
        self._lock = threading.Lock()

    def wrap(self, fn):
        def decode(ch, config, trace_iterations=False, **kwargs):
            result = fn(ch, config, True, **kwargs)
            hard = np.stack([llrs < 0 for llrs in result.per_iteration_llrs])
            hard = hard.reshape(hard.shape[0], -1, hard.shape[-1])
            changed = (hard[1:] != hard[:-1]).any(axis=-1)       # (iters-1, blocks)
            index = np.arange(2, hard.shape[0] + 1)[:, None]
            last = np.maximum(1, (changed * index).max(axis=0, initial=0))
            with self._lock:
                self.useful += int(last.sum())
                self.run += hard.shape[0] * hard.shape[1]
            if not trace_iterations:
                result.per_iteration_llrs = None
            return result
        return decode


def count_sweep(wl: Workload, seed: int):
    """The untimed count pass: call counts, metric bytes, useful iterations.

    Returns (CSV, calls by name, forward-metric bytes, UsefulIterations).
    """
    useful = UsefulIterations()
    counter = spans.CallCounter(TRACE_TARGETS,
                                overrides={"turbo.turbo_decode": useful.wrap})
    with lteturbo.track_metric_allocations() as allocs, counter.active():
        _, csv = sweep(wl, seed)
    return csv, dict(counter.calls), sum(m.data.nbytes for m in allocs), useful


def thread_speedup(seed: int, tally: Tally) -> float:
    """short-n40 wall time at 1 thread over that at 2 threads (medians of
    SPEEDUP_PAIRS alternating pairs).  Every CSV must be identical."""
    base = WORKLOADS["short-n40"]
    walls = {1: [], 2: []}
    csvs = []
    for i in range(SPEEDUP_PAIRS):
        for threads in ((1, 2) if i % 2 == 0 else (2, 1)):
            wall, csv = sweep(dataclasses.replace(base, threads=threads), seed)
            walls[threads].append(wall)
            csvs.append(csv)
    tally.add(base.blocks * len(csvs),
              [] if None not in csvs and len(set(csvs)) == 1
              else ["short-n40 CSV depends on the thread count"])
    return statistics.median(walls[1]) / statistics.median(walls[2])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl: Workload, layers: spans.LayerTimes, row: dict,
                  store_bytes: int, useful: UsefulIterations) -> dict:
    busy = lambda *names: sum(layers.busy.get(n, 0.0) for n in names)  # noqa: E731
    own = lambda name: layers.self_time.get(name, 0.0)  # noqa: E731
    calls = layers.calls.get
    siso_calls = calls("turbo.siso_decode", 0)
    bit_iters = wl.info_bits * wl.iters
    return {
        "sim.pool_s": own("sim.run_ber_point"),
        "sim.mc_busy_s": busy("sim.run_monte_carlo"),
        "sim.mc_wall_s": layers.wall.get("sim.run_monte_carlo", 0.0),
        "turbo.generate_s": own("sim.run_monte_carlo"),
        "channel.rng_s": busy("turbo.block_rng"),
        "channel.demap_s": busy("turbo.bpsk_modulate", "turbo.serialize_codeword",
                                "turbo.llr_demap", "turbo.split_llrs"),
        "trellis.encode_s": busy("turbo.turbo_encode"),
        "turbo.decode_s": busy("turbo.turbo_decode"),
        "turbo.exchange_s": own("turbo.turbo_decode"),
        "siso.s": busy("turbo.siso_decode"),
        "siso.self_s": own("turbo.siso_decode"),
        "siso.branch_s": busy("siso.compute_branch_metrics"),
        "maxstar.butterfly_s": busy("siso.max_star"),
        "maxstar.fold_s": busy("siso.max_star_reduce"),
        "maxstar.butterfly_ns_per_pair": _ratio(
            busy("siso.max_star") * 1e9, int(row["max_star_pairs"])),
        "maxstar.fold_ns_per_reduce": _ratio(
            busy("siso.max_star_reduce") * 1e9, int(row["llr_reduces"])),
        "siso.calls": siso_calls,
        "siso.butterfly_calls_per_call": _ratio(calls("siso.max_star", 0), siso_calls),
        "siso.fold_calls_per_call": _ratio(calls("siso.max_star_reduce", 0), siso_calls),
        "siso.metric_store_bytes": _ratio(store_bytes, siso_calls),
        "ops.max_star_pairs_per_bit_iter": int(row["max_star_pairs"]) / bit_iters,
        "ops.llr_reduces_per_bit_iter": int(row["llr_reduces"]) / bit_iters,
        "ops.muls_per_bit_iter": int(row["muls"]) / bit_iters,
        "ops.adds_per_bit_iter": int(row["adds"]) / bit_iters,
        "turbo.useful_iter_frac": _ratio(useful.useful, useful.run),
    }


def per_layer(wl: Workload, seed: int, points: list[Point], reference: bytes | None,
              tally: Tally) -> dict:
    """The traced sweep, the counting sweep and the thread comparison.

    Both sweeps' CSVs must equal the untraced reference, and their call
    counts and forward-metric bytes must equal each other.
    """
    wall, csv, layers, store_bytes = traced_sweep(wl, seed)
    count_csv, counted, count_bytes, useful = count_sweep(wl, seed)
    mismatch = []
    if reference is None or csv != reference or count_csv != reference:
        mismatch.append("traced or counted sweep CSV differs from the untraced one")
    if counted != layers.calls or count_bytes != store_bytes:
        mismatch.append(f"exact counts differ between the traced and the "
                        f"counting sweep: {layers.calls} vs {counted}, "
                        f"{store_bytes} vs {count_bytes} metric bytes")
    tally.add(2 * wl.blocks, mismatch)
    values = (layer_metrics(wl, layers, parse_row(reference), store_bytes, useful)
              if reference else {})
    values["sim.speedup_2w"] = thread_speedup(seed, tally)
    values["trace.overhead_frac"] = wall / statistics.median(p.wall_s for p in points) - 1.0
    return values


# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed last."""
    wl = WORKLOADS[name]
    config = decoder_config(wl.spec())
    golden = load_golden(name)
    tally = Tally()

    channels = {b: rebuild_block(wl, config, seed, b) for b in sample_indices(wl, seed)}
    points, rows = timed_points(wl, seed, seconds, channels)

    failed_samples, per_block_ops = sample_failures(wl, config, channels, rows)
    tally.attempted += len(channels)
    tally.failed += len(failed_samples)
    reference = check_points(wl, seed, points, golden, per_block_ops, tally)

    if not trace:
        bits = wl.info_bits
        values = {
            "info_mbps": statistics.median(bits / p.wall_s / 1e6 for p in points),
            "decode_mbps_iter": statistics.median(
                _ratio(bits * wl.iters, p.decode_s) / 1e6 for p in points),
            "setup_s": setup_seconds(wl),
            # after the first sweep, as a one-point `turbosim ber` process
            # sees it; later sweeps add allocator growth that depends on
            # how many sweeps fit in --seconds
            "peak_rss_mb": points[0].peak_rss_mib,
        }
        units = END_TO_END
    else:
        values = per_layer(wl, seed, points, reference, tally)
        units = PER_LAYER

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items() if k in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.6g}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
