"""Sweep driver: reproducible BER measurements and throughput reports.

Each SNR point of a sweep is one run_monte_carlo call in the calling
thread.  Every block draws from its own (seed, block-index) RNG stream,
so the BER CSV is byte-identical for a fixed seed.  Wall-clock timing is
kept out of the deterministic CSV; the benchmark report is the place for
timings.
"""

import hashlib
from dataclasses import fields, replace

from .maxstar import CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T
from .siso import OpCounts
from .turbo import DecoderConfig, McResult, run_monte_carlo


def run_ber_point(config: DecoderConfig, snr_db: float, num_blocks: int,
                  seed: int) -> McResult:
    """Decode num_blocks blocks at one SNR."""
    return run_monte_carlo(config, snr_db, num_blocks, seed)


# Deterministic CSV schema of the `ber` subcommand.  Timing columns are
# deliberately absent: rows must be byte-identical across runs for a
# fixed seed.
BER_CSV_COLUMNS = ("snr_db", "mode", "iterations", "blocks", "info_bits",
                   "bit_errors", "block_errors", "ber", "fer",
                   *(f.name for f in fields(OpCounts)))


def config_digest(config: DecoderConfig, num_blocks: int, seed: int,
                  snr_points) -> str:
    canon = (f"n={config.qpp.n};f1={config.qpp.f1};f2={config.qpp.f2};"
             f"mode={config.mode.value};iters={config.iterations};"
             f"window={config.window_len};acq={config.acquisition_len};"
             f"quant={config.quantization};corr=({CONSTANT_C},{CONSTANT_T},"
             f"{LINEAR_A},{LINEAR_T});"
             f"blocks={num_blocks};seed={seed};"
             f"snr={','.join(repr(float(s)) for s in snr_points)}")
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_ber_csv(fh, config: DecoderConfig, snr_points,
                  results: list[McResult], seed: int, digest: str) -> None:
    fh.write("# turbosim ber v1\n")
    fh.write(f"# seed={seed}\n")
    fh.write(f"# config={digest}\n")
    fh.write(",".join(BER_CSV_COLUMNS) + "\n")
    for snr_db, r in zip(snr_points, results):
        row = [repr(float(snr_db)), config.mode.value, str(config.iterations),
               str(r.blocks), str(r.info_bits), str(r.bit_errors),
               str(r.block_errors), repr(r.ber), repr(r.fer),
               *map(str, r.ops.as_dict().values())]
        fh.write(",".join(row) + "\n")


def run_benchmark(config: DecoderConfig, modes, num_blocks: int, seed: int,
                  snr_db: float) -> list[str]:
    """Throughput report: one line per mode, plus the reduction count.

    Each mode runs `config` with only its mode replaced.  Reports
    measured Mbps per full iteration (the batched decode wall time of
    run_monte_carlo divided by the iteration count) and the butterfly
    max* pairs and LLR reductions (see OpCounts) done per microsecond of
    that time; absolute numbers are machine-dependent, only the relative
    ordering of the modes is meaningful.
    """
    n, iterations = config.qpp.n, config.iterations
    quant = "none" if config.quantization is None else "%d:%d" % config.quantization
    lines = [f"benchmark: n={n} blocks={num_blocks} iterations={iterations} "
             f"window_len={config.window_len} acq_len={config.acquisition_len} "
             f"quant={quant} snr_db={snr_db} seed={seed}"]
    timings = {}
    for mode in modes:
        mc = run_monte_carlo(replace(config, mode=mode), snr_db, num_blocks, seed)
        elapsed = mc.decode_s
        per_iter_s = elapsed / iterations
        mbps = mc.info_bits / per_iter_s / 1e6
        timings[mode.value] = elapsed
        elapsed_us = elapsed * 1e6
        lines.append(
            f"mode={mode.value:<9} decode_s={elapsed:.3f} "
            f"mbps_per_iteration={mbps:#.4g} ber={mc.ber:.3e} "
            f"max_star_pairs_per_us={mc.ops.max_star_pairs / elapsed_us:.3g} "
            f"llr_reduces_per_us={mc.ops.llr_reduces / elapsed_us:.3g}")
        if mode is modes[0]:
            per_iter_reduces = mc.ops.llr_reduces // (mc.blocks * iterations)
            lines.append(f"llr_reduces per full iteration at n={n}: {per_iter_reduces}")
    fastest = min(timings, key=timings.get)
    rel = " ".join(f"{m}={timings[m] / timings[fastest]:.2f}x" for m in timings)
    lines.append(f"relative decode time (vs {fastest}): {rel}")
    return lines

