"""turbosim: BER sweeps, throughput benchmarks, interleaver dumps.

    turbosim ber --n 1024 --alg max-log --iters 8 --snr-db 0:0.5:2 \
                 --blocks 200 --seed 1 --out ber.csv
    turbosim bench --blocks 4
    turbosim interleave --n 40 --out perm.csv

Outputs are batch CSV/text artifacts; `ber` output is byte-identical
across runs for a fixed seed.  Options may also come from a key=value
config file (--config); explicit flags win.  --threads is accepted and
ignored: each SNR point is decoded in the calling thread.

Exit codes (each error prints one `turbosim:` line on stderr):
  0  success
  2  usage error (argparse's own code)
  3  unsupported block size --n
  4  malformed SNR point or range: not a number, not finite, beyond
     +-1000 dB, a range of more than 10000 points, or (bench) more
     than one point
  5  unwritable output path (found before any block is decoded), or a
     config file that cannot be read or is not UTF-8 text
  6  bad option value: unknown --alg, malformed --quant, --iters < 1,
     --window-len < 1, --acq-len < 0, --blocks < 1, --seed outside
     [0, 2**64), a config-file value of the wrong type, or a
     config-file key that no subcommand takes
"""

import argparse
import sys
from contextlib import nullcontext

from .maxstar import MaxStarMode
from .qpp import params_for_block_size, permutation
from .sim import config_digest, run_ber_sweep, run_benchmark, write_ber_csv
from .turbo import DecoderConfig

EXIT_BAD_BLOCK_SIZE = 3
EXIT_BAD_SNR = 4
EXIT_BAD_OUTPUT = 5
EXIT_BAD_OPTION = 6

MAX_SNR_POINTS = 10_000
MAX_ABS_SNR_DB = 1000.0   # 10**(snr/10) stays far from float overflow

_ALGS = [m.value for m in MaxStarMode]


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_snr_range(text, max_points=MAX_SNR_POINTS):
    """'a' or 'start:step:stop' (inclusive), at most max_points values."""
    parts = str(text).split(":")
    try:
        values = [float(p) for p in parts]
        if len(values) not in (1, 3) or not all(
                abs(v) <= MAX_ABS_SNR_DB for v in values):  # False for NaN
            raise ValueError
        if len(values) == 1:
            return values
        start, step, stop = values
        if step <= 0 or stop < start:
            raise ValueError
    except ValueError:
        raise _CliError(EXIT_BAD_SNR,
                        f"malformed SNR range {text!r}; expected 'a' or "
                        "'start:step:stop' with step > 0 and every value "
                        f"within +-{MAX_ABS_SNR_DB:g} dB") from None
    points = []
    value = start
    while value <= stop + 1e-9:
        # also ends a range whose step is too small to move `value`
        if len(points) == max_points:
            raise _CliError(EXIT_BAD_SNR, f"SNR range {text!r} has more "
                            f"than {max_points} point(s)")
        points.append(round(value, 9))
        value += step
    return points


def _parse_quant(text):
    if text is None:
        return None
    try:
        bits, frac = (int(p) for p in str(text).split(":"))
        return bits, frac
    except ValueError:
        raise _CliError(EXIT_BAD_OPTION, f"malformed --quant {text!r}; expected bits:frac") from None


def _load_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_BAD_OUTPUT, f"cannot read config file: {exc}")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="turbosim", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, help="information block size")
        p.add_argument("--alg", help=f"algorithm: one of {_ALGS} (bench: comma list)")
        p.add_argument("--iters", type=int, help="full decoder iterations")
        p.add_argument("--blocks", type=int, help="blocks per SNR point")
        p.add_argument("--seed", type=int, help="simulation seed")
        p.add_argument("--window-len", type=int, help="sliding window length")
        p.add_argument("--acq-len", type=int, help="window acquisition length")
        p.add_argument("--quant", help="LLR quantization bits:frac")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--threads", type=int, help="ignored")
        p.add_argument("--config", help="key=value config file; flags override")

    ber = sub.add_parser("ber", help="Monte-Carlo BER/FER sweep, CSV output")
    common(ber)
    ber.add_argument("--snr-db", help="Eb/N0 point 'a' or range 'start:step:stop' in dB")

    bench = sub.add_parser("bench", help="decode throughput report")
    common(bench)
    bench.add_argument("--snr-db", help="Eb/N0 operating point in dB")

    il = sub.add_parser("interleave", help="dump the permutation as CSV")
    il.add_argument("--n", type=int, help="block size")
    il.add_argument("--out", help="output path (default stdout)")
    il.add_argument("--config", help="key=value config file; flags override")
    return parser


_DEFAULTS = {
    "ber": {"n": 1024, "alg": "max-log", "iters": 8, "snr_db": "1.0",
            "blocks": 100, "seed": 0, "window_len": None, "acq_len": 32,
            "quant": None, "out": None},
    "bench": {"n": 6144, "alg": ",".join(_ALGS), "iters": 1, "snr_db": "1.0",
              "blocks": 2, "seed": 0, "window_len": None, "acq_len": 32,
              "quant": None, "out": None},
    "interleave": {"n": 40, "out": None},
}

_TYPES = {"n": int, "iters": int, "blocks": int, "seed": int,
          "window_len": int, "acq_len": int}

# Keys a config file may set: those of every subcommand, so one file can
# serve all three, plus the ignored threads.
_FILE_KEYS = {key.replace("_", "-") for keys in _DEFAULTS.values()
              for key in keys} | {"threads"}


def _effective(args, file_values):
    """Merge CLI args, config-file values and defaults (that order)."""
    unknown = sorted(set(file_values) - _FILE_KEYS)
    if unknown:
        raise _CliError(EXIT_BAD_OPTION, "config file: unknown key "
                        + ", ".join(map(repr, unknown)))
    merged = {}
    for key, default in _DEFAULTS[args.command].items():
        cli = getattr(args, key, None)
        if cli is not None:
            merged[key] = cli
        elif key.replace("_", "-") in file_values:
            text = file_values[key.replace("_", "-")]
            try:
                merged[key] = _TYPES.get(key, str)(text)
            except ValueError:
                raise _CliError(EXIT_BAD_OPTION, f"config file: bad value "
                                f"{text!r} for {key.replace('_', '-')}") from None
        else:
            merged[key] = default
    return merged


def _open_out(path):
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise _CliError(EXIT_BAD_OUTPUT, f"cannot write output: {exc}")


def _decoder_config(opts, mode):
    """The run's DecoderConfig, after checking every option a run uses."""
    try:
        qpp = params_for_block_size(opts["n"])
    except ValueError as exc:
        raise _CliError(EXIT_BAD_BLOCK_SIZE, str(exc))
    if opts["blocks"] < 1:
        raise _CliError(EXIT_BAD_OPTION, f"--blocks must be >= 1, got {opts['blocks']}")
    if not 0 <= opts["seed"] < 2 ** 64:
        raise _CliError(EXIT_BAD_OPTION, f"--seed must be in [0, 2**64), got {opts['seed']}")
    try:
        return DecoderConfig(
            mode=mode, iterations=opts["iters"], qpp=qpp,
            window_len=opts["window_len"], acquisition_len=opts["acq_len"],
            quantization=_parse_quant(opts["quant"]))
    except ValueError as exc:
        raise _CliError(EXIT_BAD_OPTION, f"bad decoder option: {exc}") from None


def _cmd_ber(opts):
    try:
        mode = MaxStarMode.from_name(opts["alg"])
    except ValueError as exc:
        raise _CliError(EXIT_BAD_OPTION, str(exc)) from None
    config = _decoder_config(opts, mode)
    snr_points = _parse_snr_range(opts["snr_db"])
    digest = config_digest(config, opts["blocks"], opts["seed"], snr_points)
    # opened first: an unwritable path fails before any block is decoded
    with _open_out(opts["out"]) as fh:
        results = run_ber_sweep(config, snr_points, opts["blocks"], opts["seed"])
        write_ber_csv(fh, config, snr_points, results, opts["seed"], digest)
    return 0


def _cmd_bench(opts):
    try:
        modes = [MaxStarMode.from_name(name.strip())
                 for name in str(opts["alg"]).split(",") if name.strip()]
    except ValueError as exc:
        raise _CliError(EXIT_BAD_OPTION, str(exc)) from None
    if not modes:
        raise _CliError(EXIT_BAD_OPTION, f"no algorithm in --alg {opts['alg']!r}")
    config = _decoder_config(opts, modes[0])
    snr = _parse_snr_range(opts["snr_db"], max_points=1)[0]
    with _open_out(opts["out"]) as fh:
        lines = run_benchmark(config, modes, opts["blocks"], opts["seed"], snr)
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_interleave(opts):
    try:
        params = params_for_block_size(opts["n"])
    except ValueError as exc:
        raise _CliError(EXIT_BAD_BLOCK_SIZE, str(exc))
    pi = permutation(params)
    with _open_out(opts["out"]) as fh:
        fh.write("x,fx\n")
        for x, fx in enumerate(pi):
            fh.write(f"{x},{fx}\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
        opts = _effective(args, file_values)
        if args.command == "ber":
            return _cmd_ber(opts)
        if args.command == "bench":
            return _cmd_bench(opts)
        return _cmd_interleave(opts)
    except _CliError as exc:
        print(f"turbosim: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
