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
  2  usage error: an unknown subcommand or flag, a missing subcommand,
     or a flag value that is not an integer (argparse's code, with
     argparse's message and no usage block)
  3  unsupported block size --n
  4  malformed SNR point or range: not a number, not finite, beyond
     +-1000 dB, a range of more than 10000 points, or (bench) more
     than one point
  5  unwritable output path (a path that cannot be opened is found
     before any block is decoded; a write that fails, say on a full
     disk, ends the run when it happens), or a config file that cannot
     be read, is larger than 1 MiB or is not UTF-8 text
  6  bad option value: unknown --alg, (bench) an --alg that names an
     algorithm twice, malformed --quant, --iters < 1, --window-len < 1,
     --acq-len < 0, --blocks < 1, --seed outside [0, 2**64), a
     config-file key that no subcommand takes, or a config-file value
     of the wrong type (every value is type-checked when the file is
     read, threads included, whatever the subcommand)
"""

import argparse
import io
import os
import sys
from contextlib import contextmanager

from . import _checks, sim
from .maxstar import MaxStarMode
from .qpp import params_for_block_size, permutation
from .sim import config_digest, run_benchmark, write_ber_csv
from .turbo import DecoderConfig

EXIT_BAD_BLOCK_SIZE = 3
EXIT_BAD_SNR = 4
EXIT_BAD_OUTPUT = 5
EXIT_BAD_OPTION = 6

MAX_SNR_POINTS = 10_000
MAX_ABS_SNR_DB = 1000.0   # 10**(snr/10) stays far from float overflow
MAX_CONFIG_BYTES = 2 ** 20

_ALGS = [m.value for m in MaxStarMode]


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are _CliErrors with exit code 2."""

    def error(self, message):
        raise _CliError(2, message)


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
    try:
        bits, frac = (int(p) for p in text.split(":"))
        return bits, frac
    except ValueError:
        raise _CliError(EXIT_BAD_OPTION, f"malformed --quant {text!r}; expected bits:frac") from None


# Each option once: its type, which converts a flag's or a config file's value, and help
_OPTIONS = {
    "n": (int, "information block size"),
    "alg": (str, f"algorithm: one of {_ALGS} (bench: comma list)"),
    "iters": (int, "full decoder iterations"),
    "snr_db": (str, "Eb/N0 point 'a' or (ber) range 'start:step:stop' in dB"),
    "blocks": (int, "blocks per SNR point"),
    "seed": (int, "simulation seed"),
    "window_len": (int, "sliding window length"),
    "acq_len": (int, "window acquisition length"),
    "quant": (str, "LLR quantization bits:frac"),
    "out": (str, "output path (default stdout)"),
    "threads": (int, "ignored"),
    "config": (str, "key=value config file; flags override"),
}

# Each subcommand's help and the options it takes, with their defaults
# (None: unset).  An unset decoder option keeps DecoderConfig's default.
_RUN = dict.fromkeys(_OPTIONS)
_COMMANDS = {
    "ber": ("Monte-Carlo BER/FER sweep, CSV output",
            {**_RUN, "n": 1024, "alg": "max-log", "snr_db": "1.0", "blocks": 100, "seed": 0}),
    "bench": ("decode throughput report",
              {**_RUN, "n": 6144, "alg": ",".join(_ALGS), "iters": 1, "snr_db": "1.0",
               "blocks": 2, "seed": 0}),
    "interleave": ("dump the permutation as CSV", {"n": 40, "out": None, "config": None}),
}


def _load_config_file(path):
    """The options a key=value config file sets, each converted by its type.
    A key is the flag of any option but config, without its dashes (snr-db)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)   # a larger file is refused unread
        if len(data) > MAX_CONFIG_BYTES:
            raise OSError(f"larger than {MAX_CONFIG_BYTES} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_BAD_OUTPUT, f"cannot read config file: {exc}")
    names = {key.replace("_", "-"): key for key in _OPTIONS if key != "config"}
    values = {}
    for line in io.StringIO(text, newline=None):   # the lines a text-mode file yields
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in names:
            raise _CliError(EXIT_BAD_OPTION, f"config file: unknown key {key!r}")
        try:
            values[names[key]] = _OPTIONS[names[key]][0](value)
        except ValueError:
            raise _CliError(EXIT_BAD_OPTION,
                            f"config file: bad value {value!r} for {key}") from None
    return values


def _build_parser():
    parser = _ArgumentParser(
        prog="turbosim", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key in defaults:
            kind, text = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return parser


def _options(args):
    """The run's set options: each flag given, else its config-file value,
    else the subcommand's default; an option none of them sets is left out."""
    defaults = _COMMANDS[args.command][1]
    file_values = _load_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if value is not None}
    merged = {**defaults, **file_values, **flags}
    return {key: merged[key] for key in defaults if merged[key] is not None}


@contextmanager
def _open_out(path):
    """The output file (stdout for None); an OSError from opening it,
    writing to it or closing (for stdout, flushing) it ends in exit code 5."""
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                yield fh
    except OSError as exc:
        if path is None:
            # stdout keeps the bytes it could not write, and the
            # interpreter flushes it again at exit; send them to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _CliError(EXIT_BAD_OUTPUT, f"cannot write output: {exc}") from None


def _qpp(n):
    """The interleaver of block size n; an unsupported n exits 3."""
    try:
        return params_for_block_size(n)
    except ValueError as exc:
        raise _CliError(EXIT_BAD_BLOCK_SIZE, str(exc)) from None


# DecoderConfig field -> option; a run passes DecoderConfig only those it sets
_DECODER_FIELDS = {"iterations": "iters", "window_len": "window_len",
                   "acquisition_len": "acq_len", "quantization": "quant"}


def _decoder_config(opts, mode):
    """The run's DecoderConfig, after checking every option a run uses."""
    qpp = _qpp(opts["n"])
    given = {field: opts[key] for field, key in _DECODER_FIELDS.items() if key in opts}
    if "quantization" in given:
        given["quantization"] = _parse_quant(given["quantization"])
    try:
        _checks.integer("--blocks", opts["blocks"], 1)
        _checks.key_word("--seed", opts["seed"])
        return DecoderConfig(mode=mode, qpp=qpp, **given)
    except ValueError as exc:
        raise _CliError(EXIT_BAD_OPTION, f"bad option: {exc}") from None


def _cmd_ber(opts):
    try:
        mode = MaxStarMode.from_name(opts["alg"])
    except ValueError as exc:
        raise _CliError(EXIT_BAD_OPTION, str(exc)) from None
    config = _decoder_config(opts, mode)
    snr_points = _parse_snr_range(opts["snr_db"])
    digest = config_digest(config, opts["blocks"], opts["seed"], snr_points)
    # opened first: an unwritable path fails before any block is decoded
    with _open_out(opts.get("out")) as fh:
        # looked up on sim per call, so a wrapper set there sees every point
        results = [sim.run_ber_point(config, snr, opts["blocks"], opts["seed"])
                   for snr in snr_points]
        write_ber_csv(fh, config, snr_points, results, opts["seed"], digest)
    return 0


def _cmd_bench(opts):
    try:
        modes = [MaxStarMode.from_name(name.strip())
                 for name in opts["alg"].split(",") if name.strip()]
    except ValueError as exc:
        raise _CliError(EXIT_BAD_OPTION, str(exc)) from None
    if not modes:
        raise _CliError(EXIT_BAD_OPTION, f"no algorithm in --alg {opts['alg']!r}")
    if len(set(modes)) < len(modes):
        raise _CliError(EXIT_BAD_OPTION, f"--alg {opts['alg']!r} names an algorithm twice")
    config = _decoder_config(opts, modes[0])
    snr = _parse_snr_range(opts["snr_db"], max_points=1)[0]
    with _open_out(opts.get("out")) as fh:
        lines = run_benchmark(config, modes, opts["blocks"], opts["seed"], snr)
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_interleave(opts):
    pi = permutation(_qpp(opts["n"]))
    with _open_out(opts.get("out")) as fh:
        fh.write("x,fx\n")
        for x, fx in enumerate(pi):
            fh.write(f"{x},{fx}\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run = {"ber": _cmd_ber, "bench": _cmd_bench, "interleave": _cmd_interleave}
        return run[args.command](_options(args))
    except _CliError as exc:
        print("turbosim:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
