import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lteturbo import cli, sim
from lteturbo.cli import MAX_SNR_POINTS, _CliError, _parse_snr_range, main
from lteturbo.maxstar import MaxStarMode
from lteturbo.qpp import params_for_block_size
from lteturbo.sim import BER_CSV_COLUMNS
from lteturbo.turbo import DecoderConfig, run_monte_carlo

SRC = Path(__file__).resolve().parent.parent / "src"


def read_rows(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    header, *rows = [l for l in lines if not l.startswith("#")]
    return meta, header.split(","), [r.split(",") for r in rows]


class TestBer:
    def test_high_snr_single_row(self, tmp_path):
        out = tmp_path / "ber.csv"
        code = main(["ber", "--n", "40", "--alg", "max-log", "--iters", "1",
                     "--snr-db", "10", "--blocks", "1", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        meta, header, rows = read_rows(out)
        assert any(m.startswith("# seed=") for m in meta)
        assert header == list(BER_CSV_COLUMNS)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["ber"] == "0.0" and row["bit_errors"] == "0"
        assert row["mode"] == "max-log"

    def test_repeat_invocations_byte_identical(self, tmp_path):
        args = ["ber", "--n", "40", "--alg", "log-map", "--iters", "2",
                "--snr-db", "0:1:2", "--blocks", "4", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        args = ["ber", "--n", "40", "--alg", "max-log", "--iters", "1",
                "--snr-db", "1", "--blocks", "600", "--seed", "4"]
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_arithmetic_consistency(self, tmp_path):
        out = tmp_path / "ber.csv"
        main(["ber", "--n", "40", "--alg", "max-log", "--iters", "2",
              "--snr-db", "0:0.5:1", "--blocks", "8", "--seed", "5",
              "--out", str(out)])
        _, header, rows = read_rows(out)
        assert len(rows) == 3
        for raw in rows:
            row = dict(zip(header, raw))
            assert float(row["ber"]) == int(row["bit_errors"]) / int(row["info_bits"])
            assert float(row["fer"]) == int(row["block_errors"]) / int(row["blocks"])
            assert int(row["info_bits"]) == 40 * int(row["blocks"])
            assert int(row["llr_reduces"]) == 4 * 40 * 2 * int(row["blocks"])

    def test_invalid_block_size_exit_code(self, capsys):
        assert main(["ber", "--n", "41", "--snr-db", "1", "--blocks", "1"]) == 3
        assert "unsupported block size" in capsys.readouterr().err

    def test_malformed_snr_exit_code(self, capsys):
        assert main(["ber", "--n", "40", "--snr-db", "nope", "--blocks", "1"]) == 4
        assert main(["ber", "--n", "40", "--snr-db", "1:2", "--blocks", "1"]) == 4
        assert main(["ber", "--n", "40", "--snr-db", "2:1:0", "--blocks", "1"]) == 4
        assert "malformed SNR" in capsys.readouterr().err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "ber.csv"
        code = main(["ber", "--n", "40", "--snr-db", "1", "--blocks", "1",
                     "--out", str(out)])
        assert code == 5
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command, owner, runner", [
        ("ber", sim, "run_ber_point"), ("bench", cli, "run_benchmark")],
        ids=["ber-run_ber_point", "bench-run_benchmark"])
    def test_unwritable_output_fails_before_decoding(self, tmp_path, capsys, monkeypatch,
                                                     command, owner, runner):
        def entered(*args, **kwargs):
            raise AssertionError(f"{runner} ran before the output was checked")
        monkeypatch.setattr(owner, runner, entered)
        out = tmp_path / "missing" / "out.csv"
        assert main([command, "--n", "40", "--iters", "1", "--blocks", "1",
                     "--snr-db", "1", "--out", str(out)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("turbosim: cannot write")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["ber", "--snr-db", "1"], ["bench", "--alg", "max-log"],
        ["interleave"]], ids=["ber", "bench", "interleave"])
    def test_failed_write_exit_code(self, capsys, argv):
        # /dev/full opens, so only the write or the close fails
        extra = [] if argv[0] == "interleave" else ["--iters", "1", "--blocks", "1"]
        assert main(argv + ["--n", "40", "--out", "/dev/full"] + extra) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("turbosim: cannot write output")

    @staticmethod
    def _run_cli(argv, stdout, buffered):
        # a whole process, so the interpreter's own flush of stdout at
        # exit is covered too; a buffered stdout still holds the bytes it
        # could not write when that flush runs
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "lteturbo.cli", *argv, "--n", "40"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["ber", "--snr-db", "1", "--iters", "1", "--blocks", "1"], ["interleave"]],
        ids=["ber", "interleave"])
    def test_failed_stdout_write_exit_code(self, argv, buffered):
        with open("/dev/full", "w") as full:
            proc = self._run_cli(argv, full, buffered)
        assert proc.returncode == 5
        assert proc.stderr.splitlines() == [
            "turbosim: cannot write output: [Errno 28] No space left on device"]

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exit_code(self, buffered):
        # the reader is gone before the first byte, as when `| head` exits
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run_cli(["interleave"], write_end, buffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 5
        assert proc.stderr.splitlines() == [
            "turbosim: cannot write output: [Errno 32] Broken pipe"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n=40\nalg=max-log\niters=1\nsnr-db=10\nblocks=2\nseed=1\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["ber", "--config", str(cfg), "--out", str(out_a)]) == 0
        _, header, rows = read_rows(out_a)
        assert dict(zip(header, rows[0]))["blocks"] == "2"
        # explicit flag wins over the file value
        assert main(["ber", "--config", str(cfg), "--blocks", "3",
                     "--out", str(out_b)]) == 0
        _, header, rows = read_rows(out_b)
        assert dict(zip(header, rows[0]))["blocks"] == "3"

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TURBOSIM_THREADS", "2")
        out = tmp_path / "env.csv"
        assert main(["ber", "--n", "40", "--snr-db", "1", "--blocks", "2",
                     "--seed", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("extra, sha256", [
        ([], "fde9b7c58109e798ed13024189f83a138c52381f3ff28b64be512ef51bc4c59c"),
        (["--window-len", "16", "--acq-len", "8", "--quant", "6:2"],
         "16b05dac0c587a8ce3c9711ecd5411f74eae5f86be5d439df4d41c6c6898fe27"),
    ], ids=["full", "windowed-quantized"])
    def test_constant_kernel_output_is_pinned(self, tmp_path, extra, sha256):
        # the whole file, `# config=` digest included, so a change to the
        # kernel's constants or to the digest's wording shows here
        out = tmp_path / "ber.csv"
        assert main(["ber", "--n", "40", "--alg", "constant", "--iters", "4",
                     "--blocks", "64", "--snr-db", "0:1:2", "--seed", "5",
                     "--out", str(out)] + extra) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_two_batch_output_is_pinned(self, tmp_path):
        # 600 blocks at n=40 decode as one batch of 512 and one of 88: pins
        # the generator each batch builds and the blocks re-keyed inside it
        out = tmp_path / "ber.csv"
        assert main(["ber", "--n", "40", "--alg", "max-log", "--iters", "2",
                     "--blocks", "600", "--snr-db", "1", "--seed", "9",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "4b03ff1b458f87bb239e6d0824819217b4143ba7d3c60dbabc6a106329ab5bef"

    def test_acquisition_beyond_the_block_is_the_whole_block(self, tmp_path):
        # an acquisition longer than the block reaches the tail from every
        # lane, also at values past int64
        args = ["ber", "--n", "40", "--blocks", "64", "--snr-db", "0.5",
                "--window-len", "8"]
        rows = {}
        for acq in ("40", str(2 ** 63 - 1), str(2 ** 64)):
            out = tmp_path / f"acq{len(acq)}.csv"
            assert main(args + ["--acq-len", acq, "--out", str(out)]) == 0
            rows[acq] = read_rows(out)[1:]
        assert rows["40"] == rows[str(2 ** 63 - 1)] == rows[str(2 ** 64)]
        assert main(["bench", "--n", "40", "--blocks", "2", "--alg", "max-log",
                     "--window-len", "8", "--acq-len", str(2 ** 64),
                     "--out", str(tmp_path / "bench.txt")]) == 0


BER_40 = ["ber", "--n", "40", "--iters", "1", "--blocks", "1", "--snr-db", "1"]


def assert_one_line_error(capsys, argv, code):
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("turbosim: "), err


class TestBadOptions:
    @pytest.mark.parametrize("flags", [
        ["--iters", "0"], ["--window-len", "0"], ["--acq-len", "-1"],
        ["--quant", "1:0"], ["--quant", "6"], ["--quant", "a:b"],
        ["--alg", "max-logg"], ["--blocks", "0"], ["--blocks", "-3"],
        ["--seed", "-1"], ["--seed", str(2 ** 64)],
    ], ids=lambda flags: " ".join(flags))
    def test_ber_exit_code(self, capsys, flags):
        assert_one_line_error(capsys, BER_40 + flags, 6)

    @pytest.mark.parametrize("flags", [
        ["--iters", "0"], ["--blocks", "0"], ["--alg", "max-log,nope"],
        ["--alg", ","], ["--alg", "max-log,log-map, max-log"],
    ], ids=lambda flags: " ".join(flags))
    def test_bench_exit_code(self, capsys, flags):
        argv = ["bench", "--n", "40", "--iters", "1", "--blocks", "1"] + flags
        assert_one_line_error(capsys, argv, 6)

    @pytest.mark.parametrize("argv", [["ber", "--n", "abc"], ["ber", "--bogus", "1"], []],
                             ids=["non-integer", "unknown-flag", "no-subcommand"])
    def test_usage_error_exit_code(self, capsys, argv):
        # argparse's usage block is not printed, only its message
        assert_one_line_error(capsys, argv, 2)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: turbosim")

    @pytest.mark.parametrize("line", ["iters=abc", "blocks=1.5", "seed=", "n=forty"])
    def test_config_file_value_of_wrong_type(self, tmp_path, capsys, line):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        assert_one_line_error(capsys, ["ber", "--config", str(cfg)], 6)

    def test_config_file_unknown_key(self, tmp_path, capsys):
        # a typo must not silently fall back to the default (8 iterations)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n=40\niter=1\n")
        assert main(["ber", "--config", str(cfg)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("turbosim: ")
        assert "'iter'" in err[0]

    @pytest.mark.parametrize("command", ["ber", "interleave"])
    def test_config_file_not_utf8(self, tmp_path, capsys, command):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(b"\xff\xfen\x00=\x004\x000\x00\n\x00")
        assert main([command, "--config", str(cfg)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("turbosim: cannot read config file: ")

    @pytest.mark.parametrize("extra", [0, 1])
    def test_config_file_size_limit(self, tmp_path, capsys, extra):
        # comment lines up to the limit are read; one byte more is refused
        line = b"#" * 1023 + b"\n"
        cfg = tmp_path / "big.cfg"
        cfg.write_bytes(b"n=40\n" + line * (cli.MAX_CONFIG_BYTES // 1024 - 1)
                        + b"#" * (1024 - 5 + extra))
        assert cfg.stat().st_size == cli.MAX_CONFIG_BYTES + extra
        out = tmp_path / "perm.csv"
        code = main(["interleave", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        if extra:
            assert code == 5 and not out.exists()
            assert len(err) == 1 and err[0].startswith("turbosim: cannot read config file: ")
        else:
            assert code == 0 and err == []
            assert len(out.read_text().splitlines()) == 1 + 40   # n=40 was read

    def test_config_file_serves_every_subcommand(self, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("n=40\nalg=max-log\niters=1\nsnr-db=10\nblocks=1\n"
                       "seed=1\nwindow-len=8\nacq-len=4\nquant=6:2\n"
                       "threads=2\n")
        for command in ("ber", "bench", "interleave"):
            out = tmp_path / f"{command}.out"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

    def test_threads_env_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TURBOSIM_THREADS", "abc")
        assert main(BER_40 + ["--out", str(tmp_path / "ber.csv")]) == 0

    @pytest.mark.parametrize("command", ["ber", "bench", "interleave"])
    @pytest.mark.parametrize("line", ["threads=abc", "iters=abc", "window-len=1.5",
                                      "acq-len=", "blocks=two", "seed=0x1", "n=forty"])
    def test_config_file_values_are_typed_whatever_the_subcommand(
            self, tmp_path, capsys, command, line):
        # threads=abc ran, and so did every key the subcommand does not take
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n=40\niters=1\nblocks=1\n{line}\n")
        assert main([command, "--config", str(cfg)]) == 6
        key, _, value = line.partition("=")
        assert capsys.readouterr().err.splitlines() == [
            f"turbosim: config file: bad value {value!r} for {key}"]

    def test_config_file_value_is_typed_when_a_flag_overrides_it(self, tmp_path, capsys):
        # the file is checked when it is read, before the flags are merged
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("iters=abc\n")
        assert_one_line_error(capsys, BER_40 + ["--config", str(cfg)], 6)

    def test_config_file_key_config_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"config={cfg}\n")
        assert_one_line_error(capsys, ["interleave", "--config", str(cfg)], 6)


@pytest.mark.parametrize("argv, options", [
    (BER_40, {"iterations"}),
    (["ber", "--n", "40", "--blocks", "1", "--snr-db", "1", "--window-len", "8",
      "--quant", "6:2"], {"window_len", "quantization"}),
    (["bench", "--n", "40", "--blocks", "1", "--alg", "max-log", "--acq-len", "4"],
     {"iterations", "acquisition_len"}),   # bench's own iters=1
], ids=["ber-iters", "ber-window-quant", "bench"])
def test_only_the_decoder_options_set_reach_decoder_config(tmp_path, monkeypatch,
                                                          argv, options):
    # the others keep DecoderConfig's own defaults, stated nowhere else
    given = []
    monkeypatch.setattr(cli, "DecoderConfig",
                        lambda **kwargs: given.append(kwargs) or DecoderConfig(**kwargs))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert [set(kwargs) for kwargs in given] == [{"mode", "qpp"} | options]


@pytest.mark.parametrize("argv, sha256", [
    (["--n", "40", "--iters", "2", "--blocks", "4"],
     "39ee97b7e922de515d9d0e4b25ff9d3db227a3a49bd2c209d33f6df6eaad0c18"),
    (["--n", "48", "--alg", "linear", "--iters", "2", "--snr-db", "0:0.5:1", "--blocks", "6",
      "--seed", "3", "--window-len", "16", "--acq-len", "8", "--quant", "6:2"],
     "e18f8cc81a9712255a8a6d343cd2b55cf15138557fc5b3d9f82c722af81895c7"),
], ids=["decoder-defaults", "every-option"])
def test_ber_output_is_pinned(tmp_path, argv, sha256):
    out = tmp_path / "ber.csv"
    assert main(["ber"] + argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("command", ["ber", "bench", "interleave"])
def test_help_names_each_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in cli._COMMANDS[command][1]:
        assert f"--{key.replace('_', '-')} " in out, key


def test_every_decoder_config_field_is_a_flag():
    # a DecoderConfig field that no turbosim flag sets is a knob no run uses
    opts = {"n": 48, "iters": 3, "blocks": 1, "seed": 0, "window_len": 8,
            "acq_len": 4, "quant": "6:2"}
    config = cli._decoder_config(opts, MaxStarMode.LOG_MAP)
    default = DecoderConfig()
    for field in dataclasses.fields(DecoderConfig):
        assert getattr(config, field.name) != getattr(default, field.name), field.name


class TestSnrBounds:
    @pytest.mark.parametrize("snr", [
        "nan", "inf", "-inf", "0:nan:1", "0:0.5:inf", "1e308", "-1000.5",
    ])
    def test_non_finite_or_extreme_snr(self, capsys, snr):
        assert_one_line_error(capsys, BER_40[:-2] + [f"--snr-db={snr}"], 4)

    @pytest.mark.parametrize("snr", ["0:0.1:1e9", "0:0.01:1000", "999:1e-20:999.5"])
    def test_too_many_points(self, capsys, snr):
        # the last range never advances: 999 + 1e-20 == 999
        assert_one_line_error(capsys, BER_40[:-2] + [f"--snr-db={snr}"], 4)

    def test_point_limit_is_inclusive(self):
        # a dyadic step keeps the accumulated range exact; parsed only, since
        # decoding 10000 points would take minutes
        assert len(_parse_snr_range("-1000:0.125:249.875")) == MAX_SNR_POINTS
        with pytest.raises(_CliError) as err:
            _parse_snr_range("-1000:0.125:250")
        assert err.value.code == 4

    def test_bench_rejects_a_range(self, capsys):
        argv = ["bench", "--n", "40", "--iters", "1", "--blocks", "1",
                "--snr-db", "0:1:2"]
        assert_one_line_error(capsys, argv, 4)

    def test_bench_rejects_nan(self, capsys):
        argv = ["bench", "--n", "40", "--iters", "1", "--blocks", "1",
                "--snr-db", "nan"]
        assert_one_line_error(capsys, argv, 4)


class TestInterleave:
    def test_dump(self, tmp_path):
        out = tmp_path / "perm.csv"
        assert main(["interleave", "--n", "40", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,fx"
        assert len(lines) == 41
        assert lines[2] == "1,13"

    def test_invalid_n(self):
        assert main(["interleave", "--n", "39"]) == 3


class TestBench:
    def test_report_lines(self, tmp_path):
        out = tmp_path / "bench.txt"
        assert main(["bench", "--n", "40", "--alg", "max-log,log-map",
                     "--iters", "1", "--blocks", "2", "--seed", "1",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "mode=max-log" in text and "mode=log-map" in text
        assert "llr_reduces per full iteration at n=40: 160" in text
        assert "relative decode time" in text
        mode_lines = [line for line in text.splitlines() if line.startswith("mode=")]
        assert len(mode_lines) == 2
        for line in mode_lines:
            fields = dict(f.split("=") for f in line.split()[1:])
            # four significant digits, so small runs still compare modes
            mbps = fields["mbps_per_iteration"]
            assert float(mbps) > 0
            mantissa = mbps.lower().split("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) >= 3
            pairs = float(fields["max_star_pairs_per_us"])
            reduces = float(fields["llr_reduces_per_us"])
            # both over the same decode time; per bit, without windows,
            # 16 butterfly pairs (8 states, two recursions), 2 reductions
            assert pairs > 0 and reduces > 0
            assert pairs / reduces == pytest.approx(8, rel=0.01)

    def test_decodes_with_the_window_and_quantization_given(self, tmp_path):
        out = tmp_path / "bench.txt"
        assert main(["bench", "--n", "40", "--alg", "max-log", "--iters", "1",
                     "--blocks", "4", "--seed", "3", "--snr-db", "0",
                     "--window-len", "8", "--acq-len", "0", "--quant", "3:0",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "window_len=8 acq_len=0 quant=3:0" in lines[0]
        qpp = params_for_block_size(40)
        plain = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=1, qpp=qpp)
        given = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=1, qpp=qpp,
                              window_len=8, acquisition_len=0, quantization=(3, 0))
        ber = run_monte_carlo(given, 0.0, 4, 3).ber
        # the two configurations decode these blocks differently, so the
        # reported BER shows which one ran
        assert ber != run_monte_carlo(plain, 0.0, 4, 3).ber
        assert f"ber={ber:.3e}" in lines[1]


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "perm.csv"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lteturbo.cli", "interleave", "--n", "40",
         "--out", str(out)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert out.read_text().splitlines()[1] == "0,0"
