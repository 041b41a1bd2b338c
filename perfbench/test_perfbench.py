"""Tests of the benchmark's own code, on tiny sweep points."""

import hashlib
import json

import pytest

import bench
import spans

TINY = bench.Workload(n=40, alg="max-log", iters=2, snr_db=1.0, blocks=3,
                      threads=1, sample=2)


@pytest.fixture(scope="module")
def tiny_csv():
    _, csv = bench.sweep(TINY, 5)
    assert csv is not None
    return csv


def test_golden_check_rejects_any_single_changed_byte(tiny_csv):
    golden = {"5": hashlib.sha256(tiny_csv).hexdigest()}
    assert bench.csv_problems(TINY, 5, tiny_csv, golden, None) == []
    for i in range(len(tiny_csv)):
        changed = bytearray(tiny_csv)
        changed[i] = ord("7") if changed[i] != ord("7") else ord("8")
        assert bench.csv_problems(TINY, 5, bytes(changed), golden, None), i


def test_csv_check_without_golden_uses_per_block_ops(tiny_csv):
    config = bench.decoder_config(TINY.spec())
    ops = bench.lteturbo.turbo_decode(bench.rebuild_block(TINY, config, 5, 0),
                                      config).ops.as_dict()
    assert bench.csv_problems(TINY, 5, tiny_csv, {}, ops) == []
    ops["adds"] += 1
    assert bench.csv_problems(TINY, 5, tiny_csv, {}, ops)


def _current():
    return [getattr(module, attr) for module, attr in bench.TRACE_TARGETS]


def test_wrapped_names_are_restored_after_traced_and_failing_runs():
    originals = _current()
    bench.traced_sweep(TINY, 1)
    bench.count_sweep(TINY, 1)
    assert all(a is b for a, b in zip(_current(), originals))
    with pytest.raises(RuntimeError):
        with spans.SpanTracer(bench.TRACE_TARGETS).active():
            assert bench.turbo.turbo_decode is not originals[8]
            raise RuntimeError("sweep failed")
    assert all(a is b for a, b in zip(_current(), originals))


def test_count_extraction_on_tiny_point():
    _, csv, layers, store_bytes = bench.traced_sweep(TINY, 2)
    count_csv, counted, count_bytes, useful = bench.count_sweep(TINY, 2)
    assert count_csv == csv and counted == layers.calls and count_bytes == store_bytes
    siso_calls = 2 * TINY.iters           # one batch, two SISO passes per iteration
    assert counted["turbo.siso_decode"] == siso_calls
    assert counted["siso.max_star"] == siso_calls * (2 * TINY.n + 3)
    assert counted["siso.max_star_reduce"] == siso_calls * 2 * TINY.n
    assert store_bytes == siso_calls * TINY.blocks * TINY.n * 7 * 8
    assert TINY.blocks <= useful.useful <= useful.run == TINY.blocks * TINY.iters

    metrics = bench.layer_metrics(TINY, layers, bench.parse_row(csv), store_bytes, useful)
    assert metrics["siso.calls"] == siso_calls
    assert metrics["siso.butterfly_calls_per_call"] == 2 * TINY.n + 3
    assert metrics["ops.max_star_pairs_per_bit_iter"] == 32
    assert metrics["ops.llr_reduces_per_bit_iter"] == 4
    assert set(metrics) | {"sim.speedup_2w", "trace.overhead_frac"} == set(bench.PER_LAYER)


def test_sample_check_compares_single_decodes_with_the_batch():
    config = bench.decoder_config(TINY.spec())
    channels = {b: bench.rebuild_block(TINY, config, 3, b)
                for b in bench.sample_indices(TINY, 3)}
    points, rows = bench.timed_points(TINY, 3, 0.0, channels)
    assert len(points) == 1 and all(r is not None for r in rows.values())
    assert bench.sample_failures(TINY, config, channels, rows)[0] == []
    first = min(rows)
    rows[first] = bench.np.nextafter(rows[first], bench.np.inf)
    assert bench.sample_failures(TINY, config, channels, rows)[0] == [first]


def test_analyse_rejects_overlapping_or_escaping_children():
    parent = spans.Span(0, None, "p", 1, 0.0, 10.0)
    ok = [parent, spans.Span(1, 0, "c", 1, 1.0, 3.0), spans.Span(2, 0, "c", 1, 4.0, 6.0)]
    times = spans.analyse(ok)
    assert times.self_time["p"] == pytest.approx(6.0) and times.busy["c"] == 4.0
    with pytest.raises(ValueError):
        spans.analyse([parent, spans.Span(1, 0, "c", 1, 1.0, 5.0),
                       spans.Span(2, 0, "c", 1, 4.0, 6.0)])
    with pytest.raises(ValueError):
        spans.analyse([parent, spans.Span(1, 0, "c", 1, 9.0, 11.0)])
    # children on other threads may overlap; self time uses their union
    threaded = spans.analyse([parent, spans.Span(1, 0, "c", 2, 1.0, 5.0),
                              spans.Span(2, 0, "c", 3, 4.0, 6.0)])
    assert threaded.self_time["p"] == pytest.approx(5.0)
    assert threaded.wall["c"] == pytest.approx(5.0) and threaded.busy["c"] == 6.0


def test_benchmark_json_matches_the_code():
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        config = json.load(fh)
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == bench.PER_LAYER
