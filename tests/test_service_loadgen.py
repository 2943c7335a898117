"""The service load generator (``benchmarks/loadgen.py``): nearest-rank
percentiles, requests/second over the clients' own send/response window,
and the command line's zero-drop exit gate."""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from loadgen import _aggregate, _percentile, main, run_load  # noqa: E402
from repro.service import DDToolServer, ServiceConfig  # noqa: E402


class TestPercentile:
    def test_empty_is_zero(self):
        assert _percentile([], 0.5) == 0.0

    def test_nearest_rank_on_four_values(self):
        values = [1.0, 2.0, 3.0, 4.0]
        # Nearest rank ceil(q * n): the floor index int(q * (n - 1)) gave
        # 2.0 for the median and 3.0 for p99.
        assert _percentile(values, 0.50) == 2.0
        assert _percentile(values, 0.75) == 3.0
        assert _percentile(values, 0.99) == 4.0
        assert _percentile(values, 1.0) == 4.0

    def test_tail_of_a_hundred(self):
        values = [float(v) for v in range(1, 101)]
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 0.95) == 95.0
        assert _percentile(values, 0.99) == 99.0

    def test_exact_ranks_survive_float_noise(self):
        values = [float(v) for v in range(1, 101)]
        # 0.07 * 100 is 7.000000000000001 in binary floating point.
        assert _percentile(values, 0.07) == 7.0

    def test_low_quantiles_take_the_minimum(self):
        values = [3.0, 5.0, 8.0]
        assert _percentile(values, 0.0) == 3.0
        assert _percentile(values, 0.01) == 3.0

    def test_single_value(self):
        assert _percentile([7.0], 0.5) == _percentile([7.0], 0.99) == 7.0


def _chunk(latencies, first_send, last_response, statuses=None):
    return {
        "latencies": latencies,
        "statuses": statuses or {200: len(latencies)},
        "errors": 0,
        "reconnects": 0,
        "first_send": first_send,
        "last_response": last_response,
    }


class TestAggregate:
    def test_rps_uses_the_send_response_window(self):
        chunks = [
            _chunk([0.010] * 30, first_send=100.5, last_response=102.0),
            _chunk([0.020] * 30, first_send=100.0, last_response=101.5),
        ]
        result = _aggregate(chunks, "cached", 4, 2, 5.0)
        assert result.requests == 60
        # Earliest first send 100.0, latest last response 102.0.
        assert result.rps == pytest.approx(60 / 2.0)
        assert result.statuses == {"200": 60}

    def test_percentiles_merge_across_processes(self):
        chunks = [
            _chunk([0.001, 0.003], first_send=0.0, last_response=1.0),
            _chunk([0.002, 0.004], first_send=0.0, last_response=1.0),
        ]
        result = _aggregate(chunks, "cached", 2, 2, 1.0)
        assert result.p50_ms == pytest.approx(2.0)
        assert result.p99_ms == pytest.approx(4.0)
        assert result.max_ms == pytest.approx(4.0)
        assert result.mean_ms == pytest.approx(2.5)

    def test_idle_process_does_not_stretch_the_window(self):
        chunks = [
            _chunk([0.005] * 10, first_send=10.0, last_response=11.0),
            _chunk([], first_send=None, last_response=None, statuses={}),
        ]
        result = _aggregate(chunks, "uncached", 2, 2, 1.0)
        assert result.rps == pytest.approx(10.0)

    def test_no_responses_is_zero_rps(self):
        chunks = [_chunk([], first_send=None, last_response=None, statuses={})]
        result = _aggregate(chunks, "cached", 1, 1, 1.0)
        assert result.requests == 0
        assert result.rps == 0.0 and result.p50_ms == 0.0


def test_run_load_reports_rate_over_its_own_window():
    server = DDToolServer(
        ServiceConfig(host="127.0.0.1", port=0, workers=0)
    ).start()
    try:
        host, port = server.address
        result = run_load(host, port, connections=2, duration=0.5, processes=1)
    finally:
        server.stop()
    assert result.errors == 0
    assert result.requests > 0
    assert result.statuses == {"200": result.requests}
    # The window is at most the run's duration plus one in-flight request,
    # so the rate is at least requests over that bound.
    assert result.rps >= result.requests / (0.5 + result.max_ms / 1e3) - 1e-9


def test_main_writes_both_regimes_and_exits_zero(tmp_path):
    code = main([
        "--connections", "2", "--duration", "0.5", "--processes", "1",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    written = json.loads((tmp_path / "service_loadgen.json").read_text())
    assert sorted(written) == ["cached", "uncached"]
    for mode, result in written.items():
        assert result["mode"] == mode
        assert result["errors"] == 0
        assert result["requests"] > 0
