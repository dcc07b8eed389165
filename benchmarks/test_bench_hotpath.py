"""PERF-HOTPATH — the per-packet layers, isolated.

Microbenches for the fused ENSEMBLETIMEOUT observe (O(log k) prefix
roll vs the literal k-instance loop kept in the test suite as an
oracle) and the pipe delivery pump (one outstanding engine event per
pipe vs one per packet in flight).  Writes ``reports/hotpath.txt`` with
the measured ratios and records the production paths' throughputs into
``BENCH_engine.json`` for the CI perf gate.
"""

from conftest import record_perf, write_report
from hotpath_cases import make_gap_trace, run_ensemble_observe, run_pipe_stream

from tests.ensemble_oracle import NaiveEnsembleTimeout


def _best_of(runs, runner, *args, **kwargs):
    results = [runner(*args, **kwargs) for _ in range(runs)]
    return min(results, key=lambda r: r[1] / r[0])


class TestEnsembleObserve:
    def test_fused_observe_100k_packets(self, benchmark):
        trace = make_gap_trace()

        def run():
            return run_ensemble_observe(trace)[0]

        assert benchmark(run) == len(trace)

    def test_naive_observe_100k_packets(self, benchmark):
        trace = make_gap_trace()

        def run():
            return run_ensemble_observe(trace, NaiveEnsembleTimeout)[0]

        assert benchmark(run) == len(trace)


class TestPipeSend:
    def test_pipe_pump_10x1k_packets(self, benchmark):
        def run():
            return run_pipe_stream()[0]

        assert benchmark(run) == 10_000


def test_hotpath_report():
    """Record fused-vs-naive and pipe throughput; render the report."""
    trace = make_gap_trace()
    fused_n, fused_s = _best_of(5, run_ensemble_observe, trace)
    naive_n, naive_s = _best_of(3, run_ensemble_observe, trace, NaiveEnsembleTimeout)
    pipe_n, pipe_s, pipe_peak = _best_of(5, run_pipe_stream)

    fused = record_perf("ensemble_observe_fused_100k", fused_n, fused_s)
    naive_rate = naive_n / naive_s
    pipe = record_perf(
        "pipe_pump_10x1k", pipe_n, pipe_s, peak_queue_depth=pipe_peak
    )

    speedup = fused["events_per_sec"] / naive_rate
    lines = [
        "hot-path microbenchmarks (best-of-N wall clock)",
        "",
        "ensemble observe, 100k packets, paper ladder (k=7):",
        "  fused (O(log k) prefix roll): %12.0f obs/sec" % fused["events_per_sec"],
        "  naive (k-instance oracle):    %12.0f obs/sec" % naive_rate,
        "  speedup: %.2fx" % speedup,
        "",
        "pipe send+deliver, 10 waves x 1k packets, 10 Gb/s wire:",
        "  delivery pump:                %12.0f pkts/sec" % pipe["events_per_sec"],
        "  engine peak queue depth:      %12d (one event per pipe)"
        % pipe["peak_queue_depth"],
    ]
    write_report("hotpath", "\n".join(lines))
    # The fused path must beat the naive loop decisively; the pump must
    # hold the heap at O(pipes), not O(packets in flight).
    assert speedup > 1.5
    assert pipe["peak_queue_depth"] < 50
