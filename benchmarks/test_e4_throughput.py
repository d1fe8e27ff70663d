"""E4 (paper §5.3): end-to-end event throughput with/without label tracking.

Paper: a producer/consumer pair at maximum sustainable rate, sampled
once per second for 1000 seconds; throughput drops from 4455 to 3817
events/second (−17 %) with label tracking active.

Shape expectation: throughput with labels on is lower by a modest
fraction, not by integer factors. Reading on the reference host:
−39 … −41 % up to PR 21, −28 … −34 % since PR 22 (the audit log's flush
no longer formats a record per decision and containment entry is not a
generator); what remains is the per-event ``LabelContext``, containment,
clearance check and second audit decision (publish *and* deliver)
against a baseline that only records the publish (docs/BENCHMARKS.md
"PR 22").
"""

from repro.bench.reporting import format_table
from repro.bench.throughput import event_window, measure_throughput
from repro.bench.timing import measure_interleaved

PAPER_BASELINE_EPS = 4455.0
PAPER_PROTECTED_EPS = 3817.0
# The paper quotes −17 % (the drop relative to the *tracked* rate:
# 638/3817 ≈ 16.7 %); relative to the baseline it is −14.3 %. We report
# the figure as printed in the paper.
PAPER_DROP_PERCENT = 17.0

EVENTS = 20_000
WINDOW = 2_000

#: protected / baseline events per second, ratio of window medians. The
#: paper reads 3817/4455 ≈ 0.86: lower by a modest fraction — not a
#: collapse, and not faster than the baseline by more than noise.
RATIO_BAND = (0.10, 1.10)


def test_throughput_baseline(benchmark):
    result = benchmark.pedantic(
        lambda: measure_throughput(
            events=EVENTS, label_checks=False, isolation=False, labelled_events=False
        ),
        rounds=3,
        iterations=1,
    )
    assert result.events_per_second > 0


def test_throughput_with_label_tracking(benchmark):
    result = benchmark.pedantic(
        lambda: measure_throughput(events=EVENTS),
        rounds=3,
        iterations=1,
    )
    assert result.events_per_second > 0


def test_e4_report(benchmark, report):
    # Windows of the two variants alternate, as the paper sampled once
    # per second: a host phase lands in both medians alike.
    baseline, protected = (
        WINDOW / stats.median
        for stats in measure_interleaved(
            event_window(WINDOW, label_checks=False, isolation=False, labelled_events=False),
            event_window(WINDOW),
            iterations=EVENTS // WINDOW,
            warmup=1,
        )
    )
    benchmark.extra_info["baseline_eps"] = baseline
    benchmark.extra_info["protected_eps"] = protected
    benchmark.pedantic(
        lambda: measure_throughput(events=2_000), rounds=1, iterations=1
    )

    report(
        "E4 — event throughput (paper: 4455 -> 3817 ev/s, -17%)\n"
        + format_table(
            ("variant", "paper", "measured (median window)"),
            [
                ("without label tracking", f"{PAPER_BASELINE_EPS:,.0f} ev/s",
                 f"{baseline:,.0f} ev/s"),
                ("with label tracking", f"{PAPER_PROTECTED_EPS:,.0f} ev/s",
                 f"{protected:,.0f} ev/s"),
                ("reduction", f"-{PAPER_DROP_PERCENT:.0f}%",
                 f"{(protected - baseline) / baseline * 100:+.1f}%"),
            ],
        )
    )

    low, high = RATIO_BAND
    assert low < protected / baseline < high, "label tracking must not collapse throughput"
