"""E3b: the calibrated Figure 5 frontend breakdown.

Environment-bound components (authentication, privilege fetch, template
base cost, other) are pinned to the paper's service times — stated
openly — while label propagation is *measured* on a 200-record labelled
page. The question answered: at paper-scale component costs, does label
tracking land in the paper's 17-of-180 ms band rather than dominating?
"""

from repro.bench.breakdown import PAPER_FRONTEND_BREAKDOWN
from repro.bench.calibration import CalibratedFrontend
from repro.bench.reporting import comparison_table

#: Label propagation as a share of the calibrated page: the paper reads
#: 17/180 ≈ 0.09. A minority share, and not below the noise of two
#: alternately sampled ≈ 1 ms renders.
LABEL_SHARE_BAND = (-0.01, 0.25)


def test_e3b_calibrated_frontend(benchmark, report):
    frontend = CalibratedFrontend(records=200)
    measured = benchmark.pedantic(
        lambda: frontend.measure(iterations=8), rounds=1, iterations=1
    )
    report(
        comparison_table(
            "E3b — Figure 5 frontend, calibrated mode "
            "(auth/privileges/template/other pinned to paper values; "
            "label propagation measured)",
            PAPER_FRONTEND_BREAKDOWN,
            measured,
        )
    )
    total = sum(measured.values())
    # Pinned components reproduce by construction; the claim under test:
    assert set(measured) == set(PAPER_FRONTEND_BREAKDOWN)
    # label propagation is a minority share, as in the paper (17/180 ≈ 9%).
    low, high = LABEL_SHARE_BAND
    assert low < measured["label_propagation"] / total < high
    # overall page time lands in the paper's order of magnitude.
    assert 120.0 < total < 400.0
