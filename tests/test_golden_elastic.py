"""The mini elastic run's reports are pinned byte-for-byte.

The elastic scenario exercises what the Fig 3 golden does not: fleet
scale-out mid-run, thousands of idle pipes, a fault window with loss,
and connection churn.  The golden holds the elastic summary followed by
the underlying scenario report, whose engine footer (events processed,
peak queue depth, live/pending events) pins the engine's bookkeeping.
Only the wall-clock events/sec figure (real-time, not simulated) is
masked.

Regenerate (only after an intentional behavior change)::

    PYTHONPATH=src python -c "
    from tests.test_golden_elastic import render
    print(render())" > tests/golden/elastic_mini_report.txt
"""

import os
import re

from repro.harness.elastic import ElasticConfig, run_elastic
from tests.test_elastic import MINI

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "elastic_mini_report.txt"
)

_WALL_CLOCK = re.compile(r", \d+ events/sec wall-clock")


def render() -> str:
    """Elastic summary plus scenario report, wall clock masked."""
    run = run_elastic(ElasticConfig(**MINI))
    return _WALL_CLOCK.sub("", run.report() + "\n" + run.result.report())


def test_elastic_mini_report_matches_golden():
    with open(GOLDEN) as handle:
        expected = handle.read().rstrip("\n")
    assert render() == expected
