"""Every name perfbench wraps still exists where it looks it up.

perfbench records a span by replacing a public name on its owner (a
module global or a Network method). A name that is gone is only noted
as missing, and its metrics then print `absent`, so nothing fails when a
program change drops or moves one. This test pins the set of missing
names.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Stale wraps, each waiting on a benchmark-only change: Network.score is
# gone, and defences imports neither evaluate nor run_attack.
STALE = {"Network.score", "advlab.defences.evaluate", "advlab.defences.run_attack"}


def test_only_the_known_stale_names_are_missing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer()
    try:
        layers.instrument(tracer)
    finally:
        tracer.restore()
    missing = {label for labels in tracer.missing.values() for label in labels}
    assert missing == STALE
