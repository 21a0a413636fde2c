"""Default policies reproduce the pre-refactor golden runs bit-identically.

``golden_default.json`` was captured by ``tools/capture_policy_golden.py``
against the tree *before* the policy-kernel refactor. Equality here means
the extracted default strategies (tentative / eager / global) are a
pure refactor: same makespans, same per-iteration times, same simulator
event counts, same LeWI/DROM counters.
"""

import json
from pathlib import Path

from tests.policies.harness import collect_golden

GOLDEN = Path(__file__).with_name("golden_default.json")


class TestGoldenParity:
    def test_default_policies_match_pre_refactor_golden(self):
        want = json.loads(GOLDEN.read_text())
        # round-trip through JSON so containers normalise the same way
        got = json.loads(json.dumps(collect_golden()))
        assert got == want
