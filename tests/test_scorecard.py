"""The correctness scorecard's ratchet: scripts/scorecard.py's counts may only improve."""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

from quadcone.cli import main

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "scorecard.py"
_SPEC = importlib.util.spec_from_file_location("scorecard", _PATH)
scorecard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scorecard)

CLASS_SIZES = {
    "M11_1, A = 2 + d": 55,
    "M11_1, A = 0.5 + d": 55,
    "M11_1, A = 1 + d": 55,
    "M11_1, A = 1 - d": 55,
    "M11_2, A = d + i": 55,
    "M20, A = 10^k": 75,
    "M10_1, A = 10^k": 75,
    "M11_1, A = 10^k, B = A/2": 75,
    "UnclassifiedBoundary stratum": 5,
    "n = 2 fixtures at 2^k": 48,
    "n = 3 class": 17,
}
MAX_WRONG_EXIT_0 = 40  # 44 at the scorecard's introduction; lower it as classes are mended
COMPLETE = ("M11_1, A = 1 - d", "M11_1, A = 10^k, B = A/2", "n = 2 fixtures at 2^k")  # classes whose every answer is right


def test_scorecard_ratchet():
    table = scorecard.score(main)
    assert {name: sum(counts.values()) for name, counts in table.items()} == CLASS_SIZES
    total = sum(table.values(), Counter())
    assert total["exit 0 wrong"] <= MAX_WRONG_EXIT_0
    for name in COMPLETE:
        assert table[name]["right"] == CLASS_SIZES[name], name
    assert total["other"] == 0
