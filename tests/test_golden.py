"""CLI output and library answers stay byte-identical to the golden digests.

See golden.py for what each digest covers and how to regenerate them.
"""

import json

import golden


def test_outputs_match_the_golden_digests(tmp_path):
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    got = golden.collect(tmp_path)
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert moved == [], f"{len(moved)} of {len(want)} golden outputs moved"
