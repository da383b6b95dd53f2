"""Every output of the manifest's frozen keys is the one it records
(tests/golden_outputs.py says what a key and its hash are)."""

from golden_outputs import differing, load, replay


def test_every_output_matches_the_manifest(tmp_path):
    want = load()
    assert differing(want, replay(want, tmp_path)) == []
