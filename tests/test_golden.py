"""The reference runs of the artifact manifest still write the bits that
`golden.json` records; `python tests/golden.py` prints what moved."""

import json

import pytest

import golden


@pytest.mark.parametrize("name", golden.FAST)
def test_reference_run_matches_the_manifest(name):
    recorded = json.loads(golden.MANIFEST.read_text())[name]
    moved = golden.differences(name, recorded, golden.run(name))
    assert not moved, "\n".join(moved)


def test_manifest_covers_every_reference_run():
    # the slow 200-point run is checked by CI, from the same manifest
    assert list(json.loads(golden.MANIFEST.read_text())) == list(golden.RUNS)
