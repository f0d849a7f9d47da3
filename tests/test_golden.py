"""The library still reports on every seeded input what ``tests/golden/digest.txt`` records."""

from golden import regen


def test_behaviour_digest_is_unchanged():
    changed = regen.changes(regen.read(), regen.compute())
    assert not changed, (
        f"{len(changed)} digest lines differ; if the change of behaviour is meant, rewrite the digest with "
        "`PYTHONPATH=src python tests/golden/regen.py`:\n" + "\n".join(changed[:20])
    )
