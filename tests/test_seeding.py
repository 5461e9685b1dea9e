"""Substream registry tests."""

from csitransfer import seeding


def test_stream_ids_are_distinct():
    """Two names on one id would draw the same numbers for unrelated uses."""
    ids = {name: value for name, value in vars(seeding).items() if name.startswith("STREAM_")}
    assert len(set(ids.values())) == len(ids), ids
    # 7 seeds the test suite's probe environments and networks (test_evaluate).
    assert 7 not in ids.values(), ids
