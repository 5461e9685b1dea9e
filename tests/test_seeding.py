"""Substream registry tests."""

from csitransfer import seeding


def test_stream_ids_are_distinct():
    """Two names on one id would draw the same numbers for unrelated uses."""
    ids = {name: value for name, value in vars(seeding).items() if name.startswith("STREAM_")}
    assert len(set(ids.values())) == len(ids), ids
