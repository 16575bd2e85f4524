"""The package surface: every name that `orthoapart.__all__` lists resolves."""

import orthoapart


def test_every_name_in_all_resolves():
    assert [name for name in orthoapart.__all__ if not hasattr(orthoapart, name)] == []
    assert len(set(orthoapart.__all__)) == len(orthoapart.__all__)
    # bench/test_bench.py imports the earlier name of is_compatible
    assert orthoapart.projections_commute is orthoapart.is_compatible
