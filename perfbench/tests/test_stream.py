"""The service workload's seeded query stream."""

import pytest

from common import MissingProgram, require_program

try:
    require_program()
except MissingProgram:  # pragma: no cover - only without the program's sources
    pytest.skip("program sources not found", allow_module_level=True)

from repro.service import query_cache_key  # noqa: E402

from service_load import REPEAT_BLOCK, QueryStream  # noqa: E402


def _keys(seed, count):
    stream = QueryStream(seed)
    return [query_cache_key(stream.next()[1]) for _ in range(count)]


def test_same_seed_gives_the_same_queries():
    assert _keys(7, 40) == _keys(7, 40)
    assert _keys(7, 40) != _keys(8, 40)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_block_repeats_exactly_its_share(seed):
    keys = _keys(seed, 200)
    seen = set()
    size = len(REPEAT_BLOCK)
    for start in range(0, len(keys), size):
        block = keys[start:start + size]
        new = {key for key in block if key not in seen}
        seen.update(block)
        if start:
            assert len(new) == REPEAT_BLOCK.count(False)
