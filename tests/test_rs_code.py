"""Tests for the systematic Reed-Solomon erasure code."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, DecodingError
from repro.erasure.rs_code import ReedSolomonCode


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ReedSolomonCode(0, 4)
        with pytest.raises(ConfigurationError):
            ReedSolomonCode(5, 4)
        with pytest.raises(ConfigurationError):
            ReedSolomonCode(10, 256)

    def test_systematic_prefix(self):
        code = ReedSolomonCode(3, 6)
        block = bytes(range(60))
        shards = code.encode(block)
        # The first k shards concatenated are the length header + payload.
        prefix = b"".join(shards[:3])
        assert prefix[4 : 4 + len(block)] == block


class TestRoundtrip:
    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (6, 16), (2, 7), (3, 10)])
    def test_decode_from_first_k(self, k, n):
        code = ReedSolomonCode(k, n)
        block = b"dispersed ledger" * 10
        shards = code.encode(block)
        assert len(shards) == n
        assert code.decode({i: shards[i] for i in range(k)}) == block

    def test_decode_from_parity_only(self):
        code = ReedSolomonCode(2, 6)
        block = b"parity path"
        shards = code.encode(block)
        assert code.decode({4: shards[4], 5: shards[5]}) == block

    def test_every_k_subset_decodes_identically(self):
        code = ReedSolomonCode(2, 5)
        block = b"any subset works"
        shards = code.encode(block)
        for subset in itertools.combinations(range(5), 2):
            assert code.decode({i: shards[i] for i in subset}) == block

    def test_empty_block(self):
        code = ReedSolomonCode(3, 7)
        shards = code.encode(b"")
        assert code.decode({i: shards[i] for i in (1, 4, 6)}) == b""

    def test_extra_shards_ignored(self):
        code = ReedSolomonCode(2, 4)
        block = b"extra"
        shards = code.encode(block)
        assert code.decode(dict(enumerate(shards))) == block

    def test_shard_sizes_equal(self):
        code = ReedSolomonCode(3, 9)
        shards = code.encode(b"x" * 100)
        assert len({len(s) for s in shards}) == 1
        assert len(shards[0]) == code.shard_size(100)


class TestDecodeErrors:
    def test_too_few_shards(self):
        code = ReedSolomonCode(3, 6)
        shards = code.encode(b"hello world")
        with pytest.raises(DecodingError):
            code.decode({0: shards[0], 1: shards[1]})

    def test_mismatched_lengths(self):
        code = ReedSolomonCode(2, 4)
        shards = code.encode(b"hello world")
        with pytest.raises(DecodingError):
            code.decode({0: shards[0], 1: shards[1] + b"\x00"})

    def test_out_of_range_index(self):
        code = ReedSolomonCode(2, 4)
        shards = code.encode(b"hello world")
        with pytest.raises(DecodingError):
            code.decode({0: shards[0], 9: shards[1]})

    def test_empty_shards(self):
        code = ReedSolomonCode(2, 4)
        with pytest.raises(DecodingError):
            code.decode({0: b"", 1: b""})

    def test_corrupted_length_header(self):
        code = ReedSolomonCode(2, 4)
        shards = code.encode(b"ab")
        bogus = b"\xff" * len(shards[0])
        with pytest.raises(DecodingError):
            code.decode({0: bogus, 1: shards[1]})


def _clear_decode_cache():
    from repro.erasure.rs_code import _decode_inverse

    _decode_inverse.cache_clear()


class TestSystematicSelection:
    """Decoding prefers the systematic shards so inversion can be skipped."""

    def test_all_systematic_hits_fast_path(self):
        _clear_decode_cache()
        code = ReedSolomonCode(3, 7)
        block = b"fast path please" * 3
        shards = code.encode(block)
        assert code.decode({i: shards[i] for i in range(3)}) == block
        # The fast path never touches the decode-matrix cache.
        assert code.decode_cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_extra_parity_shards_still_hit_fast_path(self):
        code = ReedSolomonCode(3, 7)
        block = b"prefer systematic"
        shards = code.encode(block)
        supplied = {0: shards[0], 1: shards[1], 2: shards[2], 5: shards[5], 6: shards[6]}
        assert code.decode(supplied) == block
        assert code.decode_cache_info()["misses"] == 0

    def test_parity_selection_uses_inversion_branch(self):
        _clear_decode_cache()
        code = ReedSolomonCode(3, 7)
        block = b"inversion branch"
        shards = code.encode(block)
        supplied = {1: shards[1], 2: shards[2], 4: shards[4]}
        assert code.decode(supplied) == block
        assert code.decode_cache_info()["misses"] == 1

    def test_both_branches_agree(self):
        code = ReedSolomonCode(4, 10)
        block = bytes(range(256)) * 3
        shards = code.encode(block)
        fast = code.decode({i: shards[i] for i in range(4)})
        slow = code.decode({i: shards[i] for i in (1, 5, 7, 9)})
        assert fast == slow == block


class TestDecodeMatrixCache:
    def test_cache_hit_results_identical_to_miss(self):
        _clear_decode_cache()
        code = ReedSolomonCode(4, 10)
        block = b"cache me if you can" * 11
        shards = code.encode(block)
        subset = {i: shards[i] for i in (2, 5, 6, 9)}
        first = code.decode(subset)
        info_after_miss = code.decode_cache_info()
        second = code.decode(subset)
        info_after_hit = code.decode_cache_info()
        assert first == second == block
        assert info_after_miss["misses"] == 1 and info_after_miss["hits"] == 0
        assert info_after_hit["misses"] == 1 and info_after_hit["hits"] == 1

    def test_cache_keyed_by_index_tuple(self):
        _clear_decode_cache()
        code = ReedSolomonCode(2, 6)
        block = b"different subsets, different matrices"
        shards = code.encode(block)
        assert code.decode({2: shards[2], 3: shards[3]}) == block
        assert code.decode({4: shards[4], 5: shards[5]}) == block
        assert code.decode({2: shards[2], 3: shards[3]}) == block
        info = code.decode_cache_info()
        assert info["misses"] == 2 and info["hits"] == 1 and info["size"] == 2

    def test_shared_cache_is_bounded(self):
        from repro.erasure.rs_code import DECODE_CACHE_SIZE, _decode_inverse

        code = ReedSolomonCode(1, 200)
        shards = code.encode(b"tiny")
        for i in range(1, DECODE_CACHE_SIZE + 50):
            assert code.decode({i: shards[i]}) == b"tiny"
        info = _decode_inverse.cache_info()
        assert info.maxsize == DECODE_CACHE_SIZE
        assert info.currsize <= DECODE_CACHE_SIZE

    def test_sibling_instances_share_inversions(self):
        from repro.erasure.rs_code import _decode_inverse

        _clear_decode_cache()
        first = ReedSolomonCode(2, 6)
        second = ReedSolomonCode(2, 6)
        shards = first.encode(b"shared work")
        subset = {3: shards[3], 5: shards[5]}
        assert first.decode(subset) == b"shared work"
        assert second.decode(subset) == b"shared work"
        # One Gauss-Jordan serves both instances: the first triggers it, the
        # second's counters record a hit against the shared store.
        assert _decode_inverse.cache_info().misses == 1
        assert first.decode_cache_info()["misses"] == 1
        assert second.decode_cache_info() == {"hits": 1, "misses": 0, "size": 1}


class TestEncodeMany:
    def test_matches_individual_encodes(self):
        code = ReedSolomonCode(3, 8)
        blocks = [b"", b"a", b"hello world", bytes(range(256)) * 2, b"x" * 37]
        batched = code.encode_many(blocks)
        assert batched == [code.encode(block) for block in blocks]

    def test_empty_batch(self):
        assert ReedSolomonCode(2, 4).encode_many([]) == []

    def test_no_parity_code(self):
        code = ReedSolomonCode(3, 3)
        blocks = [b"abcdef", b"ghi"]
        assert code.encode_many(blocks) == [code.encode(block) for block in blocks]

    @given(blocks=st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_batched_shards_roundtrip(self, blocks):
        code = ReedSolomonCode(3, 9)
        for block, shards in zip(blocks, code.encode_many(blocks)):
            assert code.decode({i: shards[i] for i in (0, 4, 8)}) == block


class TestProperties:
    @given(
        block=st.binary(min_size=0, max_size=512),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_subset_roundtrip(self, block, data):
        code = ReedSolomonCode(4, 10)
        shards = code.encode(block)
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=10, unique=True)
        )
        assert code.decode({i: shards[i] for i in indices}) == block
