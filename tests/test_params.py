"""Tests for the (N, f) protocol parameters."""

import copy
import dataclasses
import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import ProtocolParams


class TestValidation:
    def test_minimum_cluster(self):
        params = ProtocolParams(n=4, f=1)
        assert params.n == 4
        assert params.f == 1

    def test_f_zero_allowed(self):
        params = ProtocolParams(n=1, f=0)
        assert params.quorum == 1

    def test_rejects_too_many_faults(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(n=4, f=2)

    def test_rejects_n_equal_3f(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(n=6, f=2)

    def test_rejects_negative_f(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(n=4, f=-1)

    def test_rejects_non_positive_n(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(n=0, f=0)

    def test_frozen(self):
        params = ProtocolParams(n=4, f=1)
        with pytest.raises(Exception):
            params.n = 7  # type: ignore[misc]


class TestForN:
    @pytest.mark.parametrize(
        "n,expected_f",
        [(1, 0), (2, 0), (3, 0), (4, 1), (6, 1), (7, 2), (10, 3), (16, 5), (128, 42)],
    )
    def test_maximum_f(self, n, expected_f):
        assert ProtocolParams.for_n(n).f == expected_f

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams.for_n(0)

    def test_always_valid(self):
        for n in range(1, 200):
            params = ProtocolParams.for_n(n)
            assert params.n >= 3 * params.f + 1


class TestThresholds:
    def test_quorum_is_n_minus_f(self):
        params = ProtocolParams(n=16, f=5)
        assert params.quorum == 11

    def test_small_quorum_is_f_plus_one(self):
        params = ProtocolParams(n=16, f=5)
        assert params.small_quorum == 6

    def test_ready_threshold_is_2f_plus_one(self):
        params = ProtocolParams(n=16, f=5)
        assert params.ready_threshold == 11
        assert params.ready_amplify_threshold == 6

    def test_data_shards(self):
        params = ProtocolParams(n=16, f=5)
        assert params.data_shards == 6
        assert params.total_shards == 16

    def test_quorum_exceeds_ready_threshold_guarantee(self):
        # N - f >= 2f + 1 is what the AVID-M proofs rely on.
        for n in range(4, 100):
            params = ProtocolParams.for_n(n)
            assert params.quorum >= params.ready_threshold

    def test_node_indices(self):
        params = ProtocolParams(n=4, f=1)
        assert list(params.node_indices()) == [0, 1, 2, 3]


#: Every derived threshold and the formula of ``(n, f)`` it must equal.
THRESHOLD_FORMULAS = {
    "quorum": lambda n, f: n - f,
    "small_quorum": lambda n, f: f + 1,
    "data_shards": lambda n, f: n - 2 * f,
    "total_shards": lambda n, f: n,
    "ready_threshold": lambda n, f: 2 * f + 1,
    "ready_amplify_threshold": lambda n, f: f + 1,
}


def _assert_consistent(params: ProtocolParams, n: int, f: int) -> None:
    assert (params.n, params.f) == (n, f)
    for name, formula in THRESHOLD_FORMULAS.items():
        value = getattr(params, name)
        assert type(value) is int, name
        assert value == formula(n, f), name


class TestStoredThresholds:
    def test_every_threshold_is_a_plain_int_equal_to_its_formula(self):
        for n in range(1, 101):
            for f in range((n - 1) // 3 + 1):
                _assert_consistent(ProtocolParams(n=n, f=f), n, f)

    def test_thresholds_are_instance_attributes_not_properties(self):
        params = ProtocolParams(n=16, f=5)
        for name in THRESHOLD_FORMULAS:
            assert name in vars(params)
            assert not hasattr(ProtocolParams, name)

    def test_replace_recomputes_the_thresholds(self):
        params = ProtocolParams(n=4, f=1)
        _assert_consistent(dataclasses.replace(params, n=16, f=5), 16, 5)
        _assert_consistent(dataclasses.replace(params, n=7), 7, 1)
        _assert_consistent(dataclasses.replace(params, f=0), 4, 0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(params, f=2)
        with pytest.raises(ValueError):
            dataclasses.replace(params, quorum=2)

    def test_pickle_and_copy_keep_the_thresholds(self):
        params = ProtocolParams(n=16, f=5)
        copies = [copy.copy(params), copy.deepcopy(params)]
        copies += [
            pickle.loads(pickle.dumps(params, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for restored in copies:
            assert restored == params
            _assert_consistent(restored, 16, 5)

    def test_equality_hash_and_repr_cover_n_and_f_only(self):
        assert ProtocolParams(4, 1) == ProtocolParams(4, 1)
        assert hash(ProtocolParams(4, 1)) == hash(ProtocolParams(4, 1))
        assert ProtocolParams(4, 1) != ProtocolParams(4, 0)
        assert len({ProtocolParams(4, 1), ProtocolParams.for_n(4), ProtocolParams(5, 1)}) == 2
        assert repr(ProtocolParams(4, 1)) == "ProtocolParams(n=4, f=1)"

    @pytest.mark.parametrize("name", ["n", "f", *THRESHOLD_FORMULAS])
    def test_assigning_any_field_or_threshold_raises(self, name):
        params = ProtocolParams(n=4, f=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, name, 3)
