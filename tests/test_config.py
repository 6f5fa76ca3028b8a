"""Tests for the node configuration object."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import REAL_PLANE, VIRTUAL_PLANE, NodeConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = NodeConfig()
        assert config.nagle_delay == pytest.approx(0.1)
        assert config.nagle_size == 150_000
        assert config.linking is True
        assert config.data_plane == VIRTUAL_PLANE

    def test_real_plane(self):
        assert NodeConfig(data_plane=REAL_PLANE).data_plane == "real"


class TestValidation:
    def test_unknown_data_plane(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(data_plane="quantum")

    def test_negative_nagle_delay(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(nagle_delay=-0.1)

    def test_negative_nagle_size(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(nagle_size=-1)

    def test_non_positive_block_size(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(max_block_size=0)

    def test_mempool_accepts_its_two_kept_spellings_only(self):
        assert NodeConfig(mempool="object").mempool == "object"
        assert NodeConfig(mempool="columnar").mempool == "columnar"
        with pytest.raises(ConfigurationError, match="mempool"):
            NodeConfig(mempool="vectorised")

    def test_frozen(self):
        config = NodeConfig()
        with pytest.raises(Exception):
            config.linking = False  # type: ignore[misc]
