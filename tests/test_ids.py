"""Tests for protocol instance identifiers."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.ids import BAInstanceId, VIDInstanceId

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class TestVIDInstanceId:
    def test_equality_and_hashing(self):
        a = VIDInstanceId(epoch=3, proposer=1)
        b = VIDInstanceId(epoch=3, proposer=1)
        c = VIDInstanceId(epoch=3, proposer=2)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_ordering_by_epoch_then_proposer(self):
        ids = [
            VIDInstanceId(epoch=2, proposer=0),
            VIDInstanceId(epoch=1, proposer=3),
            VIDInstanceId(epoch=1, proposer=1),
        ]
        ordered = sorted(ids)
        assert ordered == [
            VIDInstanceId(epoch=1, proposer=1),
            VIDInstanceId(epoch=1, proposer=3),
            VIDInstanceId(epoch=2, proposer=0),
        ]

    def test_str(self):
        assert "e=5" in str(VIDInstanceId(epoch=5, proposer=2))


class TestBAInstanceId:
    def test_distinct_from_vid_id(self):
        vid = VIDInstanceId(epoch=1, proposer=0)
        ba = BAInstanceId(epoch=1, slot=0)
        assert vid != ba

    def test_usable_as_dict_key(self):
        table = {BAInstanceId(epoch=e, slot=s): e * 10 + s for e in range(3) for s in range(3)}
        assert table[BAInstanceId(epoch=2, slot=1)] == 21

    def test_str(self):
        assert "s=7" in str(BAInstanceId(epoch=1, slot=7))


class TestIdsAreCValues:
    """What ``BFTNodeBase._automata`` relies on: one C-level probe per delivery."""

    @pytest.mark.parametrize("make", [VIDInstanceId, BAInstanceId])
    def test_probe_with_an_equal_but_not_identical_key_enters_no_python_frame(self, make):
        grid = [(epoch, index) for epoch in range(10) for index in range(10)]
        table = {make(epoch, index): epoch * 100 + index for epoch, index in grid}
        probes = [make(i % 10, i // 100) for i in range(1000)]
        assert all(probe is not key for probe in probes for key in table)
        calls = []

        def on_event(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)

        found = 0
        sys.setprofile(on_event)
        try:
            for probe in probes:
                found += table[probe]
        finally:
            sys.setprofile(None)
        assert calls == []
        assert found == sum(table[probe] for probe in probes)

    def test_one_dict_holds_a_vid_and_a_ba_id_with_the_same_numbers(self):
        table = {VIDInstanceId(1, 0): "vid", BAInstanceId(1, 0): "ba"}
        assert len(table) == 2
        assert table[VIDInstanceId(epoch=1, proposer=0)] == "vid"
        assert table[BAInstanceId(epoch=1, slot=0)] == "ba"

    @pytest.mark.parametrize("instance", [VIDInstanceId(7, 3), BAInstanceId(7, 3)])
    def test_pickle_and_deepcopy_round_trip(self, instance):
        copies = [copy.deepcopy(instance), copy.copy(instance)]
        copies += [
            pickle.loads(pickle.dumps(instance, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for restored in copies:
            assert type(restored) is type(instance)
            assert restored == instance
            assert hash(restored) == hash(instance)

    def test_hash_does_not_depend_on_the_hash_seed(self):
        program = (
            "from repro.common.ids import BAInstanceId, VIDInstanceId;"
            "print(hash(VIDInstanceId(5, 2)), hash(BAInstanceId(5, 2)))"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", program],
                env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("1", "2")
        }
        assert outputs == {f"{hash(VIDInstanceId(5, 2))} {hash(BAInstanceId(5, 2))}\n"}

    @pytest.mark.parametrize("make", [VIDInstanceId, BAInstanceId])
    def test_sorting_a_shuffled_grid_is_epoch_then_index_order(self, make):
        grid = [make(epoch, index) for epoch in range(6) for index in range(6)]
        shuffled = list(grid)
        random.Random(0).shuffle(shuffled)
        assert shuffled != grid
        assert sorted(shuffled) == grid
