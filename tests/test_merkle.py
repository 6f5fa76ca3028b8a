"""Tests for the Merkle tree and inclusion proofs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import DIGEST_SIZE, hash_data, hash_pair
from repro.crypto.merkle import (
    MerkleProof,
    MerkleTree,
    merkle_root,
    placeholder_proofs,
    proof_depth,
    verify_proof,
)


class TestHashing:
    def test_digest_size(self):
        assert len(hash_data(b"x")) == DIGEST_SIZE
        assert len(hash_pair(b"a" * 32, b"b" * 32)) == DIGEST_SIZE

    def test_leaf_and_node_domains_differ(self):
        # Leaf hashing and pair hashing must not collide even on equal input
        # bytes (second-preimage resistance between tree levels).
        data = b"a" * 64
        assert hash_data(data) != hash_pair(data[:32], data[32:])

    def test_deterministic(self):
        assert hash_data(b"hello") == hash_data(b"hello")
        assert hash_data(b"hello") != hash_data(b"hellO")


class TestMerkleTree:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        proof = tree.proof(0)
        assert verify_proof(tree.root, b"only", proof)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_proofs_verify_for_all_leaves(self):
        leaves = [f"leaf-{i}".encode() for i in range(7)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            assert verify_proof(tree.root, leaf, tree.proof(index))

    def test_wrong_leaf_fails(self):
        leaves = [f"leaf-{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        assert not verify_proof(tree.root, b"not-a-leaf", tree.proof(3))

    def test_wrong_index_fails(self):
        leaves = [f"leaf-{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        proof = tree.proof(3)
        wrong = MerkleProof(index=4, siblings=proof.siblings)
        assert not verify_proof(tree.root, leaves[3], wrong)

    def test_proof_against_other_root_fails(self):
        tree_a = MerkleTree([b"a", b"b", b"c", b"d"])
        tree_b = MerkleTree([b"a", b"b", b"c", b"e"])
        assert not verify_proof(tree_b.root, b"a", tree_a.proof(0))

    def test_out_of_range_proof(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IndexError):
            tree.proof(2)
        with pytest.raises(IndexError):
            tree.proof(-1)

    def test_num_leaves_excludes_padding(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert tree.num_leaves == 3

    def test_root_depends_on_leaf_order(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_padding_distinguishes_sizes(self):
        # A 3-leaf tree and the same 3 leaves plus an explicit padding-like
        # leaf must not share a root.
        assert merkle_root([b"a", b"b", b"c"]) != merkle_root([b"a", b"b", b"c", b"c"])

    def test_proof_wire_size(self):
        tree = MerkleTree([bytes([i]) for i in range(16)])
        proof = tree.proof(0)
        assert proof.wire_size == 4 + DIGEST_SIZE * 4

    def test_the_depth_rule_is_every_proofs_length(self):
        """Real proofs, and the placeholders the virtual plane bills, all
        have ``proof_depth(N)`` siblings; the placeholders share one tuple."""
        for n in range(1, 71):
            tree = MerkleTree([bytes([i]) for i in range(n)])
            placeholders = placeholder_proofs(n)
            assert [p.index for p in placeholders] == list(range(n))
            assert len({id(p.siblings) for p in placeholders}) == 1
            assert set(placeholders[0].siblings) <= {bytes(DIGEST_SIZE)}
            for i in range(n):
                assert len(tree.proof(i).siblings) == proof_depth(n), (n, i)
            assert len(placeholders[0].siblings) == proof_depth(n)


class TestProofsAll:
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 16, 33])
    def test_matches_individual_proofs(self, count):
        leaves = [f"leaf-{i}".encode() for i in range(count)]
        tree = MerkleTree(leaves)
        proofs = tree.proofs_all()
        assert proofs == [tree.proof(i) for i in range(count)]

    def test_all_batch_proofs_verify(self):
        leaves = [bytes([i]) * (i + 1) for i in range(11)]
        tree = MerkleTree(leaves)
        for leaf, proof in zip(leaves, tree.proofs_all()):
            assert verify_proof(tree.root, leaf, proof)


class TestMerkleProperties:
    @given(
        leaves=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=33),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_proof_verifies(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        assert verify_proof(tree.root, leaves[index], tree.proof(index))

    @given(leaves=st.lists(st.binary(min_size=1, max_size=16), min_size=2, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_tampered_leaf_never_verifies(self, leaves):
        tree = MerkleTree(leaves)
        tampered = leaves[0] + b"\x01"
        assert not verify_proof(tree.root, tampered, tree.proof(0))
