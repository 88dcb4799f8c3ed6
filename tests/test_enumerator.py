from __future__ import annotations

import functools

import pytest

from outhom.enumerator import (
    EnumSpec,
    ResourceCapError,
    _children,
    _insert_edge,
    _theta,
    cubic_level,
    enumerate_graphs,
    pairing_classes,
)
from outhom.multigraph import canonical_form, canonical_labeling, classify


class TestSpec:
    def test_rank_too_small(self):
        with pytest.raises(ValueError):
            EnumSpec(1)

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            EnumSpec(2, max_degree=2)  # 2n-3 = 1

    def test_trivalent_flag(self):
        assert EnumSpec(3).trivalent
        assert not EnumSpec(3, max_degree=1).trivalent


class TestTrivalentEnumeration:
    def test_n2_is_exactly_theta(self):
        graphs = enumerate_graphs(EnumSpec(2))
        assert len(graphs) == 1
        assert graphs[0].canon.to_text() == "V=2 E=0-1,0-1,0-1"
        # brute-force oracle over all pairings of 6 half-edges
        oracle = pairing_classes(EnumSpec(2))
        assert set(oracle) == {graphs[0].canonical_key}

    @pytest.mark.parametrize("n", [3, 4])
    def test_counts_match_pairing_oracle(self, n):
        main = {g.canonical_key for g in enumerate_graphs(EnumSpec(n))}
        oracle = set(pairing_classes(EnumSpec(n)))
        assert main == oracle

    def test_outputs_are_admissible_trivalent(self, trivalent_by_rank):
        for n, graphs in trivalent_by_rank.items():
            for cls in graphs:
                facts = classify(cls.canon, n)
                assert facts.admissible and facts.degree == 0
                assert cls.canon.vertex_count == 2 * n - 2
                assert cls.canon.edge_count == 3 * n - 3

    def test_rank6_outputs_are_admissible(self):
        # past the n <= 5 fixture: cubic_level's classes go out unfiltered
        graphs = enumerate_graphs(EnumSpec(6))
        assert len(graphs) == 66
        for cls in graphs:
            facts = classify(cls.canon, 6)
            assert facts.admissible and facts.degree == 0

    def test_sorted_and_duplicate_free(self, trivalent_by_rank):
        for graphs in trivalent_by_rank.values():
            keys = [g.canonical_key for g in graphs]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))

    def test_known_class_counts(self, trivalent_by_rank):
        assert [len(trivalent_by_rank[n]) for n in (2, 3, 4, 5)] == [1, 2, 5, 16]

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError) as err:
            cubic_level(4, max_classes=1)
        assert err.value.partial is not None


class TestAllDegreeEnumeration:
    def test_loop_allowed_rank2(self):
        spec = EnumSpec(2, max_degree=1, allow_loops=True)
        found = sorted(pairing_classes(spec))
        assert found == [b"V=1 E=0-0,0-0", b"V=2 E=0-1,0-1,0-1"]

    def test_admissible_rank3_degree1(self):
        # loopless bridgeless degree <= 1: the two trivalent classes plus
        # the double-double graph on 3 vertices
        spec = EnumSpec(3, max_degree=1)
        found = pairing_classes(spec)
        degrees = sorted(
            classify(cls.canon, 3).degree for cls in found.values()
        )
        assert degrees == [0, 0, 1]

    def test_enumerate_graphs_dispatches_to_pairing(self):
        spec = EnumSpec(3, max_degree=1, allow_loops=True)
        graphs = enumerate_graphs(spec)
        keys = [g.canonical_key for g in graphs]
        assert keys == sorted(keys)
        assert set(keys) == set(pairing_classes(spec))


@functools.cache
def _unpruned_level(n):
    """``cubic_level(n)`` from insertions at every pair (e, f), parents in key
    order: each child canonicalized by ``canonical_form``, and the class of
    each key's first insertion kept."""
    level = [canonical_form(_theta())]
    for _ in range(3, n + 1):
        nxt = {}
        for parent in sorted(level, key=lambda c: c.canonical_key):
            g = parent.canon
            for e in range(g.edge_count):
                for f in range(e, g.edge_count):
                    cls = canonical_form(_insert_edge(g, e, f))
                    nxt.setdefault(cls.canonical_key, cls)
        level = list(nxt.values())
    return {cls.canonical_key: cls for cls in level}


class TestInsertionPruning:
    """One insertion per orbit of edge pairs finds every class, in the order
    the insertion at every pair finds them."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_keys_as_every_pair(self, n):
        assert list(cubic_level(n)) == list(_unpruned_level(n))

    def test_threads_keep_keys_and_order(self):
        assert list(cubic_level(6, threads=2)) == list(cubic_level(6, threads=1))


class TestClassOnFirstKey:
    """Labeling first and building a class only for a new key keeps the class
    (generators included) that canonicalizing every insertion keeps."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_same_classes_as_canonical_form(self, n, threads):
        reference = sorted(_unpruned_level(n).values(), key=lambda c: c.canonical_key)
        assert enumerate_graphs(EnumSpec(n), threads) == reference

    def test_children_are_first_labelings_per_key(self, trivalent_by_rank):
        for parent in trivalent_by_rank[4]:
            labelings = _children(parent)
            keys = [lab.key for lab in labelings]
            assert len(keys) == len(set(keys))
            g = parent.canon
            first = {}
            for e in range(g.edge_count):
                for f in range(e, g.edge_count):
                    child = _insert_edge(g, e, f)
                    first.setdefault(canonical_labeling(child).key, child)
            assert keys == list(first)
            for lab in labelings:
                assert lab.graph_class() == canonical_form(first[lab.key])
