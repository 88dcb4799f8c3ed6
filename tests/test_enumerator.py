from __future__ import annotations

import functools
import hashlib
import json
import os

import pytest

from outhom import enumerator
from outhom.artifacts import ArtifactStore
from outhom.enumerator import (
    EnumSpec,
    ResourceCapError,
    _children,
    _insert_edge,
    _reducible_edges,
    _theta,
    cubic_level,
    enumerate_graphs,
)
from outhom.multigraph import Multigraph, canonical_form, canonical_labeling
from reference_enum import classify, full_edge_generators, pairing_classes

# every (n, max_degree, allow_loops) with n <= 4
SMALL_SPECS = [
    (n, d, loops) for n in (2, 3, 4) for d in range(2 * n - 2) for loops in (False, True)
]


@functools.cache
def _pairing_by_degree(n):
    """The pairing reference at rank n, called once with loops allowed and the
    top degree: its keys bucketed by ``(degree, loopless)``."""
    buckets = {}
    for key, g in pairing_classes(EnumSpec(n, 2 * n - 3, allow_loops=True)).items():
        facts = classify(g, n)
        buckets.setdefault((facts.degree, facts.loopless), set()).add(key)
    return buckets


def _pairing_keys(n, max_degree, allow_loops):
    """The key set the pairing reference gives for one spec."""
    return set().union(*(
        keys for (degree, loopless), keys in _pairing_by_degree(n).items()
        if degree <= max_degree and (loopless or allow_loops)
    ))


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
        assert main == _pairing_keys(n, 0, False)

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

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(enumerator, "MAX_CLASSES", 1)
        with pytest.raises(ResourceCapError) as err:
            cubic_level(4)
        assert err.value.partial is not None


class TestAllDegreeEnumeration:
    def test_loop_allowed_rank2(self):
        spec = EnumSpec(2, max_degree=1, allow_loops=True)
        found = [g.canonical_key for g in enumerate_graphs(spec)]
        assert found == [b"V=1 E=0-0,0-0", b"V=2 E=0-1,0-1,0-1"]

    def test_admissible_rank3_degree1(self):
        # loopless bridgeless degree <= 1: the two trivalent classes plus
        # the double-double graph on 3 vertices
        found = enumerate_graphs(EnumSpec(3, max_degree=1))
        degrees = sorted(classify(cls.canon, 3).degree for cls in found)
        assert degrees == [0, 0, 1]

    @pytest.mark.parametrize(
        "n,max_degree,allow_loops", SMALL_SPECS,
        ids=[f"n{n}-d{d}{'-loops' if loops else ''}" for n, d, loops in SMALL_SPECS],
    )
    def test_every_spec_matches_pairing(self, n, max_degree, allow_loops):
        graphs = enumerate_graphs(EnumSpec(n, max_degree, allow_loops))
        keys = [g.canonical_key for g in graphs]
        assert keys == sorted(keys)
        assert set(keys) == _pairing_keys(n, max_degree, allow_loops)
        for g in graphs:
            assert g.canon.to_text().encode("ascii") == g.canonical_key

    def test_loopless_closure_is_loop_closure_filtered_n5(self):
        with_loops = enumerate_graphs(EnumSpec(5, 7, allow_loops=True))
        loopless = enumerate_graphs(EnumSpec(5, 7))
        assert (len(with_loops), len(loopless)) == (334, 143)
        expected = []
        for cls in with_loops:
            facts = classify(cls.canon, 5)
            assert facts.connected and facts.bridgeless and facts.min_valence_ok
            assert facts.rank == 5
            assert facts.admissible == facts.loopless
            if facts.loopless:
                expected.append(cls)
        assert loopless == expected

    @pytest.mark.parametrize("allow_loops,searches", [(True, 1489), (False, 487)])
    def test_closure_search_count_n5(self, allow_loops, searches, monkeypatch):
        # one canonical search per orbit of contractible edges of each
        # class, the 23 of the trivalent level included
        real = enumerator.canonical_labeling
        calls = []
        monkeypatch.setattr(
            enumerator, "canonical_labeling", lambda g: calls.append(g) or real(g)
        )
        enumerate_graphs(EnumSpec(5, 7, allow_loops))
        assert len(calls) == searches

    def test_class_cap_on_contraction_steps(self, monkeypatch):
        # 5 trivalent classes pass the cap; the first degree-1 class over it raises
        monkeypatch.setattr(enumerator, "MAX_CLASSES", 6)
        with pytest.raises(ResourceCapError) as err:
            enumerate_graphs(EnumSpec(4, max_degree=1))
        assert err.value.partial == 7

    def test_cache_files_keep_their_bytes(self, tmp_path):
        # SHA-256 of the name -> SHA-256 map of the 24 graphs-* files of these
        # specs, pinned from the files half-edge pairing wrote when it was
        # the generator of every non-trivalent spec (less the .count files
        # written beside them then)
        store = ArtifactStore(str(tmp_path))
        for n, d, loops in SMALL_SPECS:
            store.graphs(EnumSpec(n, d, loops))
        digests = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(tmp_path.iterdir())
        }
        assert len(digests) == 24
        combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
        assert combined == "2bc29e3f91ac5260e454ad8b319554ffa748fc69a39f9fbcbb840e74a05e5089"


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


def _edge_group(gens):
    """Every element of the permutation group ``gens`` generates."""
    if not gens:
        return set()
    identity = tuple(range(len(gens[0])))
    group = {identity}
    stack = [identity]
    while stack:
        g = stack.pop()
        for gen in gens:
            h = tuple(gen[i] for i in g)
            if h not in group:
                group.add(h)
                stack.append(h)
    return group


def _smooth_out(g, pos):
    """Delete the edge at ``pos`` of the cubic graph ``g`` and smooth its
    two ends: each end, now of valence 2, is replaced by one edge joining
    its two other ends."""
    edges = [list(e) for i, e in enumerate(g.edges) if i != pos]
    gone = set(g.edges[pos])
    for w in sorted(gone):
        i, j = [k for k, e in enumerate(edges) if w in e]
        ends = edges[i] + edges[j]
        ends.remove(w)
        ends.remove(w)
        edges[i] = ends
        del edges[j]
    relabel = {v: i for i, v in enumerate(v for v in range(g.vertex_count) if v not in gone)}
    return Multigraph(len(relabel), tuple((relabel[u], relabel[v]) for u, v in edges))


def _insertions(rank):
    """(parent, e, f, child) for every pair e <= f of every class of ``rank``."""
    for parent in cubic_level(rank).values():
        g = parent.canon
        for e in range(g.edge_count):
            for f in range(e, g.edge_count):
                yield parent, e, f, _insert_edge(g, e, f)


class TestInsertionPruning:
    """Canonical augmentation finds every class insertion at every pair
    finds, each once."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_keys_as_every_pair(self, n):
        assert sorted(cubic_level(n)) == sorted(_unpruned_level(n))

    def test_threads_keep_keys_and_order(self, monkeypatch):
        # pool every rank step, so the pooled run is compared
        monkeypatch.setattr("outhom.enumerator.POOL_MIN_PARENTS", 1)
        assert list(cubic_level(6, threads=2)) == list(cubic_level(6, threads=1))

    def test_only_rank_steps_with_enough_parents_pool(self, monkeypatch):
        import outhom.enumerator as enumerator

        steps = []  # (parents, threads) of each rank step's map

        def recording_pmap(fn, items, threads):
            steps.append((len(items), threads))
            return map(fn, items)

        monkeypatch.setattr(enumerator, "pmap", recording_pmap)
        level = cubic_level(7, threads=2)
        assert steps == [(1, 1), (2, 1), (5, 1), (16, 1), (66, 1)]
        # the step to rank 8 has one parent per class of rank 7
        assert len(level) >= enumerator.POOL_MIN_PARENTS
        steps.clear()
        monkeypatch.setattr(enumerator, "POOL_MIN_PARENTS", 5)
        cubic_level(6, threads=2)
        assert steps == [(1, 1), (2, 1), (5, 2), (16, 2)]

    def test_search_count(self, monkeypatch):
        # 3172 insertions (one per orbit of edge pairs), and the edge
        # invariant leaves at most 700 of them for a canonical search
        import outhom.enumerator as enumerator

        real = enumerator.canonical_labeling
        calls = []
        monkeypatch.setattr(
            enumerator, "canonical_labeling", lambda g: calls.append(g) or real(g)
        )
        real_insert = enumerator._insert_edge
        inserts = []
        monkeypatch.setattr(
            enumerator, "_insert_edge",
            lambda g, e, f: inserts.append((e, f)) or real_insert(g, e, f),
        )
        assert len(cubic_level(7)) == 365
        assert len(calls) <= 700
        assert len(inserts) == 3172

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_insertion_per_orbit_of_pairs(self, n, monkeypatch):
        # the pairs {e <= f} that ``_children`` inserts at are one per orbit
        # of the whole edge group, lifts and parallel swaps, of each parent
        import outhom.enumerator as enumerator

        real_insert = enumerator._insert_edge
        inserts = []
        monkeypatch.setattr(
            enumerator, "_insert_edge",
            lambda g, e, f: inserts.append((e, f)) or real_insert(g, e, f),
        )
        for parent in cubic_level(n).values():
            inserts.clear()
            _children(parent)
            e_cnt = parent.canon.edge_count
            group = _edge_group(full_edge_generators(parent)) or {tuple(range(e_cnt))}
            orbits = {
                frozenset(tuple(sorted((g[e], g[f]))) for g in group)
                for e in range(e_cnt)
                for f in range(e, e_cnt)
            }
            met = set(inserts)
            assert len(met) == len(inserts) == len(orbits)
            assert all(len(orbit & met) == 1 for orbit in orbits)

    def test_repeated_key_raises(self, monkeypatch):
        import outhom.enumerator as enumerator

        real = enumerator._children
        monkeypatch.setattr(enumerator, "_children", lambda parent: real(parent) * 2)
        with pytest.raises(RuntimeError, match="twice"):
            cubic_level(4)

    def test_rank8_class_count(self):
        if not os.environ.get("OUTHOM_STRETCH"):
            pytest.skip("stretch target, set OUTHOM_STRETCH=1 to run")
        assert len(cubic_level(8)) == 2602


class TestClassOnFirstKey:
    """A class is built on the first labeling of its key, which canonical
    augmentation makes the only one.  Its canonical form and key are those
    of canonicalizing every insertion, and its edge generators generate the
    same group, which is all that orbits and the next rank step read from
    them."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_same_classes_as_canonical_form(self, n, threads, monkeypatch):
        # pool every rank step, so threads=2 runs on the pool
        monkeypatch.setattr("outhom.enumerator.POOL_MIN_PARENTS", 1)
        reference = sorted(_unpruned_level(n).values(), key=lambda c: c.canonical_key)
        graphs = enumerate_graphs(EnumSpec(n), threads)
        assert [g.canonical_key for g in graphs] == [c.canonical_key for c in reference]
        assert [g.canon for g in graphs] == [c.canon for c in reference]
        if n <= 5:
            for g, ref in zip(graphs, reference):
                assert _edge_group(g.edge_perm_generators) == _edge_group(
                    ref.edge_perm_generators
                )
        if threads > 1:
            # generators included, and in the same order
            serial = cubic_level(n, threads=1)
            assert list(cubic_level(n, threads=threads).items()) == list(serial.items())

    def test_children_are_first_labelings_per_key(self, trivalent_by_rank):
        keys = []
        for parent in trivalent_by_rank[4]:
            for lab in _children(parent):
                keys.append(lab.key)
                assert canonical_labeling(lab.canon).key == lab.key
                cls = lab.graph_class()
                edges = sorted(lab.canon.edges)
                for gen in cls.vertex_perm_generators:
                    image = sorted(tuple(sorted((gen[u], gen[v]))) for u, v in edges)
                    assert image == edges
        assert len(keys) == len(set(keys))
        assert sorted(keys) == [g.canonical_key for g in trivalent_by_rank[5]]


class TestCanonicalAugmentation:
    """Reducible edges, the inverse of insertion, as canonical augmentation
    reads them."""

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_smoothing_the_inserted_edge_gives_the_parent(self, rank):
        for parent, e, f, child in _insertions(rank):
            reduced = _smooth_out(child, child.edge_count - 1)
            assert canonical_labeling(reduced).key == parent.canonical_key, (e, f)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_reducible_edges_are_those_that_smooth_out(self, rank):
        # reducible: deleting and smoothing leaves a loopless bridgeless
        # cubic graph of one rank less
        for _, _, _, child in _insertions(rank):
            reducible = _reducible_edges(child)
            for pos, edge in enumerate(child.edges):
                facts = classify(_smooth_out(child, pos), rank)
                assert (edge in reducible) == (facts.admissible and facts.degree == 0)
