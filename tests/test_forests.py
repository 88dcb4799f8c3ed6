from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from outhom import forests
from outhom.chain import ClassStore
from outhom.enumerator import EnumSpec, enumerate_graphs
from outhom.forests import (
    ForestIndex,
    _inversion_masks,
    _mask_positions,
    block_key_of,
    forest_key,
    mask_order,
)
from outhom.multigraph import Multigraph, canonical_form
from reference_chain import normalize, perm_parity
from reference_enum import full_edge_generators


class TestNormalize:
    """Signs of ordered forests: ``ForestIndex.record`` times the parity of
    the sort, as ``reference_chain.normalize`` reads them."""

    def test_theta_single_edges_share_one_orbit(self, theta):
        fi = ForestIndex(theta)
        refs = [normalize(fi, [i]) for i in range(3)]
        assert len({r.key for r in refs}) == 1
        assert all(r.sign != 0 for r in refs)

    def test_singleton_never_zero(self, trivalent_by_rank):
        for cls in trivalent_by_rank[2] + trivalent_by_rank[3]:
            fi = ForestIndex(cls)
            for pos in range(cls.canon.edge_count):
                assert normalize(fi, [pos]).sign != 0

    def test_transposition_flips_sign(self, trivalent_by_rank):
        # exact antisymmetry over every 2-forest of every rank-3 graph
        seen_nonzero = 0
        for cls in trivalent_by_rank[3]:
            fi = ForestIndex(cls)
            for i, j in itertools.combinations(range(cls.canon.edge_count), 2):
                if not fi.is_acyclic([i, j]):
                    continue
                fwd = normalize(fi, [i, j])
                rev = normalize(fi, [j, i])
                assert fwd.key == rev.key
                assert fwd.sign == -rev.sign
                if fwd.sign != 0:
                    seen_nonzero += 1
        assert seen_nonzero > 0

    def test_doubled_4_cycle_odd_symmetry(self, doubled_4_cycle):
        mult = doubled_4_cycle.canon.multiplicity()
        singles = [
            pos
            for pos, e in enumerate(doubled_4_cycle.canon.edges)
            if mult[e] == 1
        ]
        assert len(singles) == 2
        ref = normalize(ForestIndex(doubled_4_cycle), singles)
        assert ref.sign == 0

    def test_orbit_transport_invariance(self, trivalent_by_rank):
        # applying an automorphism to an ordered forest changes nothing:
        # the generators of the whole group, lifts and parallel swaps
        rng = random.Random(7)
        for cls in trivalent_by_rank[4]:
            fi = ForestIndex(cls)
            gens = full_edge_generators(cls)
            if not gens:
                continue
            for _ in range(20):
                p = rng.randint(1, 3)
                subset = None
                for cand in fi.acyclic_subsets(p):
                    if rng.random() < 0.1:
                        subset = list(cand)
                        break
                if subset is None:
                    continue
                rng.shuffle(subset)
                image = subset
                for _ in range(rng.randint(1, 4)):
                    g = rng.choice(gens)
                    image = [g[i] for i in image]
                assert normalize(fi, image) == normalize(fi, subset)

    def test_empty_forest(self, theta):
        ref = normalize(ForestIndex(theta), [])
        assert ref.sign == 1 and ref.key == (theta.canonical_key, ())

    def test_cyclic_forest_rejected(self, theta):
        with pytest.raises(ValueError):
            normalize(ForestIndex(theta), [0, 1])

    def test_cyclic_forest_rejected_after_orbits_cached(self, trivalent_by_rank):
        # a cyclic set is rejected however many orbits were listed before
        for cls in trivalent_by_rank[3] + trivalent_by_rank[4]:
            fi = ForestIndex(cls)
            edges = cls.canon.edges
            cycles = [
                list(subset)
                for k in (2, 3, 4)
                for subset in itertools.combinations(range(len(edges)), k)
                if not fi.is_acyclic(subset)
            ]
            assert cycles
            for p in range(cls.canon.vertex_count):
                fi.orbit_representatives(p)
            for subset in cycles:
                with pytest.raises(ValueError):
                    normalize(fi, subset)
                with pytest.raises(ValueError):
                    normalize(ForestIndex(cls), subset[::-1])

    def test_duplicate_rejected(self, theta):
        with pytest.raises(ValueError):
            normalize(ForestIndex(theta), [0, 0])

    def test_key_names_the_representative(self, theta):
        assert normalize(ForestIndex(theta), [2]).key == (theta.canonical_key, (0,))


class TestOrbitEnumeration:
    def test_theta_p1_single_orbit_of_size_3(self, theta):
        reps = ForestIndex(theta).orbit_representatives(1)
        assert reps == [((0,), 3, False)]

    def test_theta_p2_empty(self, theta):
        assert ForestIndex(theta).orbit_representatives(2) == []

    def test_completeness_orbit_sizes(self, trivalent_by_rank):
        # sum of orbit sizes = number of acyclic subsets, every p, for every
        # class, contraction target and loop-bearing oracle class at n <= 4:
        # the walk visits collapsed subsets only, and each size multiplies
        # the index of the stabilizer in Q by the edges' class sizes
        for cls in _quotient_cases(trivalent_by_rank):
            fi = ForestIndex(cls)
            for p in range(cls.canon.vertex_count):
                subsets = sum(1 for _ in fi.acyclic_subsets(p))
                orbits = fi.orbit_representatives(p)
                assert sum(size for _, size, _ in orbits) == subsets

    def test_representatives_are_minimal_and_sorted(self, trivalent_by_rank):
        for cls in trivalent_by_rank[4]:
            fi = ForestIndex(cls)
            reps = [rep for rep, _, _ in fi.orbit_representatives(2)]
            assert reps == sorted(reps)
            for rep in reps:
                mask = sum(1 << i for i in rep)
                assert fi.record(mask)[0] == mask

    def test_loops_never_in_forests(self):
        rose = canonical_form(Multigraph(1, ((0, 0), (0, 0))))
        fi = ForestIndex(rose)
        assert fi.orbit_representatives(1) == []
        assert fi.orbit_representatives(0) == [((), 1, False)]


class TestForestBasis:
    def test_theta_bases(self, theta):
        fi = ForestIndex(theta)
        assert fi.orbit_representatives(0) == [((), 1, False)]
        (rep, size, zero), = fi.orbit_representatives(1)
        assert (size, zero) == (3, False)
        assert block_key_of(theta, rep) == b"V=1 E=0-0,0-0"
        assert fi.orbit_representatives(2) == []

    def test_negative_size_rejected(self, theta):
        with pytest.raises(ValueError):
            ForestIndex(theta).orbit_representatives(-1)


def _edge_group(gens, degree):
    identity = tuple(range(degree))
    group = {identity}
    frontier = [identity]
    while frontier:
        base = frontier.pop()
        for g in gens:
            composed = tuple(g[i] for i in base)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


def _brute_force_edge_group(g):
    """Every edge permutation induced by a vertex automorphism of ``g``,
    found by trying all vertex permutations; an edge may go to any position
    holding its image, so parallel edges are permuted freely."""
    edges = list(g.edges)
    group = set()
    for perm in itertools.permutations(range(g.vertex_count)):
        image = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
        if sorted(image) != sorted(edges):
            continue
        choices = [[j for j, f in enumerate(edges) if f == im] for im in image]
        for sigma in itertools.product(*choices):
            if len(set(sigma)) == len(sigma):
                group.add(sigma)
    return group


def _contraction_targets(trivalent_by_rank):
    """Each one-edge contraction of every class at n <= 4."""
    store = ClassStore()
    out = {}
    for n in (2, 3, 4):
        for cls in trivalent_by_rank[n]:
            for pos, (u, v) in enumerate(cls.canon.edges):
                if u != v:
                    target, _ = store.contract_one(cls, pos)
                    out.setdefault(target.canonical_key, target)
    return list(out.values())


def _classes_and_contractions(trivalent_by_rank):
    """Every class at n <= 4 and each of its one-edge contractions."""
    classes = [cls for n in (2, 3, 4) for cls in trivalent_by_rank[n]]
    return classes + _contraction_targets(trivalent_by_rank)


def _quotient_cases(trivalent_by_rank):
    """Every class at n <= 4, each of its one-edge contractions and every
    class of the full complex at n <= 4 (loops and parallel edges), each
    once."""
    from outhom.pipeline import oracle_graphs

    cases = _classes_and_contractions(trivalent_by_rank)
    cases += [cls for n in (2, 3, 4) for cls in oracle_graphs(n)]
    return list({cls.canonical_key: cls for cls in cases}.values())


def _lifts(fi):
    """The non-identity elements of Q that ``fi`` scans, as permutations,
    read off the image bits of their tables."""
    full = (1 << fi.edge_count) - 1
    return [
        tuple((w & full).bit_length() - 1 for w in table)
        for table in fi._group_tables()
    ]


def _brute_force_record(group, subset):
    """``(rep, parity, zero, size)`` of the orbit of ``subset`` under the
    whole ``group``: the smallest image mask, the parity of the order an
    element reaching it puts on ``subset``, whether an element fixing the
    set permutes it oddly, and the number of images."""
    mask = sum(1 << i for i in subset)
    images = {}
    zero = False
    for g in group:
        image = [g[i] for i in subset]
        parity = perm_parity(image)
        key = sum(1 << i for i in image)
        if key == mask and parity == -1:
            zero = True
        images.setdefault(key, parity)
    rep = min(images)
    return rep, images[rep], zero, len(images)


class TestGeneratingSet:
    """The orbit scan lists the group from a generating subset and reads
    parity by popcount; it must agree with the whole automorphism group and
    the plain inversion count."""

    def test_same_edge_group(self, trivalent_by_rank):
        for cls in _classes_and_contractions(trivalent_by_rank):
            e = cls.canon.edge_count
            generated = _edge_group(full_edge_generators(cls), e)
            assert generated == _brute_force_edge_group(cls.canon)

    def test_orbit_info_matches_brute_force(self, trivalent_by_rank):
        # ``record`` on every acyclic subset of every class and contraction
        # target at n <= 4, including the empty and one-edge masks that list
        # no group, and the orbit sizes and zero flags of
        # ``orbit_representatives``
        zeros = 0
        for cls in _classes_and_contractions(trivalent_by_rank):
            group = _edge_group(full_edge_generators(cls), cls.canon.edge_count)
            fi = ForestIndex(cls)
            for p in range(cls.canon.vertex_count):
                reps = []
                for subset in fi.acyclic_subsets(p):
                    mask = sum(1 << i for i in subset)
                    rep, parity, zero, size = _brute_force_record(group, subset)
                    rep_mask, got_parity, got_zero = fi.record(mask)
                    assert (rep_mask, got_zero) == (rep, zero)
                    if not zero:
                        assert got_parity == parity
                    if rep == mask:
                        reps.append((subset, size, zero))
                    zeros += zero
                assert fi.orbit_representatives(p) == reps
        assert zeros > 0

    def test_group_scan_matches_brute_force(self, trivalent_by_rank):
        # the scan the boundary kernel reads, ``orbit`` with no acyclicity
        # check, on every collapsed acyclic subset (each edge the first of
        # its parallel class) of every contraction target at n <= 4,
        # against the whole edge group
        zeros = nontrivial = skipped = 0
        for cls in _contraction_targets(trivalent_by_rank):
            group = _edge_group(full_edge_generators(cls), cls.canon.edge_count)
            nontrivial += len(group) > 1
            fi = ForestIndex(cls)
            for p in range(cls.canon.vertex_count):
                for subset in fi.acyclic_subsets(p):
                    if any(cls.first[i] != i for i in subset):
                        skipped += 1
                        continue
                    mask = sum(1 << i for i in subset)
                    rep, parity, zero, _ = _brute_force_record(group, subset)
                    got_rep, got_parity, got_zero = fi.orbit(mask)
                    assert (got_rep, got_zero) == (rep, zero)
                    if not zero:
                        assert got_parity == parity
                    zeros += zero
        assert zeros > 0 and nontrivial > 0 and skipped > 0

    def test_group_is_lifts_times_parallel_swaps(self, trivalent_by_rank):
        # G = Q ⋉ P, P the permutations inside parallel classes, and the
        # class lists generators of Q only, which the scan lists: |G| = |Q|
        # * prod |C|! over the classes ``first`` gives, and every element of
        # Q keeps each edge's rank within its class, so Q meets P only in
        # the identity
        parallel = loops = 0
        for cls in _quotient_cases(trivalent_by_rank):
            e = cls.canon.edge_count
            fi = ForestIndex(cls)
            first = cls.first
            group = _edge_group(full_edge_generators(cls), e)
            lifts = _lifts(fi)
            assert len(set(lifts)) == len(lifts) and set(lifts) <= group
            assert set(lifts) | {tuple(range(e))} == _edge_group(cls.edge_perm_generators, e)
            swaps = 1
            for size in Counter(first).values():
                swaps *= math.factorial(size)
            assert len(group) == (len(lifts) + 1) * swaps
            for g in lifts:
                assert all(g[i] - first[g[i]] == i - first[i] for i in range(e))
                assert any(first[g[i]] != first[i] for i in range(e))
            parallel += swaps > 1
            loops += any(u == v for u, v in cls.canon.edges)
        assert parallel and loops


def test_mask_order_is_forest_key_order():
    # same-size subsets of up to 18 positions (3n - 3 edges at n = 7):
    # ordering by mask_order is ordering by the ascending position tuple
    rng = random.Random(18)
    for _ in range(300):
        e = rng.randint(1, 18)
        size = rng.randint(0, e)
        subsets = {tuple(sorted(rng.sample(range(e), size))) for _ in range(rng.randint(1, 40))}
        masks = [sum(1 << i for i in s) for s in subsets]
        width = (e + 7) // 8
        by_order = sorted(masks, key=lambda m: mask_order(m, width))
        assert [forest_key(b"G", m) for m in by_order] == sorted(
            (b"G", s) for s in subsets
        )


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


class TestKernel:
    """The bit-operation kernel against plain reference loops."""

    @staticmethod
    def _reference_subsets(cls, p):
        """``itertools.combinations`` filtered by a fresh union-find."""
        edges = cls.canon.edges
        out = []
        for subset in itertools.combinations(range(len(edges)), p):
            parent = list(range(cls.canon.vertex_count))
            for i in subset:
                ru, rv = _root(parent, edges[i][0]), _root(parent, edges[i][1])
                if ru == rv:
                    break
                parent[ru] = rv
            else:
                out.append(subset)
        return out

    @staticmethod
    def _recursive_representatives(cls, p):
        """Orbit representatives from the recursive depth-first walk, with
        their orbit sizes and zero flags from the whole edge group."""
        group = _edge_group(full_edge_generators(cls), cls.canon.edge_count)
        edges = cls.canon.edges
        e = len(edges)
        parent = list(range(cls.canon.vertex_count))
        out = []

        def extend(start, chosen):
            if chosen == p:
                yield tuple(out)
                return
            for i in range(start, e - (p - chosen) + 1):
                ru, rv = _root(parent, edges[i][0]), _root(parent, edges[i][1])
                if ru == rv:
                    continue
                parent[ru] = rv
                out.append(i)
                yield from extend(i + 1, chosen + 1)
                out.pop()
                parent[ru] = ru

        reps = []
        for subset in extend(0, 0):
            mask = sum(1 << i for i in subset)
            rep, _, zero, size = _brute_force_record(group, subset)
            if rep == mask:
                reps.append((subset, size, zero))
        return reps

    @pytest.fixture(scope="class")
    def rank6(self):
        return enumerate_graphs(EnumSpec(6))

    @pytest.fixture(scope="class")
    def largest_group_n7(self):
        """The n = 7 class with the largest edge automorphism group."""
        return max(
            enumerate_graphs(EnumSpec(7)),
            key=lambda c: len(_edge_group(full_edge_generators(c), c.canon.edge_count)),
        )

    def test_acyclic_subsets_match_combinations(self, trivalent_by_rank, rank6):
        cases = [
            (cls, p)
            for n in (2, 3, 4, 5)
            for cls in trivalent_by_rank[n]
            for p in range(cls.canon.edge_count + 2)
        ]
        cases += [(cls, p) for cls in rank6 for p in (1, 8, 9)]
        for cls, p in cases:
            got = list(ForestIndex(cls).acyclic_subsets(p))
            assert got == self._reference_subsets(cls, p), (cls.canonical_key, p)

    def test_orbit_representatives_match_recursive_walk(
        self, trivalent_by_rank, largest_group_n7
    ):
        # the scan stops early on a non-representative and reads the orbit
        # size off the stabilizer; both against the whole group, including
        # the n = 7 class whose group has 768 elements
        big = largest_group_n7
        assert len(_edge_group(full_edge_generators(big), big.canon.edge_count)) == 768
        cases = [
            (cls, p)
            for n in (2, 3, 4, 5)
            for cls in trivalent_by_rank[n]
            for p in range(cls.canon.vertex_count)
        ]
        cases += [(big, 2), (big, 3)]
        zeros = 0
        for cls, p in cases:
            expected = self._recursive_representatives(cls, p)
            assert ForestIndex(cls).orbit_representatives(p) == expected
            zeros += sum(zero for _, _, zero in expected)
        assert zeros > 0

    def test_largest_n7_group_scans_12_lifts(self, largest_group_n7):
        # the 768-element group has six doubled edges: 2^6 parallel swaps
        # times 12 lifts; the class's generators generate the 12, and the
        # scan lists them
        big = largest_group_n7
        e = big.canon.edge_count
        assert len(_edge_group(full_edge_generators(big), e)) == 768
        assert sorted(Counter(big.canon.edges).values()) == [1] * 6 + [2] * 6
        assert len(_edge_group(big.edge_perm_generators, e)) == 12
        assert len(ForestIndex(big)._group_tables()) + 1 == 12

    def test_mask_positions_match_bit_loop(self):
        rng = random.Random(11)
        for _ in range(2000):
            mask = rng.getrandbits(rng.randint(0, 40))
            expected = [i for i in range(40) if mask >> i & 1]
            assert _mask_positions(mask) == expected

    def test_xor_parity_equals_inversion_count(self):
        rng = random.Random(5)
        degree = 18
        gen = list(range(degree))
        rng.shuffle(gen)
        inv = _inversion_masks(gen)
        assert inv == [
            sum(1 << j for j in range(i + 1, degree) if gen[j] < gen[i])
            for i in range(degree)
        ]
        for _ in range(500):
            subset = sorted(rng.sample(range(degree), rng.randint(0, degree)))
            s = sum(1 << i for i in subset)
            x = 0
            for i in subset:
                x ^= inv[i]
            image = [gen[i] for i in subset]
            inversions = sum(
                1
                for a in range(len(image))
                for b in range(a + 1, len(image))
                if image[a] > image[b]
            )
            assert (x & s).bit_count() & 1 == inversions & 1

    def test_inversion_masks_of_partial_maps(self, trivalent_by_rank):
        # a position mapped to None gets 0 and takes part in no inversion,
        # and two positions with one image make none
        rng = random.Random(7)
        for k in range(600):
            degree = rng.randint(0, 12)
            images = list(range(degree))
            rng.shuffle(images)
            if k & 1:
                images = [rng.randrange(degree) for _ in images]
            for i in rng.sample(range(degree), rng.randint(0, degree)):
                images[i] = None
            assert _inversion_masks(images) == [
                0 if m is None else sum(
                    1 << j
                    for j in range(i + 1, degree)
                    if images[j] is not None and images[j] < m
                )
                for i, m in enumerate(images)
            ]
        # every map the scan and the assembly pass in is injective on every
        # forest, as the XOR of image bits needs, at n <= 4: the elements of
        # Q are permutations, and a one-edge contraction's map followed by
        # the target's collapse repeats an image only on positions that no
        # forest holding the contracted edge holds together
        store = ClassStore()
        repeating = 0
        for cls in _classes_and_contractions(trivalent_by_rank):
            e = cls.canon.edge_count
            fi = ForestIndex(cls)
            for g in _lifts(fi):
                assert sorted(g) == list(range(e))
            for pos, (u, v) in enumerate(cls.canon.edges):
                if u == v:
                    continue
                target, pos_map = store.contract_one(cls, pos)
                first = target.first
                images = [None if m is None else first[m] for m in pos_map]
                taken = [m for m in images if m is not None]
                assert all(0 <= m < target.canon.edge_count for m in taken)
                repeating += len(set(taken)) < len(taken)
                for p in range(2, cls.canon.vertex_count):
                    for forest in fi.acyclic_subsets(p):
                        if pos in forest:
                            moved = [images[i] for i in forest if i != pos]
                            assert len(set(moved)) == len(moved)
        assert repeating

    def test_low_forests_list_no_group(self, monkeypatch):
        # a single edge has no sign: a profile of p <= 1 never lists a group
        from outhom.pipeline import compute_rank_profile

        calls = []
        real = forests._group_elements
        monkeypatch.setattr(
            forests, "_group_elements", lambda *a: calls.append(a) or real(*a)
        )
        rp = compute_rank_profile(7, p_range=[0, 1])
        assert rp.a[:2] == [365, 3712] and not rp.holes
        assert calls == []

    def test_one_edge_lookups_list_no_group(self, trivalent_by_rank, monkeypatch):
        # a profile of p = 1, 2 lists the group of each basis class once, for
        # the p = 2 basis; the one-edge masks that the p = 2 contraction and
        # removal terms look up list none (a scan would list 54 at n = 5)
        from outhom.pipeline import compute_rank_profile

        calls = []
        real = forests._group_elements
        monkeypatch.setattr(
            forests, "_group_elements", lambda *a: calls.append(a) or real(*a)
        )
        rp = compute_rank_profile(5, p_range=[1, 2])
        assert rp.a[1:3] == [64, 166] and not rp.holes
        assert len(calls) == len(trivalent_by_rank[5])

    def test_profile_lists_each_group_once(self, trivalent_by_rank, monkeypatch):
        # the store keeps each class's index for the whole profile, so every
        # level's basis build and assembly share one listing per class: the
        # 16 trivalent classes and the 38 contraction targets whose group a
        # lookup needs
        from outhom.pipeline import compute_rank_profile

        calls = []
        real = forests._group_elements
        monkeypatch.setattr(
            forests, "_group_elements", lambda *a: calls.append(a) or real(*a)
        )
        rp = compute_rank_profile(5)
        assert rp.a[0] == len(trivalent_by_rank[5]) == 16 and not rp.holes
        assert len(calls) == 54

    def test_boundary_targets_are_forests(self, bases_by_rank, monkeypatch):
        """The assembly looks target orbits up without the acyclicity check
        and the collapse of ``record``; every target it meets at n <= 5 is a
        forest with each edge the first of its parallel class."""
        from outhom.chain import boundary_contract, boundary_remove

        real = ForestIndex.orbit
        met = 0

        def orbit(fi, mask):
            nonlocal met
            met += 1
            positions = _mask_positions(mask)
            assert fi.is_acyclic(positions), (fi.graph.canonical_key, mask)
            assert all(fi.graph.first[i] == i for i in positions), (fi.graph.canonical_key, mask)
            return real(fi, mask)

        monkeypatch.setattr(ForestIndex, "orbit", orbit)
        for n in (2, 3, 4, 5):
            bases = bases_by_rank[n]
            store = ClassStore()
            for p, basis in enumerate(bases):
                boundary_contract(basis, store)
                boundary_remove(basis, bases[p - 1] if p else None, store)
        assert met
