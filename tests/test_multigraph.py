from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outhom.enumerator import EnumSpec, enumerate_graphs
from outhom.forests import ForestIndex
from outhom.multigraph import (
    Multigraph,
    _edge_map_under,
    apply_vertex_perm,
    canonical_form,
    canonical_labeling,
    contract_edges,
    contract_one_edge,
)
from reference_chain import contract_edges_mapped
from reference_enum import classify, full_edge_generators


def _generated_group(gens, degree):
    """All permutations generated by gens (tiny groups only)."""
    identity = tuple(range(degree))
    group = {identity}
    frontier = [identity]
    while frontier:
        base = frontier.pop()
        for g in gens:
            composed = tuple(g[base[i]] for i in range(degree))
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


class TestConstruction:
    def test_edges_normalized_and_sorted(self):
        g = Multigraph(3, ((2, 0), (1, 0), (2, 1)))
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 2),))

    def test_text_round_trip(self):
        g = Multigraph(3, ((0, 0), (0, 1), (0, 1), (1, 2)))
        assert Multigraph.from_text(g.to_text()) == g

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError):
            Multigraph.from_text("V=x E=0-1")


class TestClassify:
    def test_theta(self):
        facts = classify(Multigraph(2, ((0, 1),) * 3), 2)
        assert facts.rank == 2 and facts.degree == 0 and facts.admissible

    def test_k4(self):
        k4 = Multigraph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
        facts = classify(k4, 3)
        assert facts.rank == 3 and facts.degree == 0 and facts.admissible

    def test_two_loop_rose(self):
        facts = classify(Multigraph(1, ((0, 0), (0, 0))), 2)
        assert not facts.loopless and not facts.admissible and facts.rank == 2

    def test_disconnected_has_no_rank(self):
        g = Multigraph(4, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)))
        facts = classify(g, 2)
        assert not facts.connected and facts.rank is None and not facts.admissible

    def test_bridge_detected(self):
        # two triangle-with-doubled-edge blobs joined by a single edge
        blob = [(0, 1), (0, 1), (1, 2), (0, 2)]
        other = [(u + 3, v + 3) for u, v in blob]
        g = Multigraph(6, tuple(blob + other + [(2, 5)]))
        facts = classify(g, 4)
        assert facts.connected and not facts.bridgeless and not facts.admissible


class TestCanonicalForm:
    def test_theta_key_stable_and_edge_group_full(self, theta):
        base = Multigraph(2, ((0, 1),) * 3)
        for perm in itertools.permutations(range(2)):
            assert canonical_form(apply_vertex_perm(base, perm)).canonical_key == theta.canonical_key
        # the vertex swap lifts to the identity, so Q is trivial, and the
        # parallel swaps make up the whole group S3
        assert theta.edge_perm_generators == () and theta.first == (0, 0, 0)
        group = _generated_group(full_edge_generators(theta), 3)
        assert group == set(itertools.permutations(range(3)))

    def test_k4_key_stable_under_all_24_perms(self, k4):
        base = k4.canon
        keys = {
            canonical_form(apply_vertex_perm(base, perm)).canonical_key
            for perm in itertools.permutations(range(4))
        }
        assert keys == {k4.canonical_key}

    def test_k4_vertex_group_order(self, k4):
        group = _generated_group(k4.vertex_perm_generators, 4)
        assert len(group) == 24

    def test_idempotent(self, k4, theta):
        for cls in (k4, theta):
            again = canonical_form(cls.canon)
            assert again.canonical_key == cls.canonical_key
            assert again.canon == cls.canon

    def test_random_rank4_graph_1000_relabelings(self):
        rng = random.Random(20160118)
        graphs = enumerate_graphs(EnumSpec(4))
        cls = rng.choice(graphs)
        keys = set()
        for _ in range(1000):
            perm = list(range(cls.canon.vertex_count))
            rng.shuffle(perm)
            keys.add(canonical_form(apply_vertex_perm(cls.canon, perm)).canonical_key)
        assert keys == {cls.canonical_key}

    def test_generators_fix_canon(self, trivalent_by_rank):
        for cls in trivalent_by_rank[3] + trivalent_by_rank[4]:
            for sigma in cls.vertex_perm_generators:
                assert apply_vertex_perm(cls.canon, sigma).edges == cls.canon.edges
            for pi in cls.edge_perm_generators:
                assert sorted(cls.canon.edges[i] for i in pi) == list(cls.canon.edges)

    def test_loop_graph_canonicalizes(self):
        g = Multigraph(2, ((0, 0), (0, 1), (1, 1), (0, 1)))
        cls = canonical_form(g)
        assert cls.canonical_key
        flipped = apply_vertex_perm(g, (1, 0))
        assert canonical_form(flipped).canonical_key == cls.canonical_key


@st.composite
def small_multigraphs(draw):
    v = draw(st.integers(min_value=1, max_value=6))
    pairs = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
    edges = draw(st.lists(pairs, min_size=0, max_size=10))
    return Multigraph(v, tuple(edges))


class TestCanonicalProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_multigraphs(), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, g, rng):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert (
            canonical_form(apply_vertex_perm(g, perm)).canonical_key
            == canonical_form(g).canonical_key
        )


class TestContraction:
    def test_theta_single_edge(self):
        theta = Multigraph(2, ((0, 1),) * 3)
        contracted = contract_edges(theta, [0])
        assert contracted == Multigraph(1, ((0, 0), (0, 0)))

    def test_k4_single_edge(self):
        k4 = Multigraph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
        contracted = contract_edges(k4, [0])
        assert contracted.vertex_count == 3 and contracted.edge_count == 5
        assert sorted(contracted.valences()) == [3, 3, 4]
        assert classify(contracted, 3).degree == 1

    def test_out_of_range_position(self):
        with pytest.raises(IndexError):
            contract_edges(Multigraph(2, ((0, 1),)), [5])

    def test_position_map_identity_preserved(self):
        theta = Multigraph(2, ((0, 1),) * 3)
        contracted, pos_map = contract_one_edge(theta, 1)
        assert pos_map[1] is None
        kept = [pos_map[0], pos_map[2]]
        assert sorted(kept) == [0, 1]
        assert contracted.edge_count == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_edge_matches_the_union_find(self, n):
        # every edge of every class of the closure with loops: a non-loop
        # edge contracts as under the union-find, a loop raises
        loops = 0
        for cls in enumerate_graphs(EnumSpec(n, 2 * n - 3, allow_loops=True)):
            g = cls.canon
            for pos, (u, v) in enumerate(g.edges):
                if u == v:
                    loops += 1
                    with pytest.raises(ValueError):
                        contract_one_edge(g, pos)
                else:
                    assert contract_one_edge(g, pos) == contract_edges_mapped(g, [pos])
        assert loops > 0

    def test_one_edge_out_of_range_position(self):
        with pytest.raises(IndexError):
            contract_one_edge(Multigraph(2, ((0, 1),)), 1)

    def test_unchecked_graphs_pass_the_checked_constructor(self, trivalent_by_rank):
        # contraction and the canonical labeling build their graphs without
        # normalizing or range-checking; the checked constructor must give
        # back the same edge tuple for each
        rng = random.Random(5)
        for graphs in trivalent_by_rank.values():
            for cls in graphs:
                for pos in range(cls.canon.edge_count):
                    perm = list(range(cls.canon.vertex_count))
                    rng.shuffle(perm)
                    g = apply_vertex_perm(cls.canon, perm)
                    contracted = contract_edges(g, [pos])
                    canon = canonical_labeling(contracted).canon
                    for h in (contracted, canon):
                        assert Multigraph(h.vertex_count, h.edges).edges == h.edges

    def test_every_forest_of_every_rank3_graph(self, trivalent_by_rank):
        # exhaustive oracle: contraction bookkeeping over all forests
        for cls in trivalent_by_rank[3]:
            g = cls.canon
            index = ForestIndex(cls)
            for p in range(g.vertex_count):
                for subset in index.acyclic_subsets(p):
                    contracted = contract_edges(g, subset)
                    facts = classify(contracted, 3)
                    assert facts.connected and facts.bridgeless
                    assert facts.rank == 3
                    assert facts.degree == 0 + len(subset)
                    assert contracted.vertex_count == g.vertex_count - len(subset)
                    assert contracted.edge_count == g.edge_count - len(subset)


def _reference_search(g):
    """The unpruned search: every leaf of the refinement tree, the minimal
    edge list, and every leaf permutation reaching it, in search order."""
    v_cnt = g.vertex_count
    mult = [[0] * v_cnt for _ in range(v_cnt)]
    loops = [0] * v_cnt
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] += 1
            mult[v][u] += 1
    adj = [[v for v in range(v_cnt) if mult[u][v]] for u in range(v_cnt)]

    def refine(cells):
        while True:
            cell_of = [0] * v_cnt
            for ci, cell in enumerate(cells):
                for v in cell:
                    cell_of[v] = ci
            new_cells = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                sigs = {}
                for v in cell:
                    sig = (
                        tuple(sorted((cell_of[u], mult[v][u]) for u in adj[v])),
                        loops[v],
                    )
                    sigs.setdefault(sig, []).append(v)
                changed |= len(sigs) > 1
                new_cells.extend(sigs[sig] for sig in sorted(sigs))
            cells = new_cells
            if not changed:
                return cells

    leaves = []

    def search(cells):
        cells = refine(cells)
        target = next((ci for ci, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            perm = [0] * v_cnt
            for pos, cell in enumerate(cells):
                perm[cell[0]] = pos
            edges = tuple(sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges
            ))
            leaves.append((edges, tuple(perm)))
            return
        cell = cells[target]
        for v in cell:
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:])

    val = g.valences()
    initial = {}
    for v in range(v_cnt):
        initial.setdefault((val[v], loops[v]), []).append(v)
    search([initial[k] for k in sorted(initial)])
    best = min(edges for edges, _ in leaves)
    return best, [perm for edges, perm in leaves if edges == best]


def _reference_mapped(g):
    """Canon, vertex map, edge map and whole vertex automorphism group of the
    canon, as the unpruned search gives them."""
    best, perms = _reference_search(g)
    canon = Multigraph(g.vertex_count, best)
    perm0 = perms[0]
    inv0 = [0] * len(perm0)
    for i, p in enumerate(perm0):
        inv0[p] = i
    group = {tuple(perm[inv0[x]] for x in range(len(perm0))) for perm in perms}
    return canon, perm0, _edge_map_under(g, canon, perm0), group


def _assert_matches_reference(g):
    lab = canonical_labeling(g)
    cls, vertex_map, edge_map = lab.graph_class(), lab.vertex_map, lab.edge_map(g)
    canon, ref_vertex_map, ref_edge_map, group = _reference_mapped(g)
    assert cls.canon == canon
    assert vertex_map == ref_vertex_map
    assert edge_map == ref_edge_map
    assert _generated_group(cls.vertex_perm_generators, g.vertex_count) == group
    if g.vertex_count <= 6:
        brute = sum(
            1
            for perm in itertools.permutations(range(g.vertex_count))
            if apply_vertex_perm(g, perm) == g
        )
        assert len(group) == brute


class TestPrunedSearch:
    """The automorphism-pruned search gives the canon, maps and group of the
    unpruned one."""

    def test_classes_and_contractions_up_to_rank5(self, trivalent_by_rank):
        checked = 0
        for graphs in trivalent_by_rank.values():
            for cls in graphs:
                _assert_matches_reference(cls.canon)
                for pos, (u, v) in enumerate(cls.canon.edges):
                    if u != v:
                        _assert_matches_reference(contract_edges(cls.canon, [pos]))
                        checked += 1
        assert checked > 100

    def test_relabeled_classes(self, trivalent_by_rank):
        rng = random.Random(11)
        for cls in trivalent_by_rank[4] + trivalent_by_rank[5]:
            perm = list(range(cls.canon.vertex_count))
            rng.shuffle(perm)
            _assert_matches_reference(apply_vertex_perm(cls.canon, perm))

    @settings(max_examples=200, deadline=None)
    @given(small_multigraphs())
    def test_small_multigraphs(self, g):
        _assert_matches_reference(g)


def _star(m):
    """K_{1,m}: the hub 0 and m leaves."""
    return Multigraph(m + 1, tuple((0, i) for i in range(1, m + 1)))


def _hub(m):
    """A hub joined by m parallel edges to each of three leaves, which make
    up one cell."""
    return Multigraph(4, tuple((0, i) for i in range(1, 4) for _ in range(m)))


def _rose(loops):
    return Multigraph(1, ((0, 0),) * loops)


def _carry(w):
    """Two vertices a = 0 and b = 1 of valence 2w + 1, the largest, that a
    base-w signature orders the wrong way round.

    a has w double edges into the valence-2 cell and one edge into the
    valence-3 cell; b has one edge into the valence-2 cell and 2w into the
    valence-4 cell.  As sorted (cell, multiplicity) tuples b comes first,
    by its single edge into the valence-2 cell.  In base w, a's w double
    edges carry into the digit of that single edge, and a's edge into the
    valence-3 cell then puts a first.
    """
    a, b = 0, 1
    xa = list(range(2, w + 2))
    xb, y = w + 2, w + 3
    zs = list(range(w + 4, 3 * w + 4))
    leaves = iter(range(3 * w + 4, 5 * w + 7))
    edges = [(a, x) for x in xa for _ in range(2)]
    edges += [(b, xb), (xb, next(leaves))]
    edges += [(a, y), (y, next(leaves)), (y, next(leaves))]
    for i, z in enumerate(zs):
        edges += [(b, z), (z, zs[(i + 1) % len(zs)]), (z, next(leaves))]
    g = Multigraph(5 * w + 7, tuple(edges))
    # a and b have the largest valence, so base w is at most half of it
    val = g.valences()
    assert val[a] == val[b] == max(val) == 2 * w + 1
    assert sorted(set(val)) == [1, 2, 3, 4, 2 * w + 1]
    return g


class TestSignatureWeights:
    """Refinement's integer signatures order each cell as the sorted
    (cell, multiplicity) tuples of the unpruned reference search do: on
    valences at and next to powers of two, on multiplicities up to 4, on
    loops alone, and on the ``_carry`` graphs.

    Those pin the base of the signatures: with a base of at most half the
    largest valence, ``_carry(w)`` reorders a cell.  A carry out of a
    multiplicity-1 digit lands in its cell's unused multiplicity-0 digit
    and reorders nothing, so a base of at least 2 above half the largest
    valence orders every cell as the base above the largest valence does.
    """

    GRAPHS = (
        [_star(m) for m in (3, 4, 7, 8)]
        + [_hub(m) for m in (1, 2, 3, 4)]
        + [_rose(loops) for loops in range(1, 6)]
        + [_carry(w) for w in (2, 4)]
    )

    @pytest.mark.parametrize("index", range(len(GRAPHS)))
    def test_deterministic_graphs(self, index):
        g = self.GRAPHS[index]
        _assert_matches_reference(g)
        rng = random.Random(index)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        _assert_matches_reference(apply_vertex_perm(g, perm))

    def test_every_class_of_rank4_with_loops(self):
        rng = random.Random(4)
        graphs = enumerate_graphs(EnumSpec(4, max_degree=5, allow_loops=True))
        for cls in graphs:
            g = cls.canon
            _assert_matches_reference(g)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            _assert_matches_reference(apply_vertex_perm(g, perm))
        assert any(u == v for cls in graphs for u, v in cls.canon.edges)


def test_every_search_goes_through_the_module_search(monkeypatch, trivalent_by_rank):
    """Each entry point searches through ``multigraph._canonical_search`` as
    looked up on the module, once per graph it labels; there is no second
    search path."""
    import outhom.multigraph as multigraph
    from outhom.chain import ClassStore
    from outhom.enumerator import _children, cubic_level
    from outhom.forests import block_key_of

    real = multigraph._canonical_search
    calls = []
    monkeypatch.setattr(
        multigraph, "_canonical_search", lambda g: calls.append(g) or real(g)
    )
    cls = trivalent_by_rank[4][0]
    g = cls.canon
    for label in (canonical_form, canonical_labeling):
        calls.clear()
        label(g)
        assert calls == [g]
    calls.clear()
    ClassStore().contract_one(cls, 0)
    assert calls == [contract_edges(g, [0])]
    calls.clear()
    block_key_of(cls, (0,))
    assert calls == [contract_edges(g, [0])]
    calls.clear()
    labelings = _children(cls)
    assert len(calls) >= len(labelings) > 0
    calls.clear()
    cubic_level(4)
    assert calls
