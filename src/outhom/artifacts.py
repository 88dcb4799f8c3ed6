"""The artifact store: names, formats, writes and loads of every cache file.

Every file is written under a temporary name and renamed into place.  Every
load is checked before it is served, caps first; a file that fails a check
is recomputed, and the files built on it are deleted so they are rebuilt
too.  README.md ("Cache layout") lists the files and the checks.
"""

from __future__ import annotations

from itertools import pairwise
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .chain import ChainBasis, ClassStore, SparseIntMat, assemble, build_chain_basis
from .enumerator import MAX_CLASSES, EnumSpec, ResourceCapError, enumerate_graphs
from .forests import ForestedGraph, ForestKey
from .multigraph import GraphClass, Multigraph, canonical_labeling


# the (kind, scale) parts of each boundary matrix, as ``assemble`` takes them
_PARTS = {"dc": (("contract", 1),), "dr": (("remove", 1),)}


def label_text(key: ForestKey) -> str:
    """The one text form of a forested-graph key: ``<graph line> | F=<forest>``."""
    return f"{key[0].decode('ascii')} | F={','.join(map(str, key[1]))}"


def parse_label(line: str) -> ForestKey:
    """Inverse of :func:`label_text`; raises ``ValueError`` on a bad line."""
    gtext, ftext = line.split(" | F=")
    return (gtext.encode("ascii"), tuple(int(x) for x in ftext.split(",")) if ftext else ())


class ArtifactStore:
    """The files of one cache directory; with ``None`` nothing is kept."""

    def __init__(self, cache_dir: Optional[str]) -> None:
        self.root = None if cache_dir is None else Path(cache_dir)

    def graphs(self, spec: EnumSpec, threads: int = 1) -> list[GraphClass]:
        """The classes of ``spec``, sorted by canonical key."""
        loops = "-loops" if spec.allow_loops else ""
        mode = "trivalent" if spec.trivalent and not loops else f"maxdeg{spec.max_degree}{loops}"
        name = f"graphs-n{spec.n}-{mode}"
        lines = self._read(f"{name}.txt")
        if lines is not None:
            if len(lines) > MAX_CLASSES:
                raise ResourceCapError(f"class cap {MAX_CLASSES} exceeded", len(lines))
            graphs = _canonical_classes(lines)
            if graphs is not None:
                return graphs
            if mode == "trivalent":
                self._drop(*(f"{kind}-n{spec.n}-p*" for kind in ("basis", "dc", "dr")))
        graphs = enumerate_graphs(spec, threads)
        if self.root is not None:
            self._write(f"{name}.txt", [g.canonical_key.decode("ascii") for g in graphs])
        return graphs

    def basis(
        self, n: int, p: int, graphs: Sequence[GraphClass], store: ClassStore,
        max_basis: Optional[int] = None,
    ) -> ChainBasis:
        """The forest basis of size ``p`` over ``graphs`` (sorted by canonical
        key)."""
        name = f"basis-n{n}-p{p}.txt"
        lines = self._read(name)
        if lines is not None:
            if max_basis is not None and len(lines) > max_basis:
                raise ResourceCapError(
                    f"basis cap {max_basis} exceeded at n={n} p={p}", len(lines)
                )
            by_key = {g.canonical_key: g for g in graphs}
            try:  # a malformed line, or one naming a graph outside the list
                elements = tuple(
                    ForestedGraph(store.intern(by_key[k]), f) for k, f in map(parse_label, lines)
                )
            except (ValueError, KeyError):
                elements = None
            # a basis is in key order, which assembly into it relies on, and
            # each forest is p ascending positions of its graph, which the
            # boundary kernel indexes by, and a nonzero orbit's representative
            if (
                elements is not None
                and all(a.key < b.key for a, b in pairwise(elements))
                and all(_fits(el.forest, p, el.graph.canon.edge_count) for el in elements)
                and all(_is_basis_forest(el, store) for el in elements)
            ):
                return ChainBasis(n=n, p=p, elements=elements)
            self._drop(f"dc-n{n}-p{p}.*", f"dr-n{n}-p{p}.*", f"dr-n{n}-p{p + 1}.*")
        basis = build_chain_basis(n, p, graphs, store, max_basis)
        if self.root is not None:
            self._write(name, [label_text(el.key) for el in basis.elements])
        return basis

    def matrix(
        self, kind: str, basis: ChainBasis, store: ClassStore,
        target: Optional[ChainBasis] = None,
    ) -> SparseIntMat:
        """The ``"dc"`` (contraction) or ``"dr"`` (removal) boundary on
        ``basis``, with rows hash-consed or, given ``target``, that basis;
        assembled unless a file holds one that fits.  Raises ``ValueError``
        on another kind."""
        if kind not in _PARTS:
            raise ValueError(f"unknown boundary kind {kind!r}")
        name = f"{kind}-n{basis.n}-p{basis.p}.txt"
        lines = self._read(name)
        if lines is not None:
            try:
                # checked before parsing: the parse allocates by the header's
                # shape, and every hash-consed row holds an entry
                rows, cols, nnz = (int(x) for x in lines[0].split())
                if cols != basis.dim or (rows > nnz if target is None else rows != target.dim):
                    raise ValueError(f"{name} does not fit its basis")
                return SparseIntMat.from_lines(lines)
            except (ValueError, IndexError):
                pass
        mat = assemble(basis, _PARTS[kind], store, target)
        if self.root is not None:
            self._write(name, mat.to_lines())
        return mat

    def report(self, n: int, field: str, parse: Callable[[str], Any]) -> Any:
        """The parsed report of ``(n, field)``, or ``None`` if it is absent
        or does not parse; whether it answers a request is the caller's
        check."""
        text = self._read_text(f"report-n{n}-{field}.json")
        if text is None:
            return None
        try:
            return parse(text)
        except (ValueError, TypeError):
            return None

    def write_report(self, n: int, field: str, text: str) -> None:
        if self.root is not None:
            self._write_text(f"report-n{n}-{field}.json", text)

    def _read_text(self, name: str) -> Optional[str]:
        """The text of a file, or ``None`` if it is absent or not ASCII."""
        if self.root is None or not (self.root / name).exists():
            return None
        try:
            return (self.root / name).read_text(encoding="ascii")
        except ValueError:
            return None

    def _read(self, name: str) -> Optional[list[str]]:
        text = self._read_text(name)
        return None if text is None else [ln for ln in text.splitlines() if ln.strip()]

    def _write(self, name: str, lines: Sequence[str]) -> None:
        self._write_text(name, "".join(f"{line}\n" for line in lines))

    def _write_text(self, name: str, text: str) -> None:
        """Write under a temporary name and rename, so a file is whole or absent."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f"{name}.tmp"
        tmp.write_text(text, encoding="ascii")
        tmp.replace(self.root / name)

    def _drop(self, *patterns: str) -> None:
        for pattern in patterns:
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)


def _fits(forest: tuple[int, ...], p: int, edge_count: int) -> bool:
    """Whether ``forest`` is ``p`` strictly ascending positions below
    ``edge_count``."""
    return (
        len(forest) == p
        and all(a < b for a, b in pairwise(forest))
        and (not forest or 0 <= forest[0] and forest[-1] < edge_count)
    )


def _is_basis_forest(el: ForestedGraph, store: ClassStore) -> bool:
    """Whether the forest of ``el`` is acyclic and the representative of a
    nonzero orbit, as :func:`build_chain_basis` lists them: its record is
    itself, with no sign and no zero flag."""
    mask = sum(1 << i for i in el.forest)
    try:
        return store.forest_index(el.graph).record(mask) == (mask, 1, False)
    except ValueError:  # a cycle
        return False


def _canonical_classes(lines: Sequence[str]) -> Optional[list[GraphClass]]:
    """The classes of ``lines`` if each line is its own canonical form and
    the lines ascend strictly, as :func:`enumerate_graphs` orders them."""
    graphs: list[GraphClass] = []
    for line in lines:
        try:
            lab = canonical_labeling(Multigraph.from_text(line))
        except ValueError:
            return None
        if lab.key != line.encode("ascii") or (
            graphs and graphs[-1].canonical_key >= lab.key
        ):
            return None
        graphs.append(lab.graph_class())
    return graphs
