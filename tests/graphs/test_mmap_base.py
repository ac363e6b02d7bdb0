"""The memory-mapped base CSR is bit-identical to the resident path.

``AttributedGraph.use_mmap_base`` parks the immutable base ``(indptr,
indices)`` arrays in ``.npy`` sidecar files and re-owns them as read-only
``np.memmap`` views.  Nothing observable may change: graphs compare equal,
every count matches the reference kernels, wire bytes are identical, and
compaction swaps the sidecar files atomically (temp-and-swap) rather than
mutating them in place.
"""

import numpy as np
import pytest

from repro.graphs import codec
from repro.graphs import statistics as stats
from repro.graphs.attributed import AttributedGraph
from repro.graphs.mmapcsr import CsrMmapStore
from repro.testing import reference


def _sample_graph(n=300, seed=11):
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=4 * n)
    vs = rng.integers(0, n, size=4 * n)
    keep = us != vs
    pairs = sorted({(min(u, v), max(u, v))
                    for u, v in zip(us[keep].tolist(), vs[keep].tolist())})
    return AttributedGraph.from_edge_arrays(
        n,
        np.array([u for u, _ in pairs]),
        np.array([v for _, v in pairs]),
    )


class TestCsrMmapStore:
    def test_swap_round_trips_arrays(self, tmp_path):
        store = CsrMmapStore(tmp_path, "g")
        indptr = np.array([0, 2, 4], dtype=np.uint8)
        indices = np.array([1, 2, 0, 1], dtype=np.uint8)
        out_indptr, out_indices = store.swap(indptr, indices)
        assert np.array_equal(out_indptr, indptr)
        assert np.array_equal(out_indices, indices)
        assert out_indptr.dtype == indptr.dtype
        assert isinstance(out_indices, np.memmap)
        assert not out_indices.flags.writeable
        assert store.nbytes_on_disk() > 0

    def test_swap_replaces_files_atomically(self, tmp_path):
        store = CsrMmapStore(tmp_path, "g")
        first_indptr, _ = store.swap(
            np.array([0, 1], dtype=np.uint8), np.array([0], dtype=np.uint8)
        )
        second_indptr, _ = store.swap(
            np.array([0, 2], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)
        )
        # The old view still reads the old inode; the live file holds the new.
        assert np.array_equal(first_indptr, [0, 1])
        assert np.array_equal(second_indptr, [0, 2])
        live = np.load(store.field_path("indptr"))
        assert np.array_equal(live, [0, 2])
        # No temp files left behind.
        leftovers = [p for p in store.directory.iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []

    @pytest.mark.parametrize("name", ["", "a/b", ".hidden"])
    def test_invalid_sidecar_names_rejected(self, tmp_path, name):
        with pytest.raises(ValueError):
            CsrMmapStore(tmp_path, name)


class TestMmapGraphEquivalence:
    def test_mmap_graph_is_bit_identical_to_resident(self, tmp_path):
        resident = _sample_graph()
        mapped = resident.copy()
        mapped.use_mmap_base(tmp_path)
        assert mapped.mmap_base_enabled
        assert not resident.mmap_base_enabled

        assert mapped == resident
        assert np.array_equal(mapped.degrees(), resident.degrees())
        assert stats.triangle_count(mapped) == stats.triangle_count(resident)
        assert np.array_equal(
            stats.triangles_per_node(mapped),
            reference.triangles_per_node_reference(mapped),
        )
        indptr, indices = mapped.csr()
        r_indptr, r_indices = resident.csr()
        assert np.array_equal(indptr, r_indptr)
        assert np.array_equal(indices, r_indices)
        assert indices.dtype == r_indices.dtype
        assert codec.encode_graph_block(mapped) == \
            codec.encode_graph_block(resident)

    def test_mutations_and_compaction_swap_the_sidecar(self, tmp_path):
        resident = _sample_graph()
        mapped = resident.copy()
        mapped.use_mmap_base(tmp_path)

        rng = np.random.default_rng(5)
        for _ in range(200):
            u, v = rng.integers(0, mapped.num_nodes, size=2).tolist()
            if u == v:
                continue
            if mapped.has_edge(u, v):
                mapped.remove_edge(u, v)
                resident.remove_edge(u, v)
            else:
                mapped.add_edge(u, v)
                resident.add_edge(u, v)
        mapped._compact()
        assert mapped.mmap_base_enabled  # compaction keeps the sidecar
        assert mapped == resident
        assert stats.triangle_count(mapped) == \
            reference.triangle_count_reference(resident)
        assert codec.encode_graph_block(mapped) == \
            codec.encode_graph_block(resident)
        # The base arrays really are mmap views over the live files.
        assert isinstance(np.asarray(mapped._base_indices).base, np.memmap) \
            or isinstance(mapped._base_indices, np.memmap)

    def test_use_mmap_base_folds_pending_overlay_first(self, tmp_path):
        graph = _sample_graph()
        graph.add_edge(0, 1) if not graph.has_edge(0, 1) else None
        graph.remove_edge(0, 1)
        graph.use_mmap_base(tmp_path)
        assert not graph._added and not graph._removed
        assert not graph.has_edge(0, 1)

    def test_copy_of_mmap_graph_is_resident(self, tmp_path):
        graph = _sample_graph()
        graph.use_mmap_base(tmp_path)
        clone = graph.copy()
        assert clone == graph
        assert not clone.mmap_base_enabled
