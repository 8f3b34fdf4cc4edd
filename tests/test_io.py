"""Tests for edge-list / npz graph I/O."""

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi
from repro.graphs.io import load_edge_list, load_npz, save_edge_list, save_npz


def test_edge_list_roundtrip(tmp_path):
    g = erdos_renyi(50, 4.0, seed=1)
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    # labels are not stored in edge lists; compare structure only
    assert g2.num_vertices == g.num_vertices
    assert g2.num_edges == g.num_edges
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)


def test_edge_list_with_comments_and_remap(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("# a SNAP-style comment\n10 20\n20 30\n10 30\n")
    g = load_edge_list(path)
    assert g.num_vertices == 3  # ids compacted
    assert g.num_edges == 3


def test_edge_list_with_labels(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    lab = tmp_path / "labels.txt"
    lab.write_text("5\n6\n7\n")
    g = load_edge_list(path, labels_path=lab)
    assert g.labels.tolist() == [5, 6, 7]


def test_npz_roundtrip(tmp_path):
    g = erdos_renyi(80, 5.0, seed=2)
    path = tmp_path / "graph.npz"
    save_npz(g, path)
    g2 = load_npz(path)
    assert g2 == g


def test_npz_with_fractional_neighbors_rejected(tmp_path):
    # a float file would otherwise load as the edge (0, 1)
    path = tmp_path / "float.npz"
    np.savez(path, indptr=[0, 1, 2], indices=[1.9, 0.4], labels=[0, 0])
    with pytest.raises(ValueError, match="vertex id 1.9 is not a whole number"):
        load_npz(path)
    np.savez(path, indptr=[0, 1, 2], indices=[1.0, 0.0], labels=[0, 0])
    assert load_npz(path).num_edges == 1
