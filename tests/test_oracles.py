import numpy as np

from affinity_miner.cluster import Clustering

from oracles import labels_from_clustering


class TestLabelsFromClustering:
    def base(self, clusters):
        return Clustering(
            clusters=tuple(np.array(c, dtype=np.intp) for c in clusters),
            method="mcl",
            params={},
            nodes=("a", "b", "c"),
            iterations=1,
            converged=True,
        )

    def test_disjoint_direct_mapping(self):
        assert list(labels_from_clustering(self.base([[0], [1, 2]]))) == [0, 1, 1]

    def test_overlap_takes_smallest_cluster_index(self):
        assert list(labels_from_clustering(self.base([[0, 1, 2], [0, 2]]))) == [0, 0, 0]
        assert list(labels_from_clustering(self.base([[1], [0, 1, 2]]))) == [1, 0, 1]

    def test_identical_clusters_take_smaller_index(self):
        assert list(labels_from_clustering(self.base([[0, 1, 2], [0, 1, 2]]))) == [0, 0, 0]

    def test_node_in_no_cluster_takes_zero(self):
        assert list(labels_from_clustering(self.base([[1], [2]]))) == [0, 0, 1]
