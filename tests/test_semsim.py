import numpy as np
import pytest

from affinity_miner.errors import ConstantVector, InsufficientData, MalformedRecord
from affinity_miner.ingest import ALL_TYPES
from affinity_miner.semsim import cosine, doc_vector, load_embeddings, type_similarity_matrix


def table_of(lines):
    return load_embeddings(lines)


class TestLoadEmbeddings:
    def test_single_line(self):
        table = table_of(["the 0.1 0.2"])
        assert table.dimension == 2
        assert np.allclose(table.vectors["the"], [0.1, 0.2])

    def test_dimension_mismatch_reports_line(self):
        with pytest.raises(MalformedRecord, match="^line 2: expected 2 components, got 3$"):
            table_of(["the 0.1 0.2", "cat 0.1 0.2 0.3"])

    def test_duplicate_token_last_wins(self):
        table = table_of(["the 0.1 0.2", "the 0.9 0.8"])
        assert np.allclose(table.vectors["the"], [0.9, 0.8])

    def test_empty_file(self):
        with pytest.raises(MalformedRecord, match="^embedding file has no vector lines$"):
            table_of([])

    def test_tokens_lowercased(self):
        table = table_of(["The 0.1 0.2"])
        assert "the" in table.vectors


class TestDocVector:
    def setup_method(self):
        self.table = table_of(["aa 1 0", "bb 0 1", "cc 2 2"])

    def test_single_token(self):
        v = doc_vector(["aa"], self.table)
        assert np.allclose(v, [1, 0])

    def test_componentwise_mean(self):
        v = doc_vector(["aa", "bb"], self.table)
        assert np.allclose(v, [0.5, 0.5])

    def test_all_oov(self):
        v = doc_vector(["zz", "qq"], self.table)
        assert np.all(v == 0.0)

    def test_oov_tokens_skipped(self):
        v = doc_vector(["aa", "zz", "bb", "qq"], self.table)
        assert np.array_equal(v, doc_vector(["aa", "bb"], self.table))

    def test_permutation_invariant(self, rng):
        tokens = ["aa", "bb", "cc", "aa", "zz"]
        v1 = doc_vector(tokens, self.table)
        for _ in range(5):
            shuffled = list(rng.permutation(tokens))
            v2 = doc_vector(shuffled, self.table)
            assert np.allclose(v1, v2, atol=1e-15)


class TestCosine:
    def test_identical_exactly_one(self, rng):
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(1, 30)))
            assert cosine(v, v.copy()) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        value = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert value == pytest.approx(np.sqrt(2) / 2, rel=1e-12)

    def test_symmetric_and_scale_invariant(self, rng):
        for _ in range(30):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            assert abs(cosine(a, b) - cosine(b, a)) < 1e-12
            assert abs(cosine(3.7 * a, b) - cosine(a, b)) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(ConstantVector, match="^cosine undefined for a zero vector$"):
            cosine(np.zeros(3), np.ones(3))

    def test_doc_vector_values(self):
        table = table_of(["aa 1 2", "bb 3 4"])
        a = doc_vector(["aa", "bb", "zz"], table)
        assert cosine(a, a) == 1.0

    def test_range(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=5), rng.normal(size=5)
            assert -1.0 <= cosine(a, b) <= 1.0


class TestTypeSimilarityMatrix:
    def full_table(self):
        lines = [f"tok{i} " + " ".join(str(v) for v in np.eye(16)[i]) for i in range(16)]
        lines.append("shared " + " ".join(["0.5"] * 16))
        return load_embeddings(lines)

    def corpora(self, text_by_code):
        return {t: text_by_code.get(t.value, f"tok{i}") for i, t in enumerate(ALL_TYPES)}

    def test_identical_corpora_entry_is_one(self):
        table = self.full_table()
        corpora = self.corpora({"ENFJ": "shared tok1", "ENFP": "shared tok1"})
        sim = type_similarity_matrix(corpora, table)
        assert sim[(ALL_TYPES[1], ALL_TYPES[0])] == 1.0

    def test_orthogonal_corpora_zero(self):
        table = self.full_table()
        sim = type_similarity_matrix(self.corpora({}), table)
        assert sim[(ALL_TYPES[1], ALL_TYPES[0])] == 0.0

    def test_exactly_120_cells(self):
        sim = type_similarity_matrix(self.corpora({}), self.full_table())
        assert len(sim) == 120
        for (row, col) in sim:
            assert row.value > col.value

    def test_missing_type_rejected(self):
        table = self.full_table()
        corpora = self.corpora({})
        del corpora[ALL_TYPES[3]]
        with pytest.raises(InsufficientData, match=f"; missing: {ALL_TYPES[3].value}$"):
            type_similarity_matrix(corpora, table)

    def test_oov_corpus_names_type(self):
        table = self.full_table()
        corpora = self.corpora({"INTJ": "onlyunknownwords"})
        with pytest.raises(ConstantVector, match="^corpus for INTJ has no in-vocabulary tokens$"):
            type_similarity_matrix(corpora, table)

    def test_values_in_range(self, rng):
        lines = [
            f"w{i} " + " ".join(f"{v:.5f}" for v in rng.normal(size=6))
            for i in range(40)
        ]
        table = load_embeddings(lines)
        corpora = {
            t: " ".join(f"w{int(j)}" for j in rng.integers(0, 40, size=15))
            for t in ALL_TYPES
        }
        sim = type_similarity_matrix(corpora, table)
        assert all(-1.0 <= v <= 1.0 for v in sim.values())
