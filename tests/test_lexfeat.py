import logging

import numpy as np
import pytest

from affinity_miner import lexfeat
from affinity_miner.errors import (
    ConstantVector,
    DimensionMismatch,
    InsufficientData,
    InvalidSpec,
    MalformedRecord,
)
from affinity_miner.lexfeat import (
    emotion_correlation_table,
    extract_features,
    fit_elastic_net,
    load_lexicon,
    pearson_r,
    tokenize,
)


def small_lexicon():
    return load_lexicon(["posemo\thapp*", "posemo\tjoy", "negemo\tsad"])


class TestLoadLexicon:
    def test_prefix_pattern_matches(self):
        lex = small_lexicon()
        features = extract_features("pure happiness", lex)
        assert features["posemo"] == 0.5

    def test_literal_only_exact(self):
        lex = small_lexicon()
        assert extract_features("joyful", lex)["posemo"] == 0.0
        assert extract_features("joy", lex)["posemo"] == 1.0

    def test_interior_wildcard_rejected(self):
        with pytest.raises(MalformedRecord, match=r"^line 1: interior wildcard in 'ha\*p'$"):
            load_lexicon(["x\tha*p"])
        # the blank line counts: errors name the physical line
        with pytest.raises(MalformedRecord, match="^line 3: interior"):
            load_lexicon(["a\tjoy", "", "x\tha*p"])

    def test_bare_star_rejected(self):
        with pytest.raises(MalformedRecord, match="^line 1: empty pattern$"):
            load_lexicon(["x\t*"])

    @pytest.mark.parametrize(
        "pattern", ["don't", "self-*", "two words", "snake_case", "\u0130*"]
    )
    def test_pattern_that_is_not_one_token_rejected(self, pattern):
        # tokenize splits or drops these characters, so no token can match
        with pytest.raises(MalformedRecord, match=r"^line 2: .* is not one token and can never match$"):
            load_lexicon(["a\tjoy", f"b\t{pattern}"])

    def test_duplicates_collapse(self):
        lex = load_lexicon(["a\tword", "a\tword", "a\tpre*", "a\tpre*"])
        assert lex["a"] == (frozenset({"word"}), ("pre",))

    def test_structure_errors(self):
        with pytest.raises(MalformedRecord):
            load_lexicon(["no-tab-here"])

    def test_patterns_lowercased(self):
        lex = load_lexicon(["a\tWord", "a\tPre*"])
        assert lex["a"] == (frozenset({"word"}), ("pre",))

    def test_patterns_compiled_once(self):
        lex = load_lexicon(["b\tx", "a\tword", "a\tpre*", "a\tab*", "a\tp*"])
        assert lex == {
            "a": (frozenset({"word"}), ("ab", "p", "pre")),
            "b": (frozenset({"x"}), ()),
        }
        assert list(lex) == ["a", "b"]


class TestExtractFeatures:
    def test_hand_counted_proportions(self):
        lex = load_lexicon(["posemo\thapp*"])
        features = extract_features("I am happy", lex)
        assert features == {"posemo": pytest.approx(1 / 3)}

    def test_empty_text_zero_vector(self):
        features = extract_features("", small_lexicon())
        assert all(v == 0.0 for v in features.values())

    def test_all_tokens_match(self):
        lex = load_lexicon(["negemo\tsad"])
        assert extract_features("sad sad sad", lex)["negemo"] == 1.0

    def test_proportions_within_unit_interval(self, rng):
        lex = small_lexicon()
        words = ["happy", "sad", "joy", "tree", "i", "we", "me"]
        for _ in range(50):
            text = " ".join(rng.choice(words, size=int(rng.integers(1, 30))))
            features = extract_features(text, lex)
            assert all(0.0 <= v <= 1.0 for v in features.values())

    def test_tokenizer(self):
        cases = {
            "ascii-punctuation": ("Hello, world! x2", ["hello", "world", "x2"]),
            "apostrophe-underscore": ("don't_stop", ["don", "t", "stop"]),
            "underscore": ("_", []),
            "underscore-runs": ("a_b__c", ["a", "b", "c"]),
            # str.split() also breaks at these; they are not alphanumeric either
            "split-whitespace-controls": (
                "a\x0bb\x1cc\x1dd\x1ee\x1ff", ["a", "b", "c", "d", "e", "f"]
            ),
            "other-controls": ("\x00a\x7fb\tc\r\nd", ["a", "b", "c", "d"]),
            # KELVIN SIGN lowercases to ASCII k
            "kelvin-sign": ("\u212aelvin", ["kelvin"]),
            # I WITH DOT ABOVE lowercases to i and a combining dot, which is
            # not alphanumeric
            "dotted-capital-i": ("\u0130stanbul", ["i", "stanbul"]),
            "superscript-arabic-digit": ("x\u00b2 \u0663", ["x\u00b2", "\u0663"]),
            "accent-quote-fullwidth": (
                "caf\u00e9\u2019s \uff21\uff22", ["caf\u00e9", "s", "\uff41\uff42"]
            ),
            "emoji-dash": ("joy\U0001f600joy \u2014 ok", ["joy", "joy", "ok"]),
            "empty": ("", []),
        }
        for name, (text, tokens) in cases.items():
            assert tokenize(text) == tokens, name
            assert lexfeat._TOKEN_RE.findall(text.lower()) == tokens, name

    def test_overlapping_categories_not_normalized(self):
        # a token may count toward several categories; sums can exceed 1
        lex = load_lexicon(["emotion\thapp*", "posemo\thapp*"])
        features = extract_features("happy happy", lex)
        assert features["emotion"] == 1.0
        assert features["posemo"] == 1.0


class TestFitElasticNet:
    def test_lambda_zero_matches_ols(self, rng):
        for _ in range(20):
            X = rng.normal(size=(10, 3))
            y = rng.normal(size=10)
            fit = fit_elastic_net(X, y, lam=0.0)
            A = np.hstack([X, np.ones((10, 1))])
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            assert np.max(np.abs(fit.coef - coef[:3])) < 1e-6
            assert abs(fit.intercept - coef[3]) < 1e-6

    def test_constant_target(self, rng):
        X = rng.normal(size=(12, 4))
        y = np.full(12, 3.5)
        fit = fit_elastic_net(X, y)
        assert np.all(fit.coef == 0.0)
        assert fit.intercept == pytest.approx(3.5)

    def test_huge_penalty_zeroes_everything(self, rng):
        X = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        fit = fit_elastic_net(X, y, lam=1e6, mix=1.0)
        assert np.all(fit.coef == 0.0)

    def test_single_feature_soft_threshold(self, rng):
        for _ in range(20):
            lam = float(rng.uniform(0.001, 0.5))
            mix = float(rng.uniform(0.0, 1.0))
            x = rng.normal(size=40)
            x = (x - x.mean()) / x.std()
            y = rng.normal(size=40)
            rho = float(x @ (y - y.mean())) / 40
            expected = np.sign(rho) * max(abs(rho) - lam * mix, 0.0) / (
                1.0 + lam * (1.0 - mix)
            )
            fit = fit_elastic_net(x[:, None], y, lam=lam, mix=mix)
            assert abs(fit.coef[0] - expected) < 1e-8

    def test_objective_non_increasing(self, rng, monkeypatch):
        # a fit capped at k sweeps is the solver's k-th iterate; each one's
        # objective is recomputed from its coef and intercept, on the
        # columns standardized as the solver does
        X = rng.normal(size=(30, 6)) * rng.uniform(0.5, 3.0, size=6)
        y = X @ rng.normal(size=6) + rng.normal(size=30) * 0.1
        lam, mix = 0.05, 0.3
        full = fit_elastic_net(X, y, lam=lam, mix=mix)
        assert full.converged and full.sweeps >= 3
        assert np.count_nonzero(full.coef) >= 3
        objectives = []
        for cap in range(1, full.sweeps + 1):
            monkeypatch.setattr(lexfeat, "ENET_MAX_SWEEPS", cap)
            fit = fit_elastic_net(X, y, lam=lam, mix=mix)
            beta = fit.coef * X.std(axis=0)
            resid = y - X @ fit.coef - fit.intercept
            l1, l2 = np.abs(beta).sum(), beta @ beta
            objectives.append(resid @ resid / (2 * len(y)) + lam * (mix * l1 + (1 - mix) / 2 * l2))
        assert np.array_equal(fit.coef, full.coef)
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_fit_meets_optimality_conditions(self, rng):
        # on standardized column j the gradient of the smooth part,
        # (1/n) x_j^T r - lam (1 - mix) beta_j, equals lam mix sign(beta_j)
        # where beta_j != 0 and lies within +-lam mix where beta_j == 0
        lam, mix = 0.05, 0.3
        worst, zeros, nonzeros = 0.0, 0, 0
        for _ in range(20):
            X = rng.normal(size=(40, 8)) * rng.uniform(0.5, 3.0, size=8)
            y = X[:, :4] @ rng.normal(size=4) + rng.normal(size=40)
            fit = fit_elastic_net(X, y, lam=lam, mix=mix)
            assert fit.converged
            Xs = (X - X.mean(axis=0)) / X.std(axis=0)
            beta = fit.coef * X.std(axis=0)
            resid = y - X @ fit.coef - fit.intercept
            grad = Xs.T @ resid / len(y) - lam * (1 - mix) * beta
            active = beta != 0.0
            gaps = np.where(
                active,
                np.abs(grad - lam * mix * np.sign(beta)),
                np.maximum(np.abs(grad) - lam * mix, 0.0),
            )
            worst = max(worst, float(gaps.max()))
            nonzeros += int(active.sum())
            zeros += int((~active).sum())
        # both conditions are exercised
        assert zeros and nonzeros
        assert worst < 1e-6, f"largest optimality gap {worst:.2e}"

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            fit_elastic_net(rng.normal(size=(10, 2)), rng.normal(size=9))

    def test_one_dimensional_x(self):
        with pytest.raises(DimensionMismatch, match=r"^X must be 2-d, got shape \(3,\)$"):
            fit_elastic_net(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))

    def test_one_row(self):
        with pytest.raises(InsufficientData, match="^need at least 2 rows, got 1$"):
            fit_elastic_net(np.array([[1.0, 2.0]]), np.array([1.0]))

    @pytest.mark.parametrize("lam, mix", [(-0.1, 0.5), (0.01, 1.5)])
    def test_bad_penalty(self, rng, lam, mix):
        with pytest.raises(InvalidSpec, match=f"^bad penalty: lam={lam}, mix={mix}$"):
            fit_elastic_net(rng.normal(size=(10, 2)), rng.normal(size=10), lam, mix)

    def test_constant_column_coefficient_exactly_zero(self, rng):
        X = rng.normal(size=(20, 3))
        X[:, 1] = 4.0
        fit = fit_elastic_net(X, X[:, 0] - X[:, 2], lam=0.01)
        assert fit.coef[1] == 0.0
        assert fit.converged and fit.coef[0] > 0 > fit.coef[2]


class TestPearson:
    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_r(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_computed_half(self):
        r = pearson_r(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]))
        assert r == pytest.approx(0.5, rel=1e-12)

    def test_identical_exactly_one(self, rng):
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(2, 40)))
            assert pearson_r(x, x.copy()) == 1.0

    def test_symmetry_and_affine_invariance(self, rng):
        for _ in range(30):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            assert abs(pearson_r(x, y) - pearson_r(y, x)) < 1e-12
            assert abs(pearson_r(3.7 * x + 2.0, y) - pearson_r(x, y)) < 1e-12

    def test_constant_vector(self):
        with pytest.raises(ConstantVector):
            pearson_r(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(InsufficientData, match="^need at least 2 points$"):
            pearson_r(np.array([1.0]), np.array([1.0]))

    def test_shapes_differ(self):
        with pytest.raises(DimensionMismatch, match=r"^shapes \(2,\) vs \(3,\)$"):
            pearson_r(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def synthetic_corpus(rng, emotion_rate, vocab, emotion_word="happy", n_docs=12):
    docs = []
    for _ in range(n_docs):
        words = list(rng.choice(vocab, size=20))
        for _ in range(int(rng.integers(0, 4))):
            if rng.random() < emotion_rate:
                words.append(emotion_word)
        docs.append(" ".join(words))
    return docs


def correlation(docs_a, docs_b, lex, target):
    """The one cross-group cell of a two-group correlation table."""
    return emotion_correlation_table({"a": docs_a, "b": docs_b}, lex, target)[("b", "a")]


class TestTypeEmotionCorrelation:
    def test_identical_corpora_exactly_one(self, rng):
        lex = small_lexicon()
        vocab = [f"w{i}" for i in range(10)]
        docs = synthetic_corpus(rng, 0.9, vocab)
        assert correlation(docs, list(docs), lex, "posemo") == 1.0

    def test_disjoint_vocabulary_independent(self, rng):
        # fully disjoint token sets, down to the category words themselves
        # (happy vs happiness both match happ*)
        lex = small_lexicon()
        vocab_a = [f"a{i}" for i in range(12)]
        vocab_b = [f"b{i}" for i in range(12)]
        rs = []
        for trial in range(5):
            docs_a = synthetic_corpus(rng, 0.6, vocab_a, "happy", n_docs=20)
            docs_b = synthetic_corpus(rng, 0.6, vocab_b, "happiness", n_docs=20)
            rs.append(correlation(docs_a, docs_b, lex, "posemo"))
        assert abs(np.mean(rs)) < 0.1

    def test_unconverged_fit_is_logged(self, rng, monkeypatch, caplog):
        monkeypatch.setattr(lexfeat, "ENET_MAX_SWEEPS", 1)
        docs = synthetic_corpus(rng, 0.9, [f"w{i}" for i in range(10)])
        with caplog.at_level(logging.WARNING, logger="affinity_miner.lexfeat"):
            correlation(docs, list(docs), small_lexicon(), "posemo")
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert messages == ["elastic net on 'posemo' proportions stopped unconverged at the 1-sweep cap"] * 2

    def test_converged_fits_log_nothing(self, rng, caplog):
        docs = synthetic_corpus(rng, 0.9, [f"w{i}" for i in range(10)])
        with caplog.at_level(logging.WARNING, logger="affinity_miner.lexfeat"):
            correlation(docs, list(docs), small_lexicon(), "posemo")
        assert caplog.records == []

    def test_degenerate_corpus(self):
        with pytest.raises(InsufficientData, match="^a: need at least 2 documents, got 1$"):
            correlation(["one doc"], ["a", "b"], small_lexicon(), "posemo")

    def test_constant_weights_name_the_pair(self):
        # no category word anywhere: every proportion and so every weight is 0
        with pytest.raises(ConstantVector, match="^b vs a: correlation undefined"):
            correlation(["w1 w2", "w3"], ["w4", "w5 w6"], small_lexicon(), "posemo")

    def test_one_shared_top_key_names_the_pair(self, rng):
        # top_n = 1 and the same top token in both groups: one point to correlate
        docs = synthetic_corpus(rng, 0.9, [f"w{i}" for i in range(10)])
        lex = small_lexicon()
        with pytest.raises(InsufficientData, match="^b vs a: need at least 2 points$"):
            emotion_correlation_table({"a": docs, "b": list(docs)}, lex, "posemo", n=1)

    def test_unknown_category(self):
        with pytest.raises(InvalidSpec, match="^unknown lexicon category: 'nope'$"):
            correlation(["a b", "c d"], ["a b", "c d"], small_lexicon(), "nope")
