import logging

import numpy as np
import pytest
from scipy import sparse

from affinity_miner import classify
from affinity_miner.classify import (
    LabeledCorpus,
    LinearModel,
    LrModel,
    TfIdfMatrix,
    _stratified_folds,
    cross_validate,
    f1_score,
    predict_many,
    render_cv_report,
    train_lr,
    train_nb,
    transform_documents,
    vectorize_corpus,
)
from affinity_miner.errors import DimensionMismatch, InsufficientData, InvalidSpec
from affinity_miner.ingest import ALL_TYPES, parse_mbti

from oracles import lr_loss_grad

INFJ, ENTP, ISTJ = parse_mbti("INFJ"), parse_mbti("ENTP"), parse_mbti("ISTJ")


def corpus_of(pairs):
    return LabeledCorpus(tuple((text, lab) for text, lab in pairs))


def texts_of(c):
    return [text for text, _ in c.documents]


def separable_corpus(n_per_class=6):
    docs = []
    for i in range(n_per_class):
        docs.append((f"alpha beta gamma extra{i % 2}", INFJ))
        docs.append((f"delta epsilon zeta extra{i % 2}", ENTP))
    return corpus_of(docs)


class TestVectorizeCorpus:
    def test_everywhere_token_has_idf_one(self):
        c = corpus_of([("common one", INFJ), ("common two", ENTP), ("common one", INFJ)])
        m = vectorize_corpus(texts_of(c))
        j = m.vocabulary.index("common")
        assert m.idf[j] == pytest.approx(1.0)

    def test_rare_token_higher_idf(self):
        c = corpus_of(
            [("common rare", INFJ)] + [("common word", ENTP)] * 5 + [("rare word", INFJ)]
        )
        m = vectorize_corpus(texts_of(c))
        assert m.idf[m.vocabulary.index("rare")] > m.idf[m.vocabulary.index("common")]

    def test_df_below_two_excluded(self):
        c = corpus_of([("unique common", INFJ), ("common", ENTP)])
        m = vectorize_corpus(texts_of(c))
        assert "unique" not in m.vocabulary
        assert "common" in m.vocabulary

    def test_vocabulary_sorted(self):
        c = corpus_of([("zeta alpha", INFJ), ("zeta alpha", ENTP)])
        m = vectorize_corpus(texts_of(c))
        assert list(m.vocabulary) == sorted(m.vocabulary)

    def test_rows_l2_normalized(self):
        c = corpus_of([("aa bb cc", INFJ), ("aa bb", ENTP), ("cc aa", INFJ)])
        m = vectorize_corpus(texts_of(c))
        norms = np.sqrt(np.asarray(m.rows.multiply(m.rows).sum(axis=1)).ravel())
        assert np.allclose(norms, 1.0)

    def test_empty_corpus(self):
        with pytest.raises(InsufficientData, match="^no documents$"):
            vectorize_corpus([])


class TestNaiveBayes:
    def test_disjoint_vocabulary_perfect_training_accuracy(self):
        c = separable_corpus()
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        model = train_nb(m, labels)
        preds = predict_many(model, m.rows)
        assert preds == labels

    def test_identical_documents_fall_to_prior(self):
        docs = [("same text here", INFJ)] * 5 + [("same text here", ENTP)] * 2
        c = corpus_of(docs)
        m = vectorize_corpus(texts_of(c))
        model = train_nb(m, [lab for _, lab in c.documents])
        preds = predict_many(model, m.rows)
        assert all(p is INFJ for p in preds)

    def test_empty_test_document_prior_argmax(self):
        c = separable_corpus()
        docs = list(c.documents) + [("alpha beta", INFJ)]
        c = corpus_of(docs)
        m = vectorize_corpus(texts_of(c))
        model = train_nb(m, [lab for _, lab in c.documents])
        empty_row = transform_documents([""], m)
        [pred] = predict_many(model, empty_row)
        priors = {INFJ: 7, ENTP: 6}
        assert pred is max(priors, key=priors.get)

    def test_single_class_rejected(self):
        c = corpus_of([("a b", INFJ), ("a c", INFJ)])
        m = vectorize_corpus(texts_of(c))
        with pytest.raises(InsufficientData, match="^need at least 2 classes, got 1$"):
            train_nb(m, [INFJ, INFJ])

    def test_argmax_invariant_to_likelihood_scaling(self):
        c = separable_corpus()
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        model = train_nb(m, labels)
        scaled = LinearModel(model.classes, model.weights + np.log(3.7), model.intercepts)
        assert predict_many(model, m.rows) == predict_many(scaled, m.rows)

    @pytest.mark.parametrize("smoothing", [1.0, 0.25])
    def test_matches_per_class_masked_sums_bitwise(self, rng, smoothing, monkeypatch):
        monkeypatch.setattr(classify, "NB_SMOOTHING", smoothing)
        for sizes in [(30, 18, 11, 7, 4), (3, 2), (60, 45, 20, 9, 5)]:
            c = imbalanced_corpus(rng, sizes=sizes)
            m = vectorize_corpus(texts_of(c))
            labels = [lab for _, lab in c.documents]
            expected = masked_sum_nb(m, labels, smoothing)
            assert_nb_bitwise_equal(train_nb(m, labels), expected)
        c = sixteen_type_corpus(rng, docs_per_type=10, noise_tokens=4, own_tokens=8, own_words=2)
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        expected = masked_sum_nb(m, labels, smoothing)
        assert_nb_bitwise_equal(train_nb(m, labels), expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_class_masked_sums_on_random_rows(self, seed):
        gen = np.random.default_rng(seed)
        n, p = int(gen.integers(50, 2001)), int(gen.integers(1, 400))
        rows = sparse.random(n, p, density=0.05, format="csr", random_state=seed)
        m = TfIdfMatrix(tuple(f"t{j:03d}" for j in range(p)), np.ones(p), rows)
        labels = [ALL_TYPES[i] for i in gen.integers(0, 16, size=n)]
        assert_nb_bitwise_equal(train_nb(m, labels), masked_sum_nb(m, labels))

    def test_matches_per_class_masked_sums_on_empty_vocabulary(self):
        docs = [("alpha", INFJ), ("beta", ENTP), ("gamma", INFJ), ("delta", ISTJ)]
        m = vectorize_corpus([text for text, _ in docs])
        assert m.vocabulary == () and m.rows.shape == (4, 0)
        labels = [lab for _, lab in docs]
        model = train_nb(m, labels)
        assert model.weights.shape == (3, 0)
        assert_nb_bitwise_equal(model, masked_sum_nb(m, labels))
        assert predict_many(model, m.rows) == [INFJ] * 4


def masked_sum_nb(m, labels, smoothing=1.0):
    """Reference: naive Bayes one class at a time, each class's mass the
    masked sum of its rows."""
    classes = tuple(sorted(set(labels)))
    label_arr = np.array([c.value for c in labels])
    n_features = len(m.vocabulary)
    priors = np.empty(len(classes))
    flp = np.zeros((len(classes), n_features))
    for ci, cls in enumerate(classes):
        mask = label_arr == cls.value
        priors[ci] = mask.sum() / len(labels)
        if n_features:
            mass = np.asarray(m.rows[np.flatnonzero(mask)].sum(axis=0)).ravel()
            flp[ci] = np.log(mass + smoothing) - np.log(mass.sum() + smoothing * n_features)
    return LinearModel(classes, flp, np.log(priors))


def assert_nb_bitwise_equal(model, expected):
    assert type(model) is LinearModel
    assert model.classes == expected.classes
    assert model.weights.shape == expected.weights.shape
    assert model.weights.tobytes() == expected.weights.tobytes()
    assert model.intercepts.tobytes() == expected.intercepts.tobytes()


def lr_step(X, ridge):
    n = X.shape[0]
    return 1.0 / ((float(X.multiply(X).sum()) + n) / (4.0 * n) + ridge)


def one_class_gradient(X, XT, targets, w, b, ridge):
    z = np.asarray(X @ w).ravel() + b
    diff = 1.0 / (1.0 + np.exp(-z)) - targets
    return np.asarray(XT @ diff).ravel() / X.shape[0] + ridge * w, float(diff.mean())


def per_class_lr(m, labels, fit_one, ridge):
    classes = tuple(sorted(set(labels)))
    label_arr = np.array([c.value for c in labels])
    weights, intercepts, converged, epochs = zip(
        *(fit_one(m.rows, (label_arr == c.value).astype(float), ridge) for c in classes)
    )
    return LrModel(classes, np.array(weights), np.array(intercepts), converged, epochs)


def fista_one_class(X, targets, ridge):
    """The loop train_lr batches: FISTA with gradient restart, one class.
    Returns (w, b, converged, gradient evaluations)."""
    XT = X.T
    step = lr_step(X, ridge)
    w = np.zeros(X.shape[1])
    b = 0.0
    y_w, y_b, t = w.copy(), b, 1.0
    for epoch in range(classify.LR_MAX_EPOCHS):
        grad_w, grad_b = one_class_gradient(X, XT, targets, y_w, y_b, ridge)
        if np.sqrt(float(grad_w @ grad_w) + grad_b * grad_b) < classify.LR_GRAD_TOL:
            return y_w, y_b, True, epoch + 1
        next_w = y_w - step * grad_w
        next_b = y_b - step * grad_b
        d_w = next_w - w
        d_b = next_b - b
        if float(grad_w @ d_w) + grad_b * d_b > 0:
            t = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y_w = next_w + ((t - 1.0) / t_next) * d_w
        y_b = next_b + ((t - 1.0) / t_next) * d_b
        w, b, t = next_w, next_b, t_next
    return w, b, False, classify.LR_MAX_EPOCHS


def gd_one_class(X, targets, ridge):
    """Fixed-step gradient descent, one class: the solver train_lr used
    before FISTA, with the same objective, step and stop rule."""
    XT = X.T
    step = lr_step(X, ridge)
    w = np.zeros(X.shape[1])
    b = 0.0
    for epoch in range(classify.LR_MAX_EPOCHS):
        grad_w, grad_b = one_class_gradient(X, XT, targets, w, b, ridge)
        if np.sqrt(float(grad_w @ grad_w) + grad_b * grad_b) < classify.LR_GRAD_TOL:
            return w, b, True, epoch + 1
        w = w - step * grad_w
        b = b - step * grad_b
    return w, b, False, classify.LR_MAX_EPOCHS


def per_class_train_lr(m, labels, ridge=1.0):
    """Reference: one-vs-rest FISTA one class at a time."""
    return per_class_lr(m, labels, fista_one_class, ridge)


def per_class_gd(m, labels, ridge=1.0):
    """Reference: one-vs-rest fixed-step descent one class at a time."""
    return per_class_lr(m, labels, gd_one_class, ridge)


def lbfgs_objectives(m, labels, ridge):
    """Each class's objective at a tight L-BFGS-B minimum."""
    from scipy.optimize import minimize

    X = m.rows
    label_arr = np.array([c.value for c in labels])
    p = X.shape[1]
    objectives = []
    for cls in sorted(set(labels)):
        targets = (label_arr == cls.value).astype(float)

        def fun(v):
            loss, grad_w, grad_b = lr_loss_grad(X, targets, v[:p], float(v[p]), ridge)
            return loss, np.append(grad_w, grad_b)

        res = minimize(
            fun, np.zeros(p + 1), jac=True, method="L-BFGS-B",
            options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-12},
        )
        objectives.append(float(res.fun))
    return np.array(objectives)


def lr_objectives(model, m, labels, ridge):
    label_arr = np.array([c.value for c in labels])
    return np.array([
        lr_loss_grad(m.rows, (label_arr == c.value).astype(float), w, float(b), ridge)[0]
        for c, w, b in zip(model.classes, model.weights, model.intercepts)
    ])


def assert_bitwise_equal(model, expected):
    assert model.classes == expected.classes
    assert model.weights.shape == expected.weights.shape
    assert model.weights.tobytes() == expected.weights.tobytes()
    assert model.intercepts.tobytes() == expected.intercepts.tobytes()
    assert model.converged == expected.converged
    assert model.epochs == expected.epochs


def imbalanced_corpus(rng, sizes=(30, 18, 11, 7, 4), noise_tokens=6):
    """Overlapping vocabularies and unequal class sizes, so the binary
    problems converge at different epochs."""
    shared = [f"noise{i}" for i in range(noise_tokens)]
    docs = []
    for t, size in zip(ALL_TYPES, sizes):
        own = [f"{t.value.lower()}tok{j}" for j in range(3)]
        for _ in range(size):
            words = list(rng.choice(own, size=3)) + list(rng.choice(shared, size=5))
            docs.append((" ".join(words), t))
    return corpus_of(docs)


class TestLogisticRegression:
    def test_separable_perfect_accuracy(self):
        c = separable_corpus()
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        model = train_lr(m, labels, ridge=0.01)
        assert predict_many(model, m.rows) == labels

    def test_huge_ridge_falls_to_prior(self):
        docs = [("alpha beta", INFJ)] * 6 + [("delta zeta", ENTP)] * 3
        c = corpus_of(docs)
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        model = train_lr(m, labels, ridge=1e8)
        assert np.max(np.abs(model.weights)) < 1e-6
        preds = predict_many(model, m.rows)
        assert all(p is INFJ for p in preds)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            X = rng.normal(size=(5, 4))
            targets = (rng.random(5) > 0.5).astype(float)
            w = rng.normal(size=4) * 0.5
            b = float(rng.normal()) * 0.5
            ridge = float(rng.uniform(0, 2))
            _, grad_w, grad_b = lr_loss_grad(X, targets, w, b, ridge)
            eps = 1e-6
            for j in range(4):
                dw = np.zeros(4)
                dw[j] = eps
                up, *_ = lr_loss_grad(X, targets, w + dw, b, ridge)
                down, *_ = lr_loss_grad(X, targets, w - dw, b, ridge)
                assert abs((up - down) / (2 * eps) - grad_w[j]) < 1e-6
            up, *_ = lr_loss_grad(X, targets, w, b + eps, ridge)
            down, *_ = lr_loss_grad(X, targets, w, b - eps, ridge)
            assert abs((up - down) / (2 * eps) - grad_b) < 1e-6

    @pytest.mark.parametrize("ridge", [0.01, 1.0])
    def test_matches_per_class_descent_with_staggered_stops(self, rng, ridge):
        c = imbalanced_corpus(rng)
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        expected = per_class_train_lr(m, labels, ridge)
        assert all(expected.converged) and len(set(expected.epochs)) > 1
        assert_bitwise_equal(train_lr(m, labels, ridge), expected)

    @pytest.mark.parametrize("ridge", [0.0, 1e8])
    def test_matches_per_class_descent_at_extreme_ridge(self, rng, ridge):
        c = imbalanced_corpus(rng)
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        expected = per_class_train_lr(m, labels, ridge)
        assert_bitwise_equal(train_lr(m, labels, ridge), expected)

    def test_matches_per_class_descent_at_epoch_cap(self, rng, monkeypatch):
        monkeypatch.setattr(classify, "LR_MAX_EPOCHS", 3)
        c = imbalanced_corpus(rng)
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        expected = per_class_train_lr(m, labels)
        assert expected.epochs == (3,) * 5 and not any(expected.converged)
        assert_bitwise_equal(train_lr(m, labels), expected)

    def test_matches_per_class_descent_on_empty_vocabulary(self):
        docs = [("alpha", INFJ), ("beta", ENTP), ("gamma", INFJ), ("delta", ISTJ)]
        m = vectorize_corpus(texts_of(corpus_of(docs)))
        assert m.vocabulary == ()
        labels = [lab for _, lab in docs]
        expected = per_class_train_lr(m, labels)
        model = train_lr(m, labels)
        assert model.weights.shape == (3, 0)
        assert_bitwise_equal(model, expected)

    @pytest.mark.parametrize(
        "ridge, rtol, descent_converges",
        [(0.01, 1e-8, True), (1.0, 1e-8, True), (1e-3, 1e-7, False)],
    )
    def test_objective_matches_lbfgs(self, rng, ridge, rtol, descent_converges):
        c = imbalanced_corpus(rng)
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        model = train_lr(m, labels, ridge)
        assert all(model.converged)
        descent = per_class_gd(m, labels, ridge)
        assert descent.converged == (descent_converges,) * len(model.classes)
        expected = lbfgs_objectives(m, labels, ridge)
        got = lr_objectives(model, m, labels, ridge)
        assert np.all(np.abs(got - expected) <= rtol * np.abs(expected))

    def test_fewer_epochs_than_descent(self, rng):
        c = imbalanced_corpus(rng)
        m = vectorize_corpus(texts_of(c))
        labels = [lab for _, lab in c.documents]
        descent = per_class_gd(m, labels)
        assert all(descent.converged)
        model = train_lr(m, labels)
        assert all(f < g for f, g in zip(model.epochs, descent.epochs))

    def test_cap_reached_is_logged(self, caplog):
        docs = [("alpha beta", INFJ)] * 6 + [("delta zeta", ENTP)] * 3
        m = vectorize_corpus(texts_of(corpus_of(docs)))
        with caplog.at_level(logging.WARNING, logger="affinity_miner.classify"):
            model = train_lr(m, [lab for _, lab in docs], ridge=1e8)
        assert model.converged == (False, False)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "2 of 2 classes reached 1000 epochs" in record.getMessage()
        assert record.getMessage().endswith("ENTP INFJ")

    def test_converged_fit_logs_nothing(self, caplog):
        c = separable_corpus()
        m = vectorize_corpus(texts_of(c))
        with caplog.at_level(logging.WARNING, logger="affinity_miner.classify"):
            model = train_lr(m, [lab for _, lab in c.documents])
        assert all(model.converged)
        assert caplog.records == []

    def test_negative_ridge_rejected(self):
        c = separable_corpus()
        m = vectorize_corpus(texts_of(c))
        with pytest.raises(InvalidSpec, match="^ridge must be >= 0, got -1.0$"):
            train_lr(m, [lab for _, lab in c.documents], ridge=-1.0)


class TestF1Score:
    def test_perfect(self):
        assert f1_score([INFJ, ENTP], [INFJ, ENTP], INFJ) == 1.0

    def test_no_true_positives(self):
        assert f1_score([ENTP, ENTP], [INFJ, INFJ], INFJ) == 0.0

    def test_type_in_neither_list(self):
        assert f1_score([ENTP, INFJ], [INFJ, ENTP], ISTJ) == 0.0

    def test_half(self):
        pred = [INFJ, INFJ, ENTP]
        truth = [INFJ, ENTP, INFJ]
        assert f1_score(pred, truth, INFJ) == 0.5

    def test_bounds_and_equality_condition(self, rng):
        types = [INFJ, ENTP, ISTJ]
        for _ in range(50):
            pred = [types[i] for i in rng.integers(0, 3, size=12)]
            truth = [types[i] for i in rng.integers(0, 3, size=12)]
            v = f1_score(pred, truth, INFJ)
            assert 0.0 <= v <= 1.0
            matches_on_type = all(
                (p is INFJ) == (t is INFJ) for p, t in zip(pred, truth)
            )
            assert (v == 1.0) == (matches_on_type and any(t is INFJ for t in truth))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^lengths 1 vs 2$"):
            f1_score([INFJ], [INFJ, ENTP], INFJ)


def sixteen_type_corpus(rng, docs_per_type=12, noise_tokens=8, own_tokens=4, own_words=6):
    shared = [f"noise{i}" for i in range(noise_tokens)]
    docs = []
    for t in ALL_TYPES:
        own = [f"{t.value.lower()}tok{j}" for j in range(own_tokens)]
        for _ in range(docs_per_type):
            words = list(rng.choice(own, size=own_words)) + list(rng.choice(shared, size=4))
            docs.append((" ".join(words), t))
    return corpus_of(docs)


class TestCrossValidate:
    def test_even_fold_sizes(self):
        labels = [t for t in ALL_TYPES[:10] for _ in range(10)]
        folds = _stratified_folds(labels, 10, seed=3)
        assert [len(fold) for fold in folds] == [10] * 10

    def test_folds_partition_the_corpus(self, rng):
        c = sixteen_type_corpus(rng, docs_per_type=11)
        labels = [lab for _, lab in c.documents]
        folds = _stratified_folds(labels, 10, seed=4)
        seen = [int(i) for fold in folds for i in fold]
        assert sorted(seen) == list(range(len(labels)))

    def test_deterministic_for_seed(self, rng):
        c = sixteen_type_corpus(rng)
        r1 = cross_validate(c, "nb", folds=10, seed=42)
        r2 = cross_validate(c, "nb", folds=10, seed=42)
        assert render_cv_report(r1) == render_cv_report(r2)
        assert r1 == r2

    def test_seed_changes_folds(self, rng):
        c = sixteen_type_corpus(rng)
        labels = [lab for _, lab in c.documents]
        folds1 = _stratified_folds(labels, 10, seed=1)
        folds2 = _stratified_folds(labels, 10, seed=2)
        assert any(list(a) != list(b) for a, b in zip(folds1, folds2))

    def test_separable_sixteen_types_high_f1(self, rng):
        c = sixteen_type_corpus(rng)
        for classifier in ("nb", "lr"):
            report = cross_validate(c, classifier, folds=10, seed=0)
            assert report.macro_f1() >= 0.95

    def test_stratification_within_one_document(self):
        labels = [t for count, t in [(20, INFJ), (30, ENTP), (10, ISTJ)] for _ in range(count)]
        folds = _stratified_folds(labels, 10, seed=5)
        assert [len(fold) for fold in folds] == [6] * 10
        for t, count in [(INFJ, 20), (ENTP, 30), (ISTJ, 10)]:
            assert all(sum(labels[i] is t for i in fold) == count // 10 for fold in folds)

    def test_small_types_excluded_with_warning(self, rng, caplog):
        docs = [(f"a{j % 3} x", INFJ) for j in range(12)]
        docs += [(f"b{j % 3} y", ENTP) for j in range(12)]
        docs += [("z tiny", ISTJ)] * 3
        report = cross_validate(corpus_of(docs), "nb", folds=10, seed=0)
        assert report.excluded == (ISTJ,)
        assert ISTJ not in report.per_type_f1
        rows = render_cv_report(report).splitlines()
        assert "ISTJ\t-" in rows and f"INFJ\t{report.per_type_f1[INFJ]:.6f}" in rows

    def test_insufficient_data(self):
        docs = [("a b", INFJ)] * 3 + [("c d", ENTP)] * 12
        with pytest.raises(InsufficientData, match="^fewer than 2 types have at least 10 documents$"):
            cross_validate(corpus_of(docs), "nb", folds=10, seed=0)

    def test_unknown_classifier(self, rng):
        with pytest.raises(InvalidSpec, match="^unknown classifier: 'svm'$"):
            cross_validate(sixteen_type_corpus(rng), "svm")

    def test_lr_report_matches_per_class_descent(self, rng, monkeypatch):
        # rare own tokens, some below the document-frequency cut: F-1 < 1
        c = sixteen_type_corpus(rng, docs_per_type=10, noise_tokens=4, own_tokens=8, own_words=2)
        report = render_cv_report(cross_validate(c, "lr", folds=10, seed=0))
        monkeypatch.setattr(classify, "train_lr", per_class_gd)
        expected = cross_validate(c, "lr", folds=10, seed=0)
        assert expected.macro_f1() < 1.0
        assert report == render_cv_report(expected)

    def test_report_renders_16_rows(self, rng):
        c = sixteen_type_corpus(rng)
        text = render_cv_report(cross_validate(c, "nb", folds=10, seed=0))
        lines = text.strip().splitlines()
        assert len(lines) == 2 + 16 + 1
