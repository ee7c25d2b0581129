"""Personality type prediction from text.

Bag-of-words tf-idf vectors feed either a multinomial naive Bayes or a
one-vs-rest ridge logistic regression; both are evaluated with per-type
F-1 under seeded stratified cross-validation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import (
    EmptyCorpus,
    InsufficientData,
    LengthMismatch,
    SingleClass,
)
from .ingest import MbtiType
from .lexfeat import tokenize

log = logging.getLogger(__name__)

MIN_DOCUMENT_FREQUENCY = 2
LR_GRAD_TOL = 1e-6
LR_MAX_EPOCHS = 1000


@dataclass(frozen=True)
class LabeledCorpus:
    documents: tuple[tuple[str, MbtiType], ...]


@dataclass(frozen=True)
class TfIdfMatrix:
    """L2-normalized tf-idf rows over a lexicographically sorted vocabulary."""

    vocabulary: tuple[str, ...]
    idf: np.ndarray
    rows: sparse.csr_matrix


def _count_matrix(texts: Sequence[str], vocab_index: dict[str, int]) -> sparse.csr_matrix:
    data, row_idx, col_idx = [], [], []
    for i, text in enumerate(texts):
        counts: dict[int, int] = {}
        for token in tokenize(text):
            j = vocab_index.get(token)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        for j, c in sorted(counts.items()):
            row_idx.append(i)
            col_idx.append(j)
            data.append(float(c))
    return sparse.csr_matrix(
        (data, (row_idx, col_idx)), shape=(len(texts), len(vocab_index))
    )


def _l2_normalize(rows: sparse.csr_matrix) -> sparse.csr_matrix:
    norms = np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    return sparse.diags(1.0 / norms) @ rows


def vectorize_corpus(c: LabeledCorpus) -> TfIdfMatrix:
    """Build vocabulary (document frequency >= 2), idf weights and rows.

    idf = ln((1 + N) / (1 + df)) + 1; rows are tf * idf, L2-normalized.
    """
    if not c.documents:
        raise EmptyCorpus("no documents")
    texts = [text for text, _ in c.documents]
    df: dict[str, int] = {}
    for text in texts:
        for token in set(tokenize(text)):
            df[token] = df.get(token, 0) + 1
    vocab = tuple(sorted(t for t, n in df.items() if n >= MIN_DOCUMENT_FREQUENCY))
    vocab_index = {t: j for j, t in enumerate(vocab)}
    n_docs = len(texts)
    idf = np.array(
        [np.log((1 + n_docs) / (1 + df[t])) + 1 for t in vocab]
    )
    counts = _count_matrix(texts, vocab_index)
    rows = _l2_normalize(counts @ sparse.diags(idf)) if vocab else counts
    return TfIdfMatrix(vocab, idf, rows.tocsr())


def transform_documents(texts: Sequence[str], m: TfIdfMatrix) -> sparse.csr_matrix:
    """Vectorize unseen texts with an existing vocabulary and idf."""
    vocab_index = {t: j for j, t in enumerate(m.vocabulary)}
    counts = _count_matrix(texts, vocab_index)
    if not m.vocabulary:
        return counts
    return _l2_normalize(counts @ sparse.diags(m.idf)).tocsr()


@dataclass(frozen=True)
class NbModel:
    classes: tuple[MbtiType, ...]
    class_log_prior: np.ndarray
    feature_log_prob: np.ndarray


@dataclass(frozen=True)
class LrModel:
    classes: tuple[MbtiType, ...]
    weights: np.ndarray
    intercepts: np.ndarray
    ridge: float
    converged: tuple[bool, ...]


def _class_order(labels: Sequence[MbtiType]) -> tuple[MbtiType, ...]:
    classes = tuple(sorted(set(labels), key=lambda t: t.value))
    if len(classes) < 2:
        raise SingleClass(f"need at least 2 classes, got {len(classes)}")
    return classes


def train_nb(m: TfIdfMatrix, labels: Sequence[MbtiType], smoothing: float = 1.0) -> NbModel:
    """Multinomial naive Bayes over tf-idf masses with additive smoothing."""
    classes = _class_order(labels)
    label_arr = np.array([c.value for c in labels])
    n_features = len(m.vocabulary)
    priors = np.empty(len(classes))
    flp = np.zeros((len(classes), n_features))
    for ci, cls in enumerate(classes):
        mask = label_arr == cls.value
        priors[ci] = mask.sum() / len(labels)
        if n_features:
            mass = np.asarray(m.rows[np.flatnonzero(mask)].sum(axis=0)).ravel()
            flp[ci] = np.log(mass + smoothing) - np.log(
                mass.sum() + smoothing * n_features
            )
    return NbModel(classes, np.log(priors), flp)


def predict_many(model: NbModel | LrModel, rows: sparse.csr_matrix) -> list[MbtiType]:
    """Most probable class per vectorized row; ties break to the
    lexicographically smallest type code."""
    if isinstance(model, NbModel):
        scores = rows @ model.feature_log_prob.T + model.class_log_prior
    else:
        scores = rows @ model.weights.T + model.intercepts
    scores = np.asarray(scores)
    return [model.classes[i] for i in np.argmax(scores, axis=1)]


def _lr_grad(X, targets: np.ndarray, w: np.ndarray, b: float, ridge: float):
    """(grad_w, grad_b) of the loss lr_loss_grad returns."""
    z = np.asarray(X @ w).ravel() + b
    diff = 1.0 / (1.0 + np.exp(-z)) - targets
    grad_w = np.asarray(X.T @ diff).ravel() / X.shape[0] + ridge * w
    return grad_w, float(diff.mean())


def lr_loss_grad(
    X, targets: np.ndarray, w: np.ndarray, b: float, ridge: float
) -> tuple[float, np.ndarray, float]:
    """Mean log-loss with L2 penalty (ridge/2)||w||^2; intercept unpenalized.

    Returns (loss, grad_w, grad_b) for binary targets in {0, 1}.
    """
    z = np.asarray(X @ w).ravel() + b
    # stable log(1 + exp(-s z)) with s = 2t - 1
    margins = (2.0 * targets - 1.0) * z
    loss = float(np.logaddexp(0.0, -margins).mean()) + 0.5 * ridge * float(w @ w)
    return (loss, *_lr_grad(X, targets, w, b, ridge))


def train_lr(
    m: TfIdfMatrix,
    labels: Sequence[MbtiType],
    ridge: float = 1.0,
) -> LrModel:
    """One-vs-rest logistic regression by fixed-step gradient descent.

    The step is 1/L for a Frobenius-norm Lipschitz bound, weights start at
    zero, and each binary problem stops at gradient norm < 1e-6 or after
    1000 epochs (converged flag records which).
    """
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    X = m.rows
    classes = _class_order(labels)
    label_arr = np.array([c.value for c in labels])
    n, p = X.shape
    lipschitz = (float(X.multiply(X).sum()) + n) / (4.0 * n) + ridge
    step = 1.0 / lipschitz
    weights = np.zeros((len(classes), p))
    intercepts = np.zeros(len(classes))
    converged = []
    for ci, cls in enumerate(classes):
        targets = (label_arr == cls.value).astype(float)
        w = np.zeros(p)
        b = 0.0
        ok = False
        for _ in range(LR_MAX_EPOCHS):
            grad_w, grad_b = _lr_grad(X, targets, w, b, ridge)
            gnorm = np.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)
            if gnorm < LR_GRAD_TOL:
                ok = True
                break
            w -= step * grad_w
            b -= step * grad_b
        weights[ci] = w
        intercepts[ci] = b
        converged.append(ok)
    return LrModel(classes, weights, intercepts, ridge, tuple(converged))


def f1_score(pred: Sequence[MbtiType], truth: Sequence[MbtiType], positive_type: MbtiType) -> float:
    """One-vs-rest F-1; defined as 0 when precision + recall is 0."""
    if len(pred) != len(truth):
        raise LengthMismatch(f"lengths {len(pred)} vs {len(truth)}")
    tp = sum(1 for p, t in zip(pred, truth) if p == positive_type and t == positive_type)
    fp = sum(1 for p, t in zip(pred, truth) if p == positive_type and t != positive_type)
    fn = sum(1 for p, t in zip(pred, truth) if p != positive_type and t == positive_type)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


@dataclass(frozen=True)
class FoldResult:
    fold: int
    test_size: int
    correct: int


@dataclass(frozen=True)
class CvReport:
    classifier: str
    seed: int
    folds: int
    per_type_f1: dict[MbtiType, float]
    per_fold: tuple[FoldResult, ...]
    excluded: tuple[MbtiType, ...]

    def macro_f1(self) -> float:
        return sum(self.per_type_f1.values()) / len(self.per_type_f1)


def _stratified_folds(
    labels: Sequence[MbtiType], folds: int, seed: int
) -> list[np.ndarray]:
    """Round-robin deal of each type's seeded shuffle; sizes differ by <= 1
    per type across folds."""
    rng = np.random.default_rng(seed)
    assignment: list[list[int]] = [[] for _ in range(folds)]
    by_type: dict[MbtiType, list[int]] = {}
    for i, lab in enumerate(labels):
        by_type.setdefault(lab, []).append(i)
    for lab in sorted(by_type, key=lambda t: t.value):
        idx = np.array(by_type[lab])
        rng.shuffle(idx)
        for pos, doc in enumerate(idx):
            assignment[pos % folds].append(int(doc))
    return [np.array(sorted(fold)) for fold in assignment]


def cross_validate(
    c: LabeledCorpus,
    classifier: str = "nb",
    folds: int = 10,
    seed: int = 0,
    ridge: float = 1.0,
) -> CvReport:
    """Per-type F-1 over concatenated out-of-fold predictions.

    Types with fewer than `folds` documents are excluded (with a warning)
    so every fold sees every retained type. Deterministic for a fixed
    (corpus, seed).
    """
    if classifier not in ("nb", "lr"):
        raise ValueError(f"unknown classifier: {classifier!r}")
    counts: dict[MbtiType, int] = {}
    for _, lab in c.documents:
        counts[lab] = counts.get(lab, 0) + 1
    excluded = tuple(
        sorted((t for t, n in counts.items() if n < folds), key=lambda t: t.value)
    )
    for t in excluded:
        log.warning("type %s has %d < %d documents; excluded from CV", t, counts[t], folds)
    kept = [(text, lab) for text, lab in c.documents if lab not in excluded]
    if len({lab for _, lab in kept}) < 2:
        raise InsufficientData("fewer than 2 types have enough documents")
    texts = [text for text, _ in kept]
    labels = [lab for _, lab in kept]
    fold_sets = _stratified_folds(labels, folds, seed)
    predictions: dict[int, MbtiType] = {}
    fold_results = []
    for fi, test_idx in enumerate(fold_sets):
        test_mask = np.zeros(len(kept), dtype=bool)
        test_mask[test_idx] = True
        train_docs = LabeledCorpus(
            tuple((texts[i], labels[i]) for i in np.flatnonzero(~test_mask))
        )
        train_labels = [labels[i] for i in np.flatnonzero(~test_mask)]
        matrix = vectorize_corpus(train_docs)
        if classifier == "nb":
            model = train_nb(matrix, train_labels)
        else:
            model = train_lr(matrix, train_labels, ridge)
        test_rows = transform_documents([texts[i] for i in test_idx], matrix)
        preds = predict_many(model, test_rows)
        correct = 0
        for i, p in zip(test_idx, preds):
            predictions[int(i)] = p
            if p == labels[i]:
                correct += 1
        fold_results.append(FoldResult(fi, len(test_idx), correct))
    pred_vec = [predictions[i] for i in range(len(kept))]
    per_type = {
        t: f1_score(pred_vec, labels, t)
        for t in sorted(set(labels), key=lambda x: x.value)
    }
    return CvReport(
        classifier=classifier,
        seed=seed,
        folds=folds,
        per_type_f1=per_type,
        per_fold=tuple(fold_results),
        excluded=excluded,
    )


def render_cv_report(report: CvReport) -> str:
    """16-row type table (excluded or unseen types marked with a dash)."""
    from .ingest import ALL_TYPES

    lines = [
        f"# classifier={report.classifier} folds={report.folds} seed={report.seed}",
        f"type\tf1_{report.classifier}",
    ]
    for t in ALL_TYPES:
        if t in report.per_type_f1:
            lines.append(f"{t}\t{report.per_type_f1[t]:.6f}")
        else:
            lines.append(f"{t}\t-")
    lines.append(f"macro\t{report.macro_f1():.6f}")
    return "\n".join(lines) + "\n"
