"""Personality type prediction from text.

Bag-of-words tf-idf vectors feed either a multinomial naive Bayes or a
one-vs-rest ridge logistic regression; both fit one linear model, scored
as rows @ weights.T + intercepts, and are evaluated with per-type F-1
under seeded stratified cross-validation.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch, InsufficientData, InvalidSpec
from .ingest import ALL_TYPES, MbtiType
from .lexfeat import count_matrix, tokenize

log = logging.getLogger(__name__)

MIN_DOCUMENT_FREQUENCY = 2
# the pseudo-mass train_nb adds to every class's mass of every feature
NB_SMOOTHING = 1.0
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
    rows: sparse.csr_array


def _tf_idf(
    texts: Sequence[str], vocabulary: tuple[str, ...], idf: np.ndarray
) -> sparse.csr_array:
    """L2-normalized tf * idf rows; all-zero rows stay zero."""
    index = {t: j for j, t in enumerate(vocabulary)}
    counts = count_matrix((tokenize(text) for text in texts), index)
    rows = counts @ sparse.diags_array(idf)
    norms = np.sqrt(rows.multiply(rows).sum(axis=1))
    norms[norms == 0.0] = 1.0
    return (sparse.diags_array(1.0 / norms) @ rows).tocsr()


def vectorize_corpus(texts: Sequence[str]) -> TfIdfMatrix:
    """Build vocabulary (document frequency >= 2), idf weights and rows.

    idf = ln((1 + N) / (1 + df)) + 1; rows are tf * idf, L2-normalized.
    """
    if not texts:
        raise InsufficientData("no documents")
    df = Counter(t for text in texts for t in set(tokenize(text)))
    vocab = tuple(sorted(t for t, n in df.items() if n >= MIN_DOCUMENT_FREQUENCY))
    n_docs = len(texts)
    idf = np.array([np.log((1 + n_docs) / (1 + df[t])) + 1 for t in vocab])
    return TfIdfMatrix(vocab, idf, _tf_idf(texts, vocab, idf))


def transform_documents(texts: Sequence[str], m: TfIdfMatrix) -> sparse.csr_array:
    """Vectorize unseen texts with an existing vocabulary and idf."""
    return _tf_idf(texts, m.vocabulary, m.idf)


@dataclass(frozen=True)
class LinearModel:
    """One row of `weights` and one intercept per class; a row's class
    scores are rows @ weights.T + intercepts."""

    classes: tuple[MbtiType, ...]
    weights: np.ndarray
    intercepts: np.ndarray


@dataclass(frozen=True)
class LrModel(LinearModel):
    converged: tuple[bool, ...]
    epochs: tuple[int, ...]


def _class_order(labels: Sequence[MbtiType]) -> tuple[tuple[MbtiType, ...], np.ndarray]:
    """Sorted classes and the 0/1 class x document indicator."""
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise InsufficientData(f"need at least 2 classes, got {len(classes)}")
    label_arr = np.array([c.value for c in labels])
    codes = np.array([c.value for c in classes])
    return classes, (label_arr == codes[:, None]).astype(float)


def train_nb(m: TfIdfMatrix, labels: Sequence[MbtiType]) -> LinearModel:
    """Multinomial naive Bayes over tf-idf masses with additive smoothing
    NB_SMOOTHING: the weights are the feature log-probabilities, the
    intercepts the log priors. The indicator product adds each class's
    rows in row order."""
    classes, indicator = _class_order(labels)
    mass = indicator @ m.rows
    # one 1-d sum per class, as a 2-d row reduction may add in another order
    totals = np.array([row.sum() + NB_SMOOTHING * mass.shape[1] for row in mass])
    with np.errstate(divide="ignore"):  # an empty vocabulary has totals 0
        log_totals = np.log(totals)
    weights = np.log(mass + NB_SMOOTHING) - log_totals[:, None]
    return LinearModel(classes, weights, np.log(indicator.sum(axis=1) / len(labels)))


def predict_many(model: LinearModel, rows: sparse.csr_array) -> list[MbtiType]:
    """Most probable class per vectorized row; ties break to the
    lexicographically smallest type code."""
    return [model.classes[i] for i in np.argmax(rows @ model.weights.T + model.intercepts, axis=1)]


def _lr_gradients(X, XT, targets: np.ndarray, W: np.ndarray, b: np.ndarray, ridge: float):
    """(grad_W, grad_b) of k binary objectives at once: each class's mean
    log-loss of sigmoid(X w + b) against its 0/1 targets, plus
    (ridge/2)||w||^2, with the intercept unpenalized.

    targets is k x n, W is k x p and b has length k; XT is X.T. Each class's
    gradient is computed bitwise as it would be alone: the sparse
    multi-vector products add every output element over the same nonzeros
    in the same order as the single-vector ones, and the rows of both
    results are made contiguous so the intercept mean and the callers' dot
    products take the 1-d summation path.
    """
    Z = np.ascontiguousarray((X @ W.T).T) + b[:, None]
    diff = 1.0 / (1.0 + np.exp(-Z)) - targets
    grad_W = np.ascontiguousarray((XT @ diff.T).T) / X.shape[0] + ridge * W
    return grad_W, diff.mean(axis=1)


def train_lr(
    m: TfIdfMatrix,
    labels: Sequence[MbtiType],
    ridge: float = 1.0,
) -> LrModel:
    """One-vs-rest logistic regression by FISTA with gradient restart.

    Each class minimizes its mean log-loss against its 0/1 targets plus
    (ridge/2)||w||^2, intercept unpenalized, with the gradient from
    _lr_gradients. Weights start at zero and the step is 1/L for a
    Frobenius-norm Lipschitz bound. Every epoch takes the gradient at each
    class's extrapolated point y (Beck and Teboulle, 2009): a class whose
    gradient norm there is below 1e-6 stops and returns y; otherwise it
    steps x+ = y - g/L and extrapolates
    y+ = x+ + ((t - 1)/t+)(x+ - x) with t+ = (1 + sqrt(1 + 4t^2))/2,
    first resetting t to 1 when g . (x+ - x) > 0 (O'Donoghue and Candes,
    2015), which keeps the momentum from carrying x uphill. A class that
    reaches the 1000-epoch cap returns its last x; the converged flag
    records which happened, `epochs` the gradient evaluations each class
    used, and a warning names the classes that hit the cap. All classes
    run together, one batched gradient per epoch, and each class's model
    is bitwise the one the same loop over that class alone gives.
    """
    if ridge < 0:
        raise InvalidSpec(f"ridge must be >= 0, got {ridge}")
    X = m.rows
    XT = X.T
    classes, targets = _class_order(labels)
    n, p = X.shape
    lipschitz = (float(X.multiply(X).sum()) + n) / (4.0 * n) + ridge
    step = 1.0 / lipschitz
    weights = np.zeros((len(classes), p))
    intercepts = np.zeros(len(classes))
    y_w, y_b = weights.copy(), intercepts.copy()
    momentum = np.ones(len(classes))
    converged = np.zeros(len(classes), dtype=bool)
    epochs = np.full(len(classes), LR_MAX_EPOCHS)
    active = np.arange(len(classes))
    for epoch in range(LR_MAX_EPOCHS):
        grad_W, grad_b = _lr_gradients(X, XT, targets[active], y_w[active], y_b[active], ridge)
        # one g @ g (and below one g @ d) per class: the dot products the loop
        # over that class alone takes, so stops and restarts match it bitwise
        gnorm = np.sqrt(np.array([g @ g for g in grad_W]) + grad_b * grad_b)
        done = gnorm < LR_GRAD_TOL
        stopped = active[done]
        converged[stopped] = True
        epochs[stopped] = epoch + 1
        weights[stopped] = y_w[stopped]
        intercepts[stopped] = y_b[stopped]
        active, grad_W, grad_b = active[~done], grad_W[~done], grad_b[~done]
        if not active.size:
            break
        next_w = y_w[active] - step * grad_W
        next_b = y_b[active] - step * grad_b
        d_w = next_w - weights[active]
        d_b = next_b - intercepts[active]
        uphill = np.array([g @ d for g, d in zip(grad_W, d_w)]) + grad_b * d_b > 0
        t = np.where(uphill, 1.0, momentum[active])
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        coef = (t - 1.0) / t_next
        y_w[active] = next_w + coef[:, None] * d_w
        y_b[active] = next_b + coef * d_b
        weights[active] = next_w
        intercepts[active] = next_b
        momentum[active] = t_next
    if active.size:
        log.warning(
            "logistic regression: %d of %d classes reached %d epochs without "
            "converging: %s",
            active.size, len(classes), LR_MAX_EPOCHS,
            " ".join(classes[i].value for i in active),
        )
    return LrModel(
        classes, weights, intercepts, tuple(converged.tolist()), tuple(epochs.tolist())
    )


def f1_score(pred: Sequence[MbtiType], truth: Sequence[MbtiType], positive_type: MbtiType) -> float:
    """One-vs-rest F-1; defined as 0 when precision + recall is 0."""
    if len(pred) != len(truth):
        raise DimensionMismatch(f"lengths {len(pred)} vs {len(truth)}")
    tp = sum(1 for p, t in zip(pred, truth) if p == positive_type and t == positive_type)
    fp = sum(1 for p, t in zip(pred, truth) if p == positive_type and t != positive_type)
    fn = sum(1 for p, t in zip(pred, truth) if p != positive_type and t == positive_type)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


@dataclass(frozen=True)
class CvReport:
    classifier: str
    seed: int
    folds: int
    per_type_f1: dict[MbtiType, float]
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
    for lab in sorted(by_type):
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
        raise InvalidSpec(f"unknown classifier: {classifier!r}")
    counts = Counter(lab for _, lab in c.documents)
    excluded = tuple(sorted(t for t, n in counts.items() if n < folds))
    for t in excluded:
        log.warning("type %s has %d < %d documents; excluded from CV", t, counts[t], folds)
    kept = [(text, lab) for text, lab in c.documents if lab not in excluded]
    if len({lab for _, lab in kept}) < 2:
        raise InsufficientData(f"fewer than 2 types have at least {folds} documents")
    texts = [text for text, _ in kept]
    labels = [lab for _, lab in kept]
    predicted = [None] * len(kept)
    for test_idx in _stratified_folds(labels, folds, seed):
        train_idx = np.setdiff1d(np.arange(len(kept)), test_idx)
        matrix = vectorize_corpus([texts[i] for i in train_idx])
        train_labels = [labels[i] for i in train_idx]
        if classifier == "nb":
            model = train_nb(matrix, train_labels)
        else:
            model = train_lr(matrix, train_labels, ridge)
        test_rows = transform_documents([texts[i] for i in test_idx], matrix)
        for i, p in zip(test_idx, predict_many(model, test_rows)):
            predicted[i] = p
    per_type = {t: f1_score(predicted, labels, t) for t in sorted(set(labels))}
    return CvReport(classifier, seed, folds, per_type, excluded)


def render_cv_report(report: CvReport) -> str:
    """16-row type table (excluded or unseen types marked with a dash)."""
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
