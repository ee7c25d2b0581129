"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just reported.
"""

import time

import mpmath
import numpy as np

from affinity_miner.classify import LabeledCorpus, cross_validate
from affinity_miner.cli import resolve_config, run_pipeline
from affinity_miner.cluster import (
    Clustering,
    hitting_times,
    k_destinations,
    mcl,
    random_walk_matrix,
)
from affinity_miner.graph import type_pair_percentages
from affinity_miner.influence import influential_types
from affinity_miner.ingest import ALL_TYPES
from affinity_miner.lexfeat import (
    emotion_correlation_table,
    fit_elastic_net,
    load_lexicon,
    pearson_r,
)
from affinity_miner.semsim import cosine, load_embeddings, type_similarity_matrix
from affinity_miner.synth import generate_dataset

from conftest import (
    dict_graph,
    flat,
    index_clusters,
    make_graph,
    random_positive_graph,
    well_separated_chain,
)
from oracles import (
    PlantedSpec,
    brute_force_error,
    clustering_error,
    labels_from_clustering,
    lr_loss_grad,
    naive_nmi,
    nmi,
    planted_partition,
    sample_chain_sequence,
)
from test_cluster import direct_hitting_times


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_01_type_pair_enumeration(rng):
    start = time.perf_counter()
    codes = [str(t) for t in ALL_TYPES]
    worst_dev = 0.0
    sizes_ok = True
    for trial in range(30):
        n_edges = int(rng.integers(1, 60))
        edges = {}
        types = {}
        for _ in range(n_edges):
            u, v = f"u{int(rng.integers(30))}", f"u{int(rng.integers(30))}"
            if u == v:
                continue
            types.setdefault(u, codes[int(rng.integers(16))])
            types.setdefault(v, codes[int(rng.integers(16))])
            edges[(u, v)] = float(rng.random() + 0.01)
        if not edges:
            continue
        g = make_graph([(u, v, w) for (u, v), w in edges.items()], types=types)
        table = type_pair_percentages(g)
        sizes_ok &= len(table) == 136
        worst_dev = max(worst_dev, abs(sum(table.values()) - 100.0))
    elapsed = time.perf_counter() - start
    ok = sizes_ok and worst_dev < 1e-9 and elapsed < 1.0
    report(1, "type-pair enumeration", ok,
           f"entries=136 always={sizes_ok}, max sum deviation={worst_dev:.2e}, {elapsed:.2f}s")


def test_02_clustering_recovery():
    worst_nmi, worst_err, worst_time = 1.0, 0.0, 0.0
    for seed in range(10):
        spec = PlantedSpec(
            n=200, k=4, p_in=0.2, p_out=0.01,
            w_in=(0.8, 1.0), w_out=(0.01, 0.05), seed=seed,
        )
        g, truth = planted_partition(spec)
        order = g.order
        tvec = np.array([truth[u] for u in order])
        start = time.perf_counter()
        for clustering in (mcl(g), k_destinations(g, 4)):
            labels = labels_from_clustering(clustering)
            worst_nmi = min(worst_nmi, nmi(labels, tvec))
            worst_err = max(worst_err, clustering_error(labels, tvec))
        worst_time = max(worst_time, time.perf_counter() - start)
    ok = worst_nmi >= 0.9 and worst_err <= 0.05 and worst_time < 10.0
    report(2, "clustering recovery", ok,
           f"worst NMI={worst_nmi:.4f} (>=0.9), worst Error={worst_err:.4f} (<=0.05), "
           f"max per-graph time={worst_time:.2f}s (<10)")


def test_03_hitting_time_oracle(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        g = random_positive_graph(rng, n)
        H = hitting_times(g)
        worst = max(worst, float(np.max(np.abs(H - direct_hitting_times(random_walk_matrix(g))))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report(3, "hitting-time oracle equivalence", ok,
           f"max |fundamental - direct|={worst:.2e} (<1e-8), {elapsed:.2f}s (<5)")


def test_04_metric_oracle(rng):
    start = time.perf_counter()
    worst_nmi_dev, error_exact = 0.0, True
    for _ in range(100):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 6))
        x = [int(v) for v in rng.integers(0, k, size=n)]
        y = [int(v) for v in rng.integers(0, k, size=n)]
        worst_nmi_dev = max(worst_nmi_dev, abs(nmi(x, y) - naive_nmi(x, y)))
        error_exact &= clustering_error(x, y) == brute_force_error(x, y)
    elapsed = time.perf_counter() - start
    ok = worst_nmi_dev < 1e-10 and error_exact and elapsed < 5.0
    report(4, "metric oracle equivalence", ok,
           f"NMI max dev={worst_nmi_dev:.2e} (<1e-10), error exact={error_exact}, "
           f"{elapsed:.2f}s (<5)")


def test_05_chain_estimation_consistency(rng):
    from affinity_miner.affinity import estimate_chains

    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        P = well_separated_chain(rng)
        seq = sample_chain_sequence(P, 10_000, seed=seed)
        est = estimate_chains(*flat([seq]), alpha=1.0)[0]
        worst = max(worst, float(np.max(np.abs(est - P))))
    elapsed = time.perf_counter() - start
    ok = worst < 0.02 and elapsed < 5.0
    report(5, "chain estimation consistency", ok,
           f"max L-inf dev={worst:.4f} (<0.02), {elapsed:.2f}s (<5)")


def test_06_elastic_net_correctness(rng):
    start = time.perf_counter()
    worst_ols = 0.0
    for _ in range(20):
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        fit = fit_elastic_net(X, y, lam=0.0)
        coef, *_ = np.linalg.lstsq(np.hstack([X, np.ones((10, 1))]), y, rcond=None)
        worst_ols = max(
            worst_ols,
            float(np.max(np.abs(fit.coef - coef[:3]))),
            abs(fit.intercept - coef[3]),
        )
    worst_soft = 0.0
    for _ in range(20):
        lam = float(rng.uniform(0.001, 0.5))
        mix = float(rng.uniform(0.0, 1.0))
        x = rng.normal(size=50)
        x = (x - x.mean()) / x.std()
        y = rng.normal(size=50)
        rho = float(x @ (y - y.mean())) / 50
        closed = np.sign(rho) * max(abs(rho) - lam * mix, 0.0) / (1 + lam * (1 - mix))
        fit = fit_elastic_net(x[:, None], y, lam=lam, mix=mix)
        worst_soft = max(worst_soft, abs(fit.coef[0] - closed))
    elapsed = time.perf_counter() - start
    ok = worst_ols < 1e-6 and worst_soft < 1e-8 and elapsed < 2.0
    report(6, "elastic-net correctness", ok,
           f"max |cd - ols|={worst_ols:.2e} (<1e-6), "
           f"max |cd - soft threshold|={worst_soft:.2e} (<1e-8), {elapsed:.2f}s (<2)")


def test_07_classification_sanity(rng):
    start = time.perf_counter()
    shared = [f"noise{i}" for i in range(10)]
    docs = []
    for t in ALL_TYPES:
        own = [f"{t.value.lower()}tok{j}" for j in range(5)]
        for _ in range(40):
            words = list(rng.choice(own, size=7)) + list(rng.choice(shared, size=5))
            docs.append((" ".join(words), t))
    corpus = LabeledCorpus(tuple(docs))
    macro = {}
    for classifier in ("nb", "lr"):
        rep = cross_validate(corpus, classifier, folds=10, seed=0)
        macro[classifier] = rep.macro_f1()
    grad_ok = True
    for _ in range(10):
        X = rng.normal(size=(5, 4))
        targets = (rng.random(5) > 0.5).astype(float)
        w = rng.normal(size=4) * 0.3
        b = float(rng.normal()) * 0.3
        ridge = float(rng.uniform(0, 2))
        _, grad_w, grad_b = lr_loss_grad(X, targets, w, b, ridge)
        eps = 1e-6
        for j in range(4):
            dw = np.zeros(4)
            dw[j] = eps
            up, *_ = lr_loss_grad(X, targets, w + dw, b, ridge)
            dn, *_ = lr_loss_grad(X, targets, w - dw, b, ridge)
            grad_ok &= abs((up - dn) / (2 * eps) - grad_w[j]) < 1e-6
        up, *_ = lr_loss_grad(X, targets, w, b + eps, ridge)
        dn, *_ = lr_loss_grad(X, targets, w, b - eps, ridge)
        grad_ok &= abs((up - dn) / (2 * eps) - grad_b) < 1e-6
    elapsed = time.perf_counter() - start
    ok = macro["nb"] >= 0.95 and macro["lr"] >= 0.95 and grad_ok and elapsed < 30.0
    report(7, "classification sanity", ok,
           f"macro F1 nb={macro['nb']:.4f} lr={macro['lr']:.4f} (>=0.95), "
           f"gradients within 1e-6={grad_ok}, {elapsed:.1f}s (<30)")


def _mp_cosine(a, b):
    mpmath.mp.dps = 50
    dot = mpmath.fsum(mpmath.mpf(x) * mpmath.mpf(y) for x, y in zip(a, b))
    na = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in a))
    nb = mpmath.sqrt(mpmath.fsum(mpmath.mpf(y) ** 2 for y in b))
    return float(dot / (na * nb))


def _mp_pearson(x, y):
    mpmath.mp.dps = 50
    n = len(x)
    mx = mpmath.fsum(mpmath.mpf(v) for v in x) / n
    my = mpmath.fsum(mpmath.mpf(v) for v in y) / n
    dx = [mpmath.mpf(v) - mx for v in x]
    dy = [mpmath.mpf(v) - my for v in y]
    sxy = mpmath.fsum(a * b for a, b in zip(dx, dy))
    sxx = mpmath.fsum(a * a for a in dx)
    syy = mpmath.fsum(b * b for b in dy)
    return float(sxy / mpmath.sqrt(sxx * syy))


def test_08_similarity_correlation_numerics(rng):
    worst_cos, worst_pearson = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        worst_cos = max(worst_cos, abs(cosine(a, b) - _mp_cosine(a, b)))
        worst_pearson = max(worst_pearson, abs(pearson_r(a, b) - _mp_pearson(a, b)))

    # pipeline-level exactness on identical corpora
    lines = [f"tok{i} " + " ".join(str(v) for v in np.eye(16)[i]) for i in range(16)]
    table = load_embeddings(lines)
    corpora = {t: f"tok{i}" for i, t in enumerate(ALL_TYPES)}
    corpora[ALL_TYPES[1]] = corpora[ALL_TYPES[0]] = "tok0 tok5 tok9"
    sim = type_similarity_matrix(corpora, table)
    self_sim = sim[(ALL_TYPES[1], ALL_TYPES[0])]

    lex = load_lexicon(["posemo\thapp*"])
    docs = []
    for i in range(10):
        words = [f"w{int(v)}" for v in rng.integers(0, 12, size=15)]
        words += ["happy"] * int(rng.integers(0, 4))
        docs.append(" ".join(words))
    self_corr = emotion_correlation_table(
        {"a": docs, "b": list(docs)}, lex, "posemo"
    )[("b", "a")]

    ok = (
        worst_cos < 1e-12
        and worst_pearson < 1e-12
        and self_sim == 1.0
        and self_corr == 1.0
    )
    report(8, "similarity/correlation numerics", ok,
           f"cosine max dev={worst_cos:.2e}, pearson max dev={worst_pearson:.2e} "
           f"(<1e-12), self-similarity={self_sim}, self-correlation={self_corr} (==1.0)")


STAGE_FILES = [
    "ingest.txt", "scores.tsv", "graph.tsv", "graph.dot", "type_pairs.tsv",
    "clustering.tsv", "influence.txt", "semsim.tsv", "lexcorr_pos.tsv",
    "lexcorr_neg.tsv", "cv_report.tsv", "report.txt",
]


def test_09_end_to_end_determinism(tmp_path):
    data = generate_dataset(tmp_path / "data", seed=23, users_per_type=10)
    out = tmp_path / "results"
    cfg = resolve_config({}, {
        "interactions": str(data["interactions"]),
        "profiles": str(data["profiles"]),
        "embeddings": str(data["embeddings"]),
        "lexicon": str(data["lexicon"]),
        "out": str(out),
        "seed": "23",
    })
    code1 = run_pipeline(cfg)
    first = {name: (out / name).read_bytes() for name in STAGE_FILES}
    code2 = run_pipeline(cfg)
    identical = all((out / name).read_bytes() == first[name] for name in STAGE_FILES)
    all_present = all((out / name).is_file() for name in STAGE_FILES)
    ok = code1 == 0 and code2 == 0 and identical and all_present
    report(9, "end-to-end determinism", ok,
           f"exit codes=({code1},{code2}), all {len(STAGE_FILES)} outputs present={all_present}, "
           f"byte-identical={identical}")


def test_10_influence_invariance():
    ok = True
    detail = []
    for seed in range(20):
        spec = PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.1, seed=seed)
        g, truth = planted_partition(spec)
        groups: dict[int, set] = {}
        for u in g.nodes:
            groups.setdefault(truth[u], set()).add(u)
        c = Clustering(
            clusters=index_clusters([v for _, v in sorted(groups.items())], g.order),
            method="k-destinations", params={},
            nodes=g.order, iterations=1, converged=True,
        )
        base = influential_types(g, c)
        for scale in (0.001, 42.0):
            scaled = dict_graph(
                nodes=g.nodes,
                edges={e: w * scale for e, w in g.edges.items()},
            )
            if influential_types(scaled, c) != base:
                ok = False
                detail.append(f"seed {seed}: rescale x{scale} changed the report")
        rename = {u: f"zz_{u}" for u in g.nodes}  # order-preserving
        g2 = dict_graph(
            nodes={rename[u]: t for u, t in g.nodes.items()},
            edges={(rename[u], rename[v]): w for (u, v), w in g.edges.items()},
        )
        c2 = Clustering(
            clusters=c.clusters, method="k-destinations", params={},
            nodes=g2.order, iterations=1, converged=True,
        )
        base2 = influential_types(g2, c2)
        for a, b in zip(base, base2):
            if (rename[a.top_node] != b.top_node or a.top_type != b.top_type
                    or a.link_count != b.link_count
                    or a.per_type_link_totals != b.per_type_link_totals):
                ok = False
                detail.append(f"seed {seed}: relabeling changed the report")
    report(10, "influence invariance", ok,
           "; ".join(detail) if detail else "rescaling and relabeling stable over 20 graphs")
