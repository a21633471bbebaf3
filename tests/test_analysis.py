"""Domain-distance metrics and the adapter-weight table against the loops
they replace."""

import numpy as np
import pytest

from doprompt import analysis, pipeline
from doprompt import tensor as T
from doprompt.config import ConfigError
from doprompt.datagen import generate_dataset

from conftest import looped_infer, tiny_run_config


def loop_cosine(x, y):
    return 1.0 - float(np.dot(x, y)) / (float(np.linalg.norm(x)) * float(np.linalg.norm(y)))


def loop_in_dist(features, centroid):
    return float(np.mean([loop_cosine(x, centroid) for x in features]))


def loop_pair_dist(feats_i, feats_j):
    cent_i, cent_j = feats_i.mean(axis=0), feats_j.mean(axis=0)
    denom = 0.5 * (loop_in_dist(feats_i, cent_i) + loop_in_dist(feats_j, cent_j))
    return loop_cosine(cent_i, cent_j) / denom


def loop_class_distance(feats_i, labels_i, feats_j, labels_j):
    shared = np.intersect1d(labels_i, labels_j)
    return float(np.mean([loop_pair_dist(feats_i[labels_i == c], feats_j[labels_j == c]) for c in shared]))


def make_domains(seed, n=4, per=30, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    feats = [rng.normal(loc=rng.normal(size=dim), scale=0.5 + d, size=(per, dim)) for d in range(n)]
    labels = [rng.integers(0, classes, size=per) for _ in range(n)]
    return feats, labels


@pytest.mark.parametrize("seed", range(3))
def test_domain_and_class_distance_match_loop_reference(seed):
    feats, labels = make_domains(seed)
    report = analysis.domain_distance(feats, labels)
    n = len(feats)
    for i in range(n):
        assert abs(report.in_dist[i] - loop_in_dist(feats[i], feats[i].mean(axis=0))) < 1e-12
        for j in range(n):
            if i == j:
                assert report.domain_dist[i, j] == 0.0
                continue
            assert abs(report.domain_dist[i, j] - loop_pair_dist(feats[i], feats[j])) < 1e-12
            expected = loop_class_distance(feats[i], labels[i], feats[j], labels[j])
            assert abs(report.class_dist[i, j] - expected) < 1e-12
            assert abs(analysis.class_distance(feats[i], labels[i], feats[j], labels[j]) - expected) < 1e-12


def test_distance_is_invariant_to_uniform_rescaling():
    feats, _ = make_domains(7)
    base = analysis.domain_distance(feats).domain_dist
    np.testing.assert_allclose(analysis.domain_distance([3.0 * f for f in feats]).domain_dist, base, atol=1e-12)


def test_zero_spread_raises_degenerate_domain_error():
    same = np.ones((4, 3))
    with pytest.raises(analysis.DegenerateDomainError, match="between domains 0, 1"):
        analysis.domain_distance([same, 2.0 * same])
    with pytest.raises(analysis.DegenerateDomainError):
        analysis.class_distance(same, np.zeros(4), same, np.zeros(4))


def test_too_few_vectors_or_no_shared_class_raise_before_any_warning(recwarn):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4, 3))
    assert issubclass(analysis.DegenerateDomainError, ConfigError)
    with pytest.raises(analysis.DegenerateDomainError, match="domain 1 has 1 feature vectors, need >= 2"):
        analysis.domain_distance([feats, feats[:1]])
    with pytest.raises(analysis.DegenerateDomainError, match="no class present in both domains"):
        analysis.class_distance(feats, np.zeros(4), 2.0 * feats, np.ones(4))
    assert [str(w.message) for w in recwarn] == []


def test_adapter_weight_stats_match_the_per_source_loop():
    # 130 images a domain, so the chunked read path crosses a chunk edge
    dataset = generate_dataset(3, 130, 0)
    state = pipeline.init_state(tiny_run_config().vit, 2, 2, seed=0)
    adapter = state.adapter
    adapter.w2.data *= 100.0  # sharper weights
    # centre the adapter's logits over all images, so that which slot wins varies by image
    hidden = T.gelu(T.linear(T.Tensor(pipeline.extract_features(state, np.concatenate(dataset.images))),
                             adapter.w1, adapter.b1))
    adapter.b2.data -= (hidden.data @ adapter.w2.data).mean(axis=0)
    stats = analysis.adapter_weight_stats(state, dataset, range(3))
    assert stats.eval_domains == [0, 1, 2] and stats.source_domains == [0, 1]
    for row, d in enumerate(range(3)):
        per_sample = looped_infer(state, dataset.images[d])[1].mean(axis=1)
        winners = per_sample.argmax(axis=1)
        for s in range(2):
            assert stats.percentages[row, s] == 100.0 * float((winners == s).mean())
            assert stats.averages[row, s] == float(per_sample[:, s].mean())
    assert 0.0 < stats.percentages[:, 0].min() < 100.0  # both slots win somewhere
