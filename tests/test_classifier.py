import numpy as np
import pytest

import tsrg.classifier
from oracles import dual_cd_reference
from tsrg.classifier import LabeledDataset, predict, train
from tsrg.errors import DimensionError, EmptyClassError
from tsrg.kernels import FeatureMatrix


def blobs(centers, n_per_class, sigma, seed):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    cols, labels = [], []
    for c, center in enumerate(centers):
        cols.append(center[:, None] + sigma * rng.standard_normal((len(center), n_per_class)))
        labels.extend([c] * n_per_class)
    names = tuple(f"c{c}" for c in range(len(centers)))
    return LabeledDataset(FeatureMatrix(np.concatenate(cols, axis=1)),
                          np.array(labels), names)


def nearest_centroid_accuracy(data):
    x, y = data.features.data, data.labels
    centroids = np.stack([x[:, y == c].mean(axis=1) for c in range(data.num_classes)])
    preds = np.argmin(
        np.stack([np.sum((x - c[:, None]) ** 2, axis=0) for c in centroids]), axis=0)
    return float(np.mean(preds == y))


def test_separable_blobs_perfect_training_accuracy():
    data = blobs([(-5, 0), (5, 0)], 20, 0.5, seed=0)
    model = train(data, penalty_c=1.0)
    assert np.mean(predict(model, data.features) == data.labels) == 1.0


def test_two_point_margin():
    data = LabeledDataset(FeatureMatrix(np.array([[1.0, -1.0], [0.0, 0.0]])),
                          np.array([0, 1]), ("pos", "neg"))
    model = train(data, penalty_c=1.0)
    preds = predict(model, data.features)
    np.testing.assert_array_equal(preds, [0, 1])
    assert model.weights[0] @ np.array([1.0, 0.0]) > 0


def test_three_class_blobs_beat_centroid_oracle():
    centers = [(0, 4), (-4 * np.sqrt(3) / 2, -2), (4 * np.sqrt(3) / 2, -2)]
    for seed in range(10):
        data = blobs(centers, 15, 0.3, seed=seed)
        oracle = nearest_centroid_accuracy(data)
        assert oracle >= 0.99
        model = train(data, penalty_c=1.0)
        acc = np.mean(predict(model, data.features) == data.labels)
        assert acc >= oracle - 0.05
        assert acc >= 0.95


def test_blob_fixtures_within_centroid_margin():
    for centers, sigma in ([[(-3, 0), (3, 0)], 0.8],
                           [[(0, 0, 5), (0, 5, 0), (5, 0, 0)], 1.0]):
        data = blobs(centers, 20, sigma, seed=7)
        model = train(data, penalty_c=1.0)
        acc = np.mean(predict(model, data.features) == data.labels)
        assert acc >= nearest_centroid_accuracy(data) - 0.05


def test_training_is_deterministic():
    data = blobs([(-2, 1), (2, -1), (0, 3)], 12, 1.0, seed=3)
    m1 = train(data, penalty_c=1.0)
    m2 = train(data, penalty_c=1.0)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    np.testing.assert_array_equal(m1.biases, m2.biases)


def test_scaling_invariance_on_separable_toy():
    data = blobs([(-5, 0), (5, 0)], 15, 0.4, seed=5)
    model = train(data, penalty_c=1.0)
    scale = 3.0
    scaled = LabeledDataset(FeatureMatrix(scale * data.features.data),
                            data.labels, data.class_names)
    # rescale C so the solution weights scale as 1/s and scores match
    model_scaled = train(scaled, penalty_c=1.0 / scale ** 2)
    probe = FeatureMatrix(np.random.default_rng(6).uniform(-6, 6, size=(2, 30)))
    scaled_probe = FeatureMatrix(scale * probe.data)
    np.testing.assert_array_equal(predict(model, probe),
                                  predict(model_scaled, scaled_probe))


def test_predict_identity_weights():
    model = train(blobs([(5, 0), (0, 5)], 10, 0.2, seed=8), 1.0)
    assert predict(model, FeatureMatrix(np.array([[5.0], [0.0]])))[0] == 0


@pytest.mark.parametrize("penalty_c", [np.nan, 0.0, -1.0])
def test_penalty_c_must_be_positive(penalty_c):
    # a NaN C would leave alpha unbounded above: min(a, nan) returns a
    with pytest.raises(ValueError, match="^penalty_c must be > 0$"):
        train(blobs([(5, 0), (0, 5)], 10, 0.2, seed=8), penalty_c)


def test_tie_breaks_to_lowest_class_id():
    from tsrg.classifier import LinearClassifier
    model = LinearClassifier(weights=np.zeros((3, 2)), biases=np.zeros(3),
                             class_names=("a", "b", "c"))
    preds = predict(model, FeatureMatrix(np.random.default_rng(9).standard_normal((2, 5))))
    np.testing.assert_array_equal(preds, 0)


def test_batched_scores_match_naive_loop():
    data = blobs([(-1, 2), (3, -1), (0, 0)], 8, 1.0, seed=10)
    model = train(data, penalty_c=1.0)
    from tsrg.classifier import decision_scores
    x = FeatureMatrix(np.random.default_rng(11).standard_normal((2, 6)))
    scores = decision_scores(model, x)
    for c in range(3):
        for j in range(6):
            naive = float(np.dot(model.weights[c], x.data[:, j]) + model.biases[c])
            assert scores[c, j] == naive


def test_missing_class_raises():
    data = LabeledDataset(FeatureMatrix(np.ones((2, 3))), np.array([0, 0, 0]),
                          ("a", "b"))
    with pytest.raises(EmptyClassError):
        train(data, 1.0)


def test_dimension_mismatch_on_predict():
    model = train(blobs([(-5, 0), (5, 0)], 5, 0.3, seed=12), 1.0)
    with pytest.raises(DimensionError):
        predict(model, FeatureMatrix(np.ones((3, 2))))


def test_label_length_mismatch():
    with pytest.raises(DimensionError):
        LabeledDataset(FeatureMatrix(np.ones((2, 3))), np.array([0, 1]), ("a", "b"))


def correlated(seed=0, d=200, n=60, k=3):
    """Every sample is one shared uniform(0,1) column plus 0.2 N(0,1) noise;
    only 5 rows carry a 0.1 * label signal.  The Gram matrix is nearly rank
    one, which the fixed-order primal-space reference does not solve within
    its 1000-epoch cap."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    x = rng.uniform(0, 1, size=(d, 1)) + 0.2 * rng.standard_normal((d, n))
    x[:5] += 0.1 * labels
    return LabeledDataset(FeatureMatrix(x), labels, tuple(f"c{c}" for c in range(k)))


def augmented(data):
    x = data.features.data
    return np.vstack([x, np.ones((1, x.shape[1]))])


def primal_objective(w_aug, x_aug, y, c):
    return 0.5 * w_aug @ w_aug + c * np.maximum(0.0, 1.0 - y * (w_aug @ x_aug)).sum()


def test_every_class_converges_on_correlated_features():
    model = train(correlated(), penalty_c=1.0)
    assert model.converged == (True, True, True)
    assert len(model.epochs) == 3 and all(0 < e < 1000 for e in model.epochs)


def test_returned_alpha_meets_kkt_within_tol():
    data = correlated()
    x_aug = augmented(data)
    gram = x_aug.T @ x_aug
    c, tol = 1.0, tsrg.classifier._TOL
    for cls in range(data.num_classes):
        y = np.where(data.labels == cls, 1.0, -1.0)
        alpha, _, converged = tsrg.classifier._dual_cd_hinge(gram, y, c)
        assert converged
        assert np.all((alpha >= 0.0) & (alpha <= c))
        grad = y * (gram @ (y * alpha)) - 1.0
        pg = np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                      np.where(alpha >= c, np.maximum(grad, 0.0), grad))
        assert np.max(np.abs(pg)) < tol


def test_primal_objective_no_worse_than_fixed_order_reference():
    data = correlated()
    x_aug = augmented(data)
    model = train(data, penalty_c=1.0)
    for cls in range(data.num_classes):
        y = np.where(data.labels == cls, 1.0, -1.0)
        w_aug = np.append(model.weights[cls], model.biases[cls])
        reference = dual_cd_reference(x_aug, y, 1.0)
        assert (primal_objective(w_aug, x_aug, y, 1.0)
                <= primal_objective(reference, x_aug, y, 1.0))


def test_training_on_correlated_features_is_bit_identical():
    data = correlated()
    m1, m2 = train(data, penalty_c=1.0), train(data, penalty_c=1.0)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    np.testing.assert_array_equal(m1.biases, m2.biases)
    assert m1.epochs == m2.epochs


def test_non_convergence_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tsrg.classifier, "_MAX_EPOCHS", 2)
    model = train(correlated(), penalty_c=1.0)
    assert model.epochs == (2, 2, 2)
    assert model.converged == (False, False, False)
