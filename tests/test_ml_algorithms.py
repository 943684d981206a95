"""Correctness tests for the ML algorithm library."""

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.ml import (
    kfold_indices,
    l2svm,
    l2svm_accuracy,
    l2svm_predict,
    lin_reg_ds,
    mlogreg,
    mlogreg_accuracy,
    mlogreg_predict,
    pnmf,
    pnmf_loss,
    r2_score,
    successive_halving,
    weighted_ensemble,
)

RNG = np.random.default_rng(3)


@pytest.fixture()
def sess():
    return Session(MemphisConfig.memphis())


class TestLinReg:
    def test_recovers_true_coefficients(self, sess):
        X_data = RNG.random((300, 6))
        beta_true = RNG.standard_normal((6, 1))
        y_data = X_data @ beta_true
        X, y = sess.read(X_data, "X"), sess.read(y_data, "y")
        beta = lin_reg_ds(sess, X, y, reg=1e-8)
        assert np.allclose(beta.compute(), beta_true, atol=1e-6)

    def test_matches_closed_form(self, sess):
        X_data, y_data = RNG.random((100, 4)), RNG.random((100, 1))
        X, y = sess.read(X_data, "X"), sess.read(y_data, "y")
        beta = lin_reg_ds(sess, X, y, reg=0.5).compute()
        expect = np.linalg.solve(
            X_data.T @ X_data + 0.5 * np.eye(4), X_data.T @ y_data
        )
        assert np.allclose(beta, expect)

    def test_r2_of_perfect_fit_is_one(self, sess):
        y = sess.read(RNG.random((50, 1)), "y")
        assert r2_score(sess, y, y).item() == pytest.approx(1.0)

    def test_r2_of_mean_predictor_is_zero(self, sess):
        y_data = RNG.random((50, 1))
        y = sess.read(y_data, "y")
        mean = sess.read(np.full((50, 1), y_data.mean()), "m")
        assert r2_score(sess, y, mean).item() == pytest.approx(0.0, abs=1e-9)

    def test_stronger_regularization_shrinks_weights(self, sess):
        X_data, y_data = RNG.random((200, 5)), RNG.random((200, 1))
        X, y = sess.read(X_data, "X"), sess.read(y_data, "y")
        weak = np.abs(lin_reg_ds(sess, X, y, 0.001).compute()).sum()
        strong = np.abs(lin_reg_ds(sess, X, y, 1000.0).compute()).sum()
        assert strong < weak


class TestL2svm:
    def _separable(self, n=400, d=8):
        X = RNG.random((n, d))
        w = RNG.standard_normal((d, 1))
        y = np.where(X @ w > np.median(X @ w), 1.0, -1.0)
        return X, y

    def test_learns_separable_data(self, sess):
        X_data, y_data = self._separable()
        X, y = sess.read(X_data, "X"), sess.read(y_data, "y")
        w = l2svm(sess, X, y, reg=0.01, max_iterations=30)
        acc = l2svm_accuracy(sess, l2svm_predict(sess, X, w), y)
        assert acc > 0.9

    def test_intercept_adds_column(self, sess):
        X_data, y_data = self._separable(100, 4)
        X, y = sess.read(X_data, "X"), sess.read(y_data, "y")
        w = l2svm(sess, X, y, intercept=1, max_iterations=3)
        assert w.nrow == 5

    def test_deterministic(self, sess):
        X_data, y_data = self._separable(100, 4)
        X, y = sess.read(X_data, "X"), sess.read(y_data, "y")
        w1 = l2svm(sess, X, y, reg=0.1, max_iterations=5).compute()
        w2 = l2svm(sess, X, y, reg=0.1, max_iterations=5).compute()
        assert np.allclose(w1, w2)


class TestMlogreg:
    def test_learns_three_classes(self, sess):
        n, d, k = 450, 6, 3
        rng = np.random.default_rng(11)
        X_data = rng.random((n, d))
        w = rng.standard_normal((d, k))
        labels = np.argmax(X_data @ w, axis=1)
        Y_data = np.eye(k)[labels]
        X, Y = sess.read(X_data, "X"), sess.read(Y_data, "Y")
        W = mlogreg(sess, X, Y, reg=0.001, max_iterations=50, step_size=1.0)
        probs = mlogreg_predict(sess, X, W)
        # mlogreg_accuracy expects one-hot labels
        assert mlogreg_accuracy(sess, probs, Y) > 0.8

    def test_probabilities_sum_to_one(self, sess):
        X = sess.read(RNG.random((40, 5)), "X")
        Y = sess.read(np.eye(2)[RNG.integers(0, 2, 40)], "Y")
        W = mlogreg(sess, X, Y, max_iterations=2)
        probs = mlogreg_predict(sess, X, W).compute()
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestPnmf:
    def test_loss_decreases(self, sess):
        data = RNG.random((60, 40)) + 0.05
        X = sess.read(data, "X")
        W1, H1 = pnmf(sess, X, rank=4, iterations=1)
        loss_1 = pnmf_loss(sess, X, W1, H1)
        W5, H5 = pnmf(sess, X, rank=4, iterations=8)
        loss_5 = pnmf_loss(sess, X, W5, H5)
        assert loss_5 < loss_1

    def test_factors_nonnegative(self, sess):
        X = sess.read(RNG.random((40, 30)) + 0.05, "X")
        W, H = pnmf(sess, X, rank=3, iterations=4)
        assert (W.compute() >= 0).all()
        assert (H.compute() >= 0).all()

    def test_reconstruction_improves_over_random(self, sess):
        data = (RNG.random((50, 8)) @ RNG.random((8, 30))) + 0.01
        X = sess.read(data, "X")
        W, H = pnmf(sess, X, rank=8, iterations=15)
        recon = W.compute() @ H.compute()
        err = np.abs(recon - data).mean() / data.mean()
        assert err < 0.5


class TestTuningDrivers:
    def test_kfold_indices_cover_all_rows(self):
        folds = kfold_indices(103, 4)
        assert folds[0][0] == 0
        assert folds[-1][1] == 103
        covered = sum(stop - start for start, stop in folds)
        assert covered == 103

    def test_successive_halving_halves(self, sess):
        trained = []

        def train(cfg, iters):
            trained.append((cfg["v"], iters))
            return cfg["v"]

        def score(model, cfg):
            return float(model)

        configs = [{"v": v} for v in range(8)]
        best_cfg, best_model, best_score = successive_halving(
            sess, configs, train, score, brackets=3, start_iterations=1
        )
        assert best_cfg["v"] == 7
        # bracket sizes 8, 4, 2 with doubling budgets 1, 2, 4
        budgets = [it for _, it in trained]
        assert budgets.count(1) == 8
        assert budgets.count(2) == 4
        assert budgets.count(4) == 2

    def test_weighted_ensemble_prefers_better_model(self, sess):
        n, k = 200, 3
        labels = RNG.integers(1, k + 1, n).astype(float).reshape(-1, 1)
        perfect = np.eye(k)[(labels.ravel() - 1).astype(int)]
        noise = RNG.random((n, k))
        noise /= noise.sum(axis=1, keepdims=True)
        truth = sess.read(labels, "t")
        a = sess.read(perfect, "a")
        b = sess.read(noise, "b")
        w, acc = weighted_ensemble(sess, a, b, truth,
                                   [0.0, 0.25, 0.5, 0.75, 1.0])
        assert w >= 0.25  # nonzero weight on the perfect model
        assert acc == pytest.approx(1.0)
