import numpy as np
import pytest

from scaleseg.metrics import ConfusionMatrix, compute_metrics


def test_hand_example():
    # truth-major rows: class 0 -> [3, 1], class 1 -> [2, 4]
    cm = ConfusionMatrix(2)
    cm.update(np.array([0] * 4 + [1] * 6), np.array([0, 0, 0, 1, 0, 0, 1, 1, 1, 1]))
    assert cm.counts.tolist() == [[3, 1], [2, 4]]
    oacc, macc, miou = compute_metrics(cm)
    assert abs(oacc - 0.7) < 1e-9
    assert abs(macc - (0.75 + 2.0 / 3.0) / 2.0) < 1e-9  # 0.708333...
    # IoU: 3/(3+1+2)=0.5, 4/(4+2+1)=4/7 -> mean 0.535714...
    assert abs(miou - (0.5 + 4.0 / 7.0) / 2.0) < 1e-9


def test_perfect_prediction():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, size=200)
    cm = ConfusionMatrix(5)
    cm.update(labels, labels)
    assert compute_metrics(cm) == (1.0, 1.0, 1.0)


def test_absent_class_ignored_in_means():
    # class 2 never appears in truth or prediction; its NaN row/union is
    # skipped rather than dragging the mean down
    cm = ConfusionMatrix(3)
    cm.update(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 0]))
    oacc, macc, miou = compute_metrics(cm)
    assert abs(oacc - 0.75) < 1e-12
    assert abs(macc - 0.75) < 1e-12          # mean(1.0, 0.5)
    assert abs(miou - (2.0 / 3.0 + 0.5) / 2.0) < 1e-12


def test_update_validates_and_accumulates():
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError):
        cm.update(np.array([0, 2]), np.array([0, 0]))
    with pytest.raises(ValueError):
        cm.update(np.array([0]), np.array([-1]))
    with pytest.raises(ValueError):
        cm.update(np.array([0, 1]), np.array([0]))
    cm.update(np.array([0]), np.array([1]))
    cm.update(np.array([0]), np.array([1]))
    assert cm.counts[0, 1] == 2
    assert cm.total == 2


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        compute_metrics(ConfusionMatrix(3))
