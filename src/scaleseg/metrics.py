"""Segmentation metrics from a confusion matrix.

Rows are ground truth, columns are predictions. Classes that never
occur (empty row for accuracy, zero union for IoU) are excluded from
the means, matching common segmentation tooling.
"""

import numpy as np


class ConfusionMatrix:
    """num_classes x num_classes integer counts; row = truth, col = prediction."""

    def __init__(self, num_classes, counts=None):
        if int(num_classes) < 1:
            raise ValueError("num_classes must be >= 1")
        self.num_classes = int(num_classes)
        if counts is None:
            self._m = np.zeros((self.num_classes, self.num_classes), dtype=np.int64)
        else:
            m = np.asarray(counts, dtype=np.int64)
            if m.shape != (self.num_classes, self.num_classes):
                raise ValueError("counts shape does not match num_classes")
            if (m < 0).any():
                raise ValueError("counts must be non-negative")
            self._m = m.copy()

    @property
    def counts(self):
        return self._m

    @property
    def total(self):
        return int(self._m.sum())

    def update(self, truth, predicted):
        t = np.asarray(truth, dtype=np.int64).reshape(-1)
        p = np.asarray(predicted, dtype=np.int64).reshape(-1)
        if t.shape != p.shape:
            raise ValueError("truth and prediction lengths differ")
        if t.size == 0:
            return
        if t.min() < 0 or t.max() >= self.num_classes:
            raise ValueError("truth label out of range")
        if p.min() < 0 or p.max() >= self.num_classes:
            raise ValueError("predicted label out of range")
        np.add.at(self._m, (t, p), 1)


def per_class_accuracy(cm: ConfusionMatrix):
    """diag / row sum; NaN for classes with no ground-truth points."""
    m = cm.counts.astype(np.float64)
    row = m.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(row > 0, np.diag(m) / row, np.nan)


def per_class_iou(cm: ConfusionMatrix):
    """diag / (row + col - diag); NaN where the union is empty."""
    m = cm.counts.astype(np.float64)
    diag = np.diag(m)
    union = m.sum(axis=1) + m.sum(axis=0) - diag
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, diag / union, np.nan)


def compute_metrics(cm: ConfusionMatrix):
    """(oAcc, mAcc, mIoU); rejects an all-zero matrix."""
    total = cm.total
    if total == 0:
        raise ValueError("confusion matrix is empty")
    oacc = float(np.trace(cm.counts)) / total
    accs = per_class_accuracy(cm)
    ious = per_class_iou(cm)
    macc = float(np.nanmean(accs))
    miou = float(np.nanmean(ious))
    return oacc, macc, miou
