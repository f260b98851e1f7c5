"""Classification metrics: accuracy, confusion matrix, per-class recall."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class EvalReport:
    """Evaluation summary over one prediction run.

    classes lists the distinct ids (sorted) seen in truth or predictions;
    confusion is indexed [true, predicted] in that order. A class that
    never occurs in truth has no defined recall and is reported as NaN,
    rendered as "undefined" rather than a silent 0 or 1.
    """

    classes: list
    confusion: np.ndarray
    accuracy: float
    per_class_recall: np.ndarray
    sample_count: int

    def recall_for(self, class_id):
        """Recall of one class, NaN when that class is absent from truth."""
        if class_id not in self.classes:
            raise ValidationError(f"class {class_id} not present in this report")
        return float(self.per_class_recall[self.classes.index(class_id)])

    def to_text(self):
        """Human-readable block."""
        width = max(6, *(len(str(c)) for c in self.classes))
        lines = [
            f"samples: {self.sample_count}",
            f"accuracy: {self.accuracy:.6f}",
            "confusion matrix (rows = true class, columns = predicted class):",
        ]
        lines.append(" " * (width + 3) + "  ".join(f"{c!s:>{width}}" for c in self.classes))
        for i, c in enumerate(self.classes):
            cells = "  ".join(f"{int(n):>{width}}" for n in self.confusion[i])
            lines.append(f"  {c!s:>{width}} {cells}")
        lines.append("recall by class:")
        for c, r in zip(self.classes, self.per_class_recall):
            shown = "undefined" if np.isnan(r) else f"{r:.6f}"
            lines.append(f"  {c!s:>{width}}: {shown}")
        return "\n".join(lines)

    def to_flat(self):
        """Machine-readable key=value lines (floats in full precision)."""
        lines = [
            ("report_version", "1"),
            ("sample_count", str(self.sample_count)),
            ("accuracy", repr(float(self.accuracy))),
        ]
        for c, r in zip(self.classes, self.per_class_recall):
            lines.append((f"recall.{c}", "undefined" if np.isnan(r) else repr(float(r))))
        for i, ci in enumerate(self.classes):
            for j, cj in enumerate(self.classes):
                lines.append((f"confusion.{ci}.{cj}", str(int(self.confusion[i, j]))))
        return lines


def _as_label_vector(x, name):
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{name} must hold integer class ids, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def evaluate(predicted, truth):
    """Build an EvalReport from parallel predicted/true integer label vectors."""
    pred = _as_label_vector(predicted, "predicted")
    true = _as_label_vector(truth, "truth")
    if pred.shape != true.shape:
        raise ValidationError(f"length mismatch: {pred.shape[0]} predictions for {true.shape[0]} truths")

    classes = sorted(int(c) for c in np.unique(np.concatenate([pred, true])))
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, ([index[int(t)] for t in true], [index[int(p)] for p in pred]), 1)

    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    row_sums = confusion.sum(axis=1)
    recall = np.full(k, np.nan)
    present = row_sums > 0
    recall[present] = np.diag(confusion)[present] / row_sums[present]

    return EvalReport(
        classes=classes,
        confusion=confusion,
        accuracy=accuracy,
        per_class_recall=recall,
        sample_count=total,
    )
