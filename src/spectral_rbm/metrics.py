"""Classification metrics: accuracy, confusion matrix, per-class recall."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_labels


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


def evaluate(predicted, truth):
    """Build an EvalReport from parallel predicted/true integer label vectors."""
    pred = check_labels("predicted", predicted)
    true = check_labels("truth", truth, pred.shape[0])
    classes, codes = np.unique(np.concatenate([pred, true]), return_inverse=True)
    k = classes.size
    pred_codes, true_codes = codes[: pred.size], codes[pred.size :]
    confusion = np.bincount(true_codes * k + pred_codes, minlength=k * k).reshape(k, k)

    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    row_sums = confusion.sum(axis=1)
    recall = np.full(k, np.nan)
    present = row_sums > 0
    recall[present] = np.diag(confusion)[present] / row_sums[present]

    return EvalReport(
        classes=classes.tolist(),
        confusion=confusion,
        accuracy=accuracy,
        per_class_recall=recall,
        sample_count=total,
    )
