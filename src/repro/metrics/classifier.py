"""The feature/classification network behind the quality metrics.

A two-layer MLP (784 -> 64 -> 10) trained with cross-entropy on the real
dataset.  Its softmax output drives :func:`~repro.metrics.scores.classifier_score`
and its 64-dim hidden layer provides the features for the Fréchet distance —
the same division of labor Inception-v3 performs for full-size images.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn import Adam, Linear, Module, Sequential, Tanh, Tensor
from repro.nn import functional as F
from repro.nn.autograd import no_grad

__all__ = ["DigitClassifier", "train_digit_classifier"]


class DigitClassifier(Module):
    """MLP classifier exposing logits, probabilities and hidden features."""

    def __init__(self, rng: np.random.Generator, input_size: int = 784,
                 hidden_size: int = 64, classes: int = 10):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.classes = classes
        self.feature_net = Sequential(Linear(input_size, hidden_size, rng), Tanh())
        self.head = Linear(hidden_size, classes, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.feature_net(x))

    # -- inference helpers (no tape) ------------------------------------------

    def features(self, images: np.ndarray, batch: int = 1024) -> np.ndarray:
        """Penultimate-layer features for a ``[-1, 1]``-range image batch."""
        chunks = []
        with no_grad():
            for lo in range(0, images.shape[0], batch):
                chunk = Tensor(images[lo:lo + batch])
                chunks.append(self.feature_net(chunk).numpy())
        return np.concatenate(chunks, axis=0)

    def predict_proba(self, images: np.ndarray, batch: int = 1024) -> np.ndarray:
        """Class probabilities ``p(y|x)`` of shape ``(n, classes)``."""
        chunks = []
        with no_grad():
            for lo in range(0, images.shape[0], batch):
                logits = self.forward(Tensor(images[lo:lo + batch]))
                chunks.append(F.softmax(logits, axis=-1).numpy())
        return np.concatenate(chunks, axis=0)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.predict_proba(images).argmax(axis=1)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on a labeled set."""
        return float(np.mean(self.predict(images) == np.asarray(labels)))


def train_digit_classifier(images: np.ndarray, labels: np.ndarray,
                           rng: np.random.Generator, *, epochs: int = 5,
                           batch_size: int = 100, learning_rate: float = 1e-3,
                           hidden_size: int = 64) -> DigitClassifier:
    """Train the metric classifier on ``[-1, 1]``-range images.

    Five epochs of Adam reach >95% accuracy on the synthetic dataset — more
    than enough separation for the score to rank generators reliably.
    """
    if images.ndim != 2:
        raise ValueError("images must be (n, pixels)")
    classifier = DigitClassifier(rng, input_size=images.shape[1], hidden_size=hidden_size)
    optimizer = Adam(classifier, learning_rate)
    dataset = ArrayDataset(images, np.asarray(labels, dtype=np.int64))
    loader = DataLoader(dataset, min(batch_size, len(dataset)), rng, drop_last=False)
    for _ in range(epochs):
        for batch, batch_labels in loader.batches_with_labels():
            logits = classifier(Tensor(batch))
            loss = F.cross_entropy_with_logits(logits, batch_labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return classifier
