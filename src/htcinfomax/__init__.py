"""Hierarchical multi-label text classification with information maximization.

The model couples a CNN text encoder and a graph-convolutional label
structure encoder through label-aware attention, then regularizes training
with two adversarial terms: a text-label mutual information estimate and a
discriminator matching label representations to a uniform prior.  A learned
sigmoid gate balances the two extra losses against classification.
"""

from .dataio import GeneratorConfig, generate_synthetic
from .infomax import LossBundle
from .predictor import macro_f1, micro_f1

__version__ = "0.1.0"

__all__ = ["GeneratorConfig", "LossBundle", "generate_synthetic", "macro_f1", "micro_f1",
           "__version__"]
