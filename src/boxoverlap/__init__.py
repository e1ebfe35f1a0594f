"""Visible-surface overlap ground truth, box embeddings and retrieval.

Import from the modules (`boxoverlap.geometry`, `boxoverlap.training`, ...);
the package itself exports only `__version__`.
"""

__version__ = "0.1.0"
