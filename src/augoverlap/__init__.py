"""augoverlap: contrastive-learning generalization bounds, augmentation-graph
statistics, geometric overlap thresholds and unsupervised representation metrics."""

# cli is left to be imported on demand: it pulls in argparse, csv and json, and
# an eager import makes ``python -m augoverlap.cli`` warn that the module is
# already in sys.modules.
from . import auggraph, bounds, data, errors, geomsim, losses, metrics, synth, trainer

__version__ = "0.1.0"

__all__ = [
    "auggraph",
    "bounds",
    "cli",
    "data",
    "errors",
    "geomsim",
    "losses",
    "metrics",
    "synth",
    "trainer",
    "__version__",
]
