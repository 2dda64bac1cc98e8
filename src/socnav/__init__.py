"""Social robot navigation evaluation toolkit.

Provides an episode interchange format, a hand-crafted metric suite with
taxonomy codes, scenario-card classifiers, a deterministic 2D pedestrian
simulator for corpus generation, and distributional reporting.

Importing the package loads none of its modules, and so not numpy: the
command line (``socnav.cli``) must configure the BLAS thread pool before
numpy starts it. Import the modules themselves (``socnav.core``,
``socnav.ingest``, ...).
"""

__version__ = "0.1.0"
