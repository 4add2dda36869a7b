"""nxsearch_ray — Ray-Data-native near-duplicate detection & clustering engine.

A brand-new engine (not a port) with the text-processing capabilities of
rmind/nxsearch as its canonicalization core.  Documents flow as zero-copy
Arrow batches through ``ray.data.Dataset.map_batches`` stages; wide steps
(LSH banding, pair dedup, connected components) run on one key-disjoint
task exchange (``stages/shuffle.py``).  See SURVEY.md for the structural
analysis of the reference and the mapping of every reference operator
onto Ray Data.
"""

from nxsearch_ray.config import PipelineConfig

__all__ = ["PipelineConfig"]
__version__ = "0.1.0"
