"""nxsearch_ray — Ray-Data-native near-duplicate detection & clustering engine.

A brand-new engine (not a port) with the text-processing capabilities of
rmind/nxsearch as its canonicalization core.  Pages are read with Ray
Data; after the read, documents flow as zero-copy Arrow blocks through
waves of plain Ray tasks over block refs (``stages/join.py``), and wide
steps (LSH banding, pair dedup, connected components) run on one
key-disjoint task exchange (``stages/shuffle.py``).  See SURVEY.md for
the structural analysis of the reference and the mapping of every
reference operator onto Ray Data.
"""

from nxsearch_ray.config import PipelineConfig

__all__ = ["PipelineConfig"]
__version__ = "0.1.0"
