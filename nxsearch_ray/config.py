"""Pipeline configuration.

The reference keeps per-index parameters as a JSON document persisted to
``params.db`` (reference: src/core/params.c:159-198) with keys ``filters``
(ordered list), ``lang``, ``algo``.  Our equivalent is a frozen dataclass
serialized to JSON in the run's output directory; its hash gates
checkpoint-resume ("identical shingle/signature config" in BASELINE.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace


# Default filter chain mirrors the reference's default_filters[]
# (reference: src/core/nxs.c:87-89).
DEFAULT_FILTERS = ("normalizer", "stopwords", "stemmer")


@dataclass(frozen=True)
class PipelineConfig:
    # --- canonicalization (reference-parity section) ---
    lang: str = "en"                     # ISO 639-1, like params["lang"]; a row's non-empty `lang` wins
    filters: tuple[str, ...] = DEFAULT_FILTERS
    # plugin files (.py, or .lua with lupa) registered under their file
    # stem in every worker before pipelines build — the analogue of the
    # reference's $NXS_BASEDIR/filters/*.lua scan
    # (svc-src/nxsearch_svc.lua:24-34); names then usable in `filters`
    plugin_files: tuple[str, ...] = ()

    # --- shingling / signatures ---
    shingle_k: int = 5                   # tokens per shingle
    num_perms: int = 128                 # MinHash permutations
    lsh_bands: int = 32                  # b
    lsh_rows: int = 4                    # r; b*r must equal num_perms
    simhash_bits: int = 64
    simhash_hamming: int = 3             # max Hamming distance for SimHash pairs
    bottomk: int = 64                    # bottom-k sketch size (containment estimates)

    # --- thresholds ---
    jaccard_threshold: float = 0.5       # MinHash-estimated Jaccard for a verified pair
    jaccard_borderline: float = 0.35     # est_j in [borderline, threshold) → exact-Jaccard adjudication
    containment_threshold: float = 0.8   # containment estimate for the suffix pass
    anchor_mod: int = 4                  # shingle sampled as anchor when h % anchor_mod == 0
    anchor_full_max: int = 32            # docs with ≤ this many shingles emit ALL shingles as anchors
    # anchor buckets with more members than this emit NO pairs: a
    # shingle shared by many docs is a "stop-shingle" (boilerplate /
    # common phrase) carrying no containment signal, and all-pairs on
    # such buckets is where candidate volume explodes
    anchor_bucket_max: int = 4
    # a suffix-source pair must co-occur in at least this many anchor
    # buckets: true containment shares ~half the contained doc's
    # shingles, junk pairs share one common shingle — single-hit
    # filtering cuts the anchor candidate flood by ~10×
    min_anchor_hits: int = 2

    # --- skew handling ---
    # buckets with ≤ cap members emit all C(n,2) pairs; bigger buckets
    # (boilerplate) emit a connectivity-preserving sorted chain (n-1
    # pairs) — O(n²) blowup on hot keys is the classic LSH skew trap
    hot_bucket_cap: int = 64

    # --- execution ---
    batch_size: int = 1024               # max rows per task of a stage's wave
    seed: int = 42

    def __post_init__(self) -> None:
        if self.lsh_bands * self.lsh_rows != self.num_perms:
            raise ValueError(
                f"lsh_bands*lsh_rows ({self.lsh_bands}*{self.lsh_rows}) "
                f"must equal num_perms ({self.num_perms})"
            )

    def to_json(self) -> str:
        d = asdict(self)
        d["filters"] = list(self.filters)
        d["plugin_files"] = list(self.plugin_files)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "PipelineConfig":
        d = json.loads(s)
        # retired keys: a config.json written by older code still loads
        for key in ("canonicalize_concurrency", "lang_column"):
            d.pop(key, None)
        d["filters"] = tuple(d["filters"])
        d["plugin_files"] = tuple(d.get("plugin_files", ()))
        return cls(**d)

    def config_hash(self) -> str:
        """Stable hash gating checkpoint reuse (BASELINE.md 'identical config')."""
        return hashlib.md5(self.to_json().encode()).hexdigest()[:16]

    def with_(self, **kw) -> "PipelineConfig":
        return replace(self, **kw)
