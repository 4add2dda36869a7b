"""The Gopher quality rules (Rae et al. 2021, appendix A1), the
standard web-corpus document filter that ``run_corpus``'s clean tier
applies, as one vectorized boolean stage over Arrow batches.

The defining regexes and word list live HERE as the single source of
truth, and the matching DuckDB SQL fragment (``gopher_filter_sql``) is
generated next to them, so the Python and SQL sides cannot drift apart.
Every regex is shared verbatim by Python, RE2 and DuckDB, so keep them
RE2-safe: no lookaround, no backrefs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WORD_RE = r"\S+"
GOPHER_REQUIRED_STOPWORDS = ("the", "be", "to", "of", "and",
                             "that", "have", "with")
GOPHER_BULLET_RE = r"(?m)^[ \t]*[-*•]"
GOPHER_ELLIPSIS_RE = r"(?m)\.\.\.[ \t]*$"
GOPHER_ALPHA_WORD_RE = r"\S*\pL\S*"
GOPHER_SYMBOL_RE = r"#|\.\.\."


def gopher_filter(batch: pa.Table, *, text_col: str = "text",
                  min_words: int = 50, max_words: int = 100_000,
                  min_word_len: float = 3.0,
                  max_word_len: float = 10.0,
                  min_required_stopwords: int = 2) -> pa.Table:
    """Gopher rules as appended columns + a final ``keep`` bool:

    word count in [min_words, max_words]; mean word length in
    [min_word_len, max_word_len]; symbol-to-word ratio (# or ...)
    ≤ 0.1; ≤ 90% of lines starting with a bullet; ≤ 30% of lines
    ending with an ellipsis; ≥ 80% of words containing a letter;
    ≥ 2 distinct required stopwords.  All Arrow RE2 kernels, shared
    verbatim with `gopher_filter_sql`."""
    text = batch.column(text_col)
    n_words = pc.count_substring_regex(text, WORD_RE) \
        .to_numpy().astype(np.float64)
    safe_nw = np.maximum(n_words, 1.0)
    stripped = pc.utf8_length(pc.replace_substring_regex(
        text, pattern=r"\s", replacement="")) \
        .to_numpy().astype(np.float64)
    mean_wl = stripped / safe_nw
    n_sym = pc.count_substring_regex(text, GOPHER_SYMBOL_RE) \
        .to_numpy().astype(np.float64)
    n_alpha = pc.count_substring_regex(text, GOPHER_ALPHA_WORD_RE) \
        .to_numpy().astype(np.float64)
    n_lines = pc.count_substring_regex(text, r"\n") \
        .to_numpy().astype(np.float64) + 1.0
    n_bullet = pc.count_substring_regex(text, GOPHER_BULLET_RE) \
        .to_numpy().astype(np.float64)
    n_ell = pc.count_substring_regex(text, GOPHER_ELLIPSIS_RE) \
        .to_numpy().astype(np.float64)
    low = pc.utf8_lower(text)
    n_req = np.zeros(len(batch), dtype=np.int64)
    for w in GOPHER_REQUIRED_STOPWORDS:
        hit = pc.match_substring_regex(low, rf"\b{w}\b")
        n_req += hit.to_numpy(zero_copy_only=False).astype(np.int64)

    symbol_ratio = n_sym / safe_nw
    alpha_ratio = n_alpha / safe_nw
    bullet_ratio = n_bullet / n_lines
    ellipsis_ratio = n_ell / n_lines
    keep = ((n_words >= min_words) & (n_words <= max_words)
            & (mean_wl >= min_word_len) & (mean_wl <= max_word_len)
            & (symbol_ratio <= 0.1)
            & (bullet_ratio <= 0.9) & (ellipsis_ratio <= 0.3)
            & (alpha_ratio >= 0.8)
            & (n_req >= min_required_stopwords))

    out = batch
    for name, arr in [
            ("n_words", pa.array(n_words.astype(np.int64),
                                 type=pa.int64())),
            ("mean_word_len", pa.array(mean_wl, type=pa.float64())),
            ("symbol_ratio", pa.array(symbol_ratio,
                                      type=pa.float64())),
            ("alpha_word_ratio", pa.array(alpha_ratio,
                                          type=pa.float64())),
            ("bullet_line_ratio", pa.array(bullet_ratio,
                                           type=pa.float64())),
            ("ellipsis_line_ratio", pa.array(ellipsis_ratio,
                                             type=pa.float64())),
            ("n_required_stopwords", pa.array(n_req,
                                              type=pa.int64())),
            ("keep", pa.array(keep, type=pa.bool_()))]:
        out = out.append_column(pa.field(name, arr.type), arr)
    return out


def gopher_filter_sql(text_expr: str = "text", *,
                      min_words: int = 50, max_words: int = 100_000,
                      min_word_len: float = 3.0,
                      max_word_len: float = 10.0,
                      min_required_stopwords: int = 2
                      ) -> dict[str, str]:
    """DuckDB expressions mirroring gopher_filter, keyed by column."""
    t = text_expr
    nw = f"len(regexp_extract_all({t}, '{WORD_RE}'))"
    safe_nw = f"greatest({nw}, 1)::DOUBLE"
    mean_wl = (f"(length(regexp_replace({t}, '\\s', '', 'g'))::DOUBLE"
               f" / {safe_nw})")
    sym = (f"(len(regexp_extract_all({t}, '{GOPHER_SYMBOL_RE}'))"
           f"::DOUBLE / {safe_nw})")
    alpha = (f"(len(regexp_extract_all({t}, '{GOPHER_ALPHA_WORD_RE}'))"
             f"::DOUBLE / {safe_nw})")
    nl = f"(len(regexp_extract_all({t}, '\\n'))::DOUBLE + 1.0)"
    bullet = (f"(len(regexp_extract_all({t}, '{GOPHER_BULLET_RE}'))"
              f"::DOUBLE / {nl})")
    ell = (f"(len(regexp_extract_all({t}, '{GOPHER_ELLIPSIS_RE}'))"
           f"::DOUBLE / {nl})")
    req = " + ".join(
        f"CASE WHEN regexp_matches(lower({t}), '\\b{w}\\b')"
        f" THEN 1 ELSE 0 END"
        for w in GOPHER_REQUIRED_STOPWORDS)
    return {
        "n_words": nw,
        "mean_word_len": mean_wl,
        "symbol_ratio": sym,
        "alpha_word_ratio": alpha,
        "bullet_line_ratio": bullet,
        "ellipsis_line_ratio": ell,
        "n_required_stopwords": f"({req})::BIGINT",
        "keep": (f"({nw} >= {min_words} AND {nw} <= {max_words}"
                 f" AND {mean_wl} >= {min_word_len}"
                 f" AND {mean_wl} <= {max_word_len}"
                 f" AND {sym} <= 0.1 AND {bullet} <= 0.9"
                 f" AND {ell} <= 0.3 AND {alpha} >= 0.8"
                 f" AND ({req}) >= {min_required_stopwords})"),
    }
