"""PII detection and redaction — vectorized regex scrubbing.

Web-scale training corpora are scrubbed of personally identifying
information before training (emails, phone numbers, IP addresses —
the categories the BigCode/StarCoder and Dolma pipelines redact).
The reference engine has no analogue (it indexes text verbatim);
this stage is part of the training-data operator set layered on top.

Shape of the computation — map-only, zero shuffles, zero Python loops:

* Detection: one `pyarrow.compute.count_substring_regex` per category
  (RE2, non-overlapping left-to-right — the same engine and match
  discipline DuckDB's `regexp_extract_all` uses, so the SQL oracle
  reproduces the counts verbatim).
* Redaction: sequential `pc.replace_substring_regex` passes
  (email -> phone -> ip, fixed order so both engines see the same
  intermediate text).

At 100 TB this is embarrassingly parallel: a stateless batch
transform with no state, no exchange, and output the size of the
input.  The patterns are compiled once per worker process by Arrow's
kernel cache; nothing is per-batch.

The sandbox corpus is clean word soup, so tests and the hash oracle
inject deterministic PII first (`inject_pii` — a page_id-derived
email/phone/IP appended to the text, reproduced bit-identically by
the SQL twin) and then verify the scrubbed text byte-for-byte.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# RE2 syntax, shared verbatim with the DuckDB oracle (both engines
# run RE2).  Keep in sync with pii_oracle_sql().
EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+\d{1,2} \d{3}-\d{3}-\d{4}"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"

# category -> (pattern, replacement token), applied in this order.
PII_RULES: tuple[tuple[str, str, str], ...] = (
    ("email", EMAIL_RE, "<EMAIL>"),
    ("phone", PHONE_RE, "<PHONE>"),
    ("ip", IPV4_RE, "<IP>"),
)

# ------------------------------------------------------------------
# validated categories: the regex PROPOSES, a vectorized checksum
# DISPOSES (RE2 has no lookahead, so range/checksum rules cannot live
# in the pattern) — only validated matches are counted and redacted,
# so a Luhn-failing 16-digit number or an out-of-range SSN survives
# byte-identically (precision, not just recall).
SSN_RE = r"\b\d{3}-\d{2}-\d{4}\b"
CCN_RE = r"\b\d{4}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b"
IBAN_RE = r"\b[A-Z]{2}\d{2}[A-Z0-9]{11,30}\b"


def _fixed_digit_matrix(cands: pa.Array, width: int):
    """(n, width) uint8 digit matrix from fixed-width digit strings."""
    import numpy as np

    b = np.array(cands.to_pylist(), dtype=f"S{width}")
    return (np.frombuffer(b.tobytes(), dtype=np.uint8)
            .reshape(-1, width).astype(np.int32) - ord("0"))


def ssn_valid(cands: pa.Array):
    """SSA range rules: area not 000/666/9xx, group not 00, serial
    not 0000 (candidates are 'ddd-dd-dddd')."""
    import numpy as np

    if len(cands) == 0:
        return np.zeros(0, dtype=bool)
    b = np.array(cands.to_pylist(), dtype="S11")
    m = (np.frombuffer(b.tobytes(), dtype=np.uint8).reshape(-1, 11)
         .astype(np.int32) - ord("0"))     # int32: uint8 would wrap
    area = m[:, 0] * 100 + m[:, 1] * 10 + m[:, 2]
    group = m[:, 4] * 10 + m[:, 5]
    serial = (m[:, 7] * 1000 + m[:, 8] * 100 + m[:, 9] * 10 + m[:, 10])
    return (area != 0) & (area != 666) & (area < 900) \
        & (group != 0) & (serial != 0)


def luhn_valid(cands: pa.Array):
    """Luhn checksum over the 16 digits (separators stripped)."""
    import numpy as np

    if len(cands) == 0:
        return np.zeros(0, dtype=bool)
    digits = pc.replace_substring_regex(cands, "[^0-9]", "")
    d = _fixed_digit_matrix(digits, 16)
    # doubling applies to digits in even positions counted from the
    # right (2nd, 4th, ...) = even column index for width 16
    dbl = d * 2
    dbl = np.where(dbl > 9, dbl - 9, dbl)
    total = np.where(np.arange(16) % 2 == 0, dbl, d).sum(axis=1)
    return total % 10 == 0


def iban_valid(cands: pa.Array):
    """ISO 13616 mod-97 check: move the first 4 chars to the end, map
    letters A..Z → 10..35, the resulting number must be ≡ 1 mod 97.
    Computed incrementally per character column (vectorized across
    candidates; ≤ 34 columns)."""
    import numpy as np

    if len(cands) == 0:
        return np.zeros(0, dtype=bool)
    strs = cands.to_pylist()
    lens = np.array([len(s) for s in strs])
    w = int(lens.max())
    b = np.array([s[4:] + s[:4] for s in strs], dtype=f"S{w}")
    m = np.frombuffer(b.tobytes(), dtype=np.uint8).reshape(-1, w) \
        .astype(np.int32)
    is_alpha = (m >= ord("A")) & (m <= ord("Z"))
    val = np.where(is_alpha, m - ord("A") + 10, m - ord("0"))
    r = np.zeros(len(strs), dtype=np.int64)
    for j in range(w):
        live = j < lens
        mult = np.where(is_alpha[:, j], 100, 10)
        r = np.where(live, (r * mult + val[:, j]) % 97, r)
    return r == 1


# category -> (pattern, token, validator), applied after PII_RULES.
PII_VALIDATED_RULES = (
    ("ssn", SSN_RE, "<SSN>", ssn_valid),
    ("ccn", CCN_RE, "<CCN>", luhn_valid),
    ("iban", IBAN_RE, "<IBAN>", iban_valid),
)

_DELIM = "\x00"


def _scrub_validated_one(text, pattern: str, token: str, validator):
    """(new_text, per-row validated-match counts) — one validated rule
    over a string array, fully vectorized:

      wrap matches in NUL delimiters (RE2 backref rewrite) → split on
      NUL (odd list positions are the candidates) → validate the
      candidate slice (numpy checksum) → `if_else` valid candidates to
      the token in the flat values → rebuild the list → join.

    Assumes the text carries no NUL bytes (true for any sane corpus;
    parquet text columns with embedded NULs would need a pre-strip)."""
    import numpy as np

    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    wrapped = pc.replace_substring_regex(
        text, f"({pattern})", f"{_DELIM}\\1{_DELIM}")
    parts = pc.split_pattern(wrapped, _DELIM)
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    offs = parts.offsets.to_numpy().astype(np.int64)
    flat = parts.values
    nrow = len(parts)
    if len(flat) == 0:
        return text, np.zeros(nrow, dtype=np.int64)
    local = np.arange(len(flat)) - np.repeat(offs[:-1], np.diff(offs))
    cand_pos = np.flatnonzero(local % 2 == 1)
    if len(cand_pos) == 0:
        return text, np.zeros(nrow, dtype=np.int64)
    cand_mask = np.zeros(len(flat), dtype=bool)
    cand_mask[cand_pos] = True
    valid = validator(flat.filter(pa.array(cand_mask)))
    hit = np.zeros(len(flat), dtype=bool)
    hit[cand_pos] = valid
    new_flat = pc.if_else(pa.array(hit), pa.scalar(token), flat)
    rebuilt = pa.ListArray.from_arrays(
        pa.array(offs, type=pa.int32()).cast(pa.int32()), new_flat)
    joined = pc.binary_join(rebuilt, "")
    cs = np.concatenate(([0], np.cumsum(hit.astype(np.int64))))
    counts = cs[offs[1:]] - cs[offs[:-1]]
    return joined, counts


# deterministic injected candidates for the validated categories:
# constants keep the inject twin trivially SQL-mirrorable while the
# Luhn / mod-97 validators still do real work on both sides; the
# "not ..." entries MUST survive scrubbing (precision gates)
INJECT_CARDS = ("4111 1111 1111 1111", "4012 8888 8888 1881",
                "5555 5555 5555 4444", "5105 1051 0510 5100")
INJECT_BAD_CARD = "4111 1111 1111 1112"          # Luhn fails
INJECT_IBANS = ("GB82WEST12345698765432", "DE89370400440532013000",
                "FR1420041010050500013M02606")
INJECT_BAD_IBAN = "DE89370400440532013001"       # mod-97 fails
INJECT_BAD_SSN = "000-12-3456"                   # area 000


def inject_pii(batch: pa.Table, *, id_col: str = "page_id",
               text_col: str = "text") -> pa.Table:
    """Deterministically append one email, phone, IP, SSN (valid +
    invalid), card number (Luhn-valid + -invalid) and IBAN (mod-97
    valid + invalid) per row, derived from the id — the synthetic-PII
    twin of the SQL CTE in ``pii_inject_sql`` (bit-identical on both
    sides)."""
    import numpy as np

    ids = batch.column(id_col)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    iv = ids.to_numpy().astype(np.int64)

    def s64(x: "np.ndarray") -> pa.Array:
        return pc.cast(pa.array(x, type=pa.int64()), pa.string())

    def pad(x: pa.Array, w: int) -> pa.Array:
        return pc.utf8_lpad(x, w, "0")

    s = s64(iv)
    area = s64(iv % 900 + 100)
    line = s64((iv * 7) % 9000 + 1000)
    ip2 = s64((iv // 7) % 256)
    ip3 = s64(iv % 256)
    ip4 = s64(iv % 254 + 1)
    ssn_area = s64(iv % 500 + 100)               # 100..599: valid
    ssn_grp = pad(s64(iv % 99 + 1), 2)
    ssn_ser = pad(s64(iv % 9999 + 1), 4)
    card = pa.array(np.array(INJECT_CARDS, dtype=object)[iv % 4],
                    type=pa.string())
    iban = pa.array(np.array(INJECT_IBANS, dtype=object)[iv % 3],
                    type=pa.string())
    # (the trailing "" is the element-wise join separator)
    text = pc.binary_join_element_wise(
        batch.column(text_col), " contact-", s,
        "@example.org call +1 555-", area, "-", line,
        " from 10.", ip2, ".", ip3, ".", ip4,
        " ssn ", ssn_area, "-", ssn_grp, "-", ssn_ser,
        f" not {INJECT_BAD_SSN} card ", card,
        f" not {INJECT_BAD_CARD} acct ", iban,
        f" not {INJECT_BAD_IBAN} ", "")
    return batch.set_column(
        batch.schema.get_field_index(text_col),
        pa.field(text_col, pa.string()), text)


def detect_pii(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Append one ``n_<category>`` int64 count column per rule."""
    text = batch.column(text_col)
    for name, pattern, _ in PII_RULES:
        n = pc.count_substring_regex(text, pattern).cast(pa.int64())
        batch = batch.append_column(pa.field(f"n_{name}", pa.int64()), n)
    return batch


def redact_pii(batch: pa.Table, *, text_col: str = "text",
               out_col: str = "clean_text") -> pa.Table:
    """Append ``out_col`` = text with every rule's matches replaced by
    its token, applied in PII_RULES order."""
    text = batch.column(text_col)
    for _, pattern, token in PII_RULES:
        text = pc.replace_substring_regex(text, pattern, token)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    return batch.append_column(pa.field(out_col, pa.string()), text)


def scrub_validated(batch: pa.Table, *, text_col: str = "clean_text"
                    ) -> pa.Table:
    """Validated-category pass (SSN / credit-card Luhn / IBAN mod-97)
    over ``text_col`` in PII_VALIDATED_RULES order: appends one
    ``n_<category>`` count column per rule (validated matches only)
    and rewrites the column with valid matches redacted."""
    text = batch.column(text_col)
    for name, pattern, token, validator in PII_VALIDATED_RULES:
        text, counts = _scrub_validated_one(text, pattern, token,
                                            validator)
        batch = batch.append_column(
            pa.field(f"n_{name}", pa.int64()),
            pa.array(counts, type=pa.int64()))
    return batch.set_column(
        batch.schema.get_field_index(text_col),
        pa.field(text_col, pa.string()), text)


def scrub_pii(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Detect + redact in one pass (regex categories, then the
    checksum-validated categories over the already-redacted text):
    the production stage fn for
    ``ds.map_batches(scrub_pii, batch_format="pyarrow")``."""
    out = redact_pii(detect_pii(batch, text_col=text_col),
                     text_col=text_col)
    return scrub_validated(out, text_col="clean_text")


def pii_inject_sql(text_expr: str, id_expr: str) -> str:
    """DuckDB twin of ``inject_pii`` (same concatenation, same
    arithmetic — `//` is DuckDB integer division)."""
    cards = " ".join(f"WHEN {i} THEN '{c}'"
                     for i, c in enumerate(INJECT_CARDS))
    ibans = " ".join(f"WHEN {i} THEN '{c}'"
                     for i, c in enumerate(INJECT_IBANS))
    return (
        f"{text_expr} || ' contact-' || {id_expr} || '@example.org call"
        f" +1 555-' || ({id_expr} % 900 + 100) || '-' ||"
        f" (({id_expr} * 7) % 9000 + 1000) || ' from 10.' ||"
        f" (({id_expr} // 7) % 256) || '.' || ({id_expr} % 256) || '.'"
        f" || ({id_expr} % 254 + 1)"
        f" || ' ssn ' || ({id_expr} % 500 + 100) || '-' ||"
        f" lpad(({id_expr} % 99 + 1)::VARCHAR, 2, '0') || '-' ||"
        f" lpad(({id_expr} % 9999 + 1)::VARCHAR, 4, '0')"
        f" || ' not {INJECT_BAD_SSN} card ' ||"
        f" (CASE ({id_expr} % 4) {cards} END)"
        f" || ' not {INJECT_BAD_CARD} acct ' ||"
        f" (CASE ({id_expr} % 3) {ibans} END)"
        f" || ' not {INJECT_BAD_IBAN} '")


def _ssn_valid_sql(c: str) -> str:
    return (f"(substring({c},1,3)::INT NOT IN (0,666)"
            f" AND substring({c},1,3)::INT < 900"
            f" AND substring({c},5,2)::INT <> 0"
            f" AND substring({c},8,4)::INT <> 0)")


def _luhn_valid_sql(c: str) -> str:
    d = f"regexp_replace({c}, '[^0-9]', '', 'g')"
    dig = f"substring({d},j,1)::INT"
    return (f"(list_sum(list_transform(generate_series(1,16), j ->"
            f" CASE WHEN (16-j)%2 = 1 THEN"
            f" CASE WHEN 2*{dig} > 9 THEN 2*{dig} - 9"
            f" ELSE 2*{dig} END ELSE {dig} END)) % 10 = 0)")


def _iban_valid_sql(c: str) -> str:
    r = f"(substring({c},5) || substring({c},1,4))"
    ch = f"substring({r},q,1)"
    num = (f"array_to_string(list_transform("
           f"generate_series(1, len({r})), q ->"
           f" CASE WHEN {ch} >= 'A' THEN (ascii({ch}) - 55)::VARCHAR"
           f" ELSE {ch} END), '')")
    return (f"(list_reduce(list_transform("
            f"generate_series(1, len({num})), j ->"
            f" substring({num},j,1)::INT),"
            f" (a,b) -> (a*10+b) % 97) = 1)")


_VALID_SQL = {"ssn": _ssn_valid_sql, "ccn": _luhn_valid_sql,
              "iban": _iban_valid_sql}


def pii_scrub_sql_ctes(src: str) -> tuple[str, str]:
    """DuckDB twin of :func:`scrub_pii` as a CTE chain (the validated
    rules need split/extract arrays per rule — inlining them into one
    select list would blow the expression up exponentially).

    ``src`` must expose (page_id, text); returns ``(ctes, out_name)``
    where ``out_name`` exposes page_id, n_email, n_phone, n_ip,
    n_ssn, n_ccn, n_iban, clean_text.  Splice into a query as
    ``WITH ..., {ctes} SELECT ... FROM {out_name}``."""
    counts = ", ".join(
        f"len(regexp_extract_all(text, '{pat}'))::BIGINT AS n_{name}"
        for name, pat, _ in PII_RULES)
    redacted = "text"
    for _, pat, token in PII_RULES:
        redacted = (f"regexp_replace({redacted}, '{pat}',"
                    f" '{token}', 'g')")
    done = ["n_email", "n_phone", "n_ip"]
    ctes = [f"pii_r AS (SELECT page_id, {counts}, {redacted} AS t"
            f" FROM {src})"]
    prev = "pii_r"
    for k, (name, pat, token, _) in enumerate(PII_VALIDATED_RULES, 1):
        valid = _VALID_SQL[name]
        ctes.append(
            f"pii_s{k} AS (SELECT *,"
            f" regexp_split_to_array(t, '{pat}') AS segs,"
            f" regexp_extract_all(t, '{pat}') AS cands FROM {prev})")
        keep = ", ".join(done)
        reasm = (
            f"segs[1] || coalesce(array_to_string(list_transform("
            f"generate_series(1, len(cands)), i ->"
            f" (CASE WHEN {valid('cands[i]')} THEN '{token}'"
            f" ELSE cands[i] END) || segs[i+1]), ''), '')")
        ctes.append(
            f"pii_p{k} AS (SELECT page_id, {keep},"
            f" coalesce(list_sum(list_transform(cands, c ->"
            f" CASE WHEN {valid('c')} THEN 1 ELSE 0 END)), 0)::BIGINT"
            f" AS n_{name}, {reasm} AS t FROM pii_s{k})")
        done.append(f"n_{name}")
        prev = f"pii_p{k}"
    ctes.append(
        f"pii_out AS (SELECT page_id, {', '.join(done)},"
        f" t AS clean_text FROM {prev})")
    return ",\n".join(ctes), "pii_out"
