"""PII scrub, Gopher quality and URL blocklist operators.

Python-oracle checks on hand-built rows plus a DuckDB differential at
sf0.001 (the driver repeats the differential at sf0.01)."""

from __future__ import annotations

import pyarrow as pa


def test_pii_rules_on_handmade_text():
    from nxsearch_ray.stages.pii import detect_pii, redact_pii

    t = pa.table({
        "page_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": [
            "mail a.b-c%d@mail.example.co.uk now",
            "call +1 555-867-5309 or visit 192.168.0.1 twice 10.0.0.7",
            "no pii here, 1.2 and v1.2.3 are not addresses",
        ]})
    out = redact_pii(detect_pii(t))
    assert out.column("n_email").to_pylist() == [1, 0, 0]
    assert out.column("n_phone").to_pylist() == [0, 1, 0]
    assert out.column("n_ip").to_pylist() == [0, 2, 0]
    clean = out.column("clean_text").to_pylist()
    assert clean[0] == "mail <EMAIL> now"
    assert clean[1] == "call <PHONE> or visit <IP> twice <IP>"
    assert clean[2] == t.column("text").to_pylist()[2]


def test_pii_injection_roundtrip():
    """Injected PII is fully detected and scrubbed back out — and the
    deliberately-invalid injected SSN/card/IBAN SURVIVE (precision:
    the validators, not the regexes, decide)."""
    from nxsearch_ray.stages.pii import inject_pii, scrub_pii

    t = pa.table({
        "page_id": pa.array([0, 7, 12345], type=pa.int64()),
        "text": ["alpha beta", "gamma", "delta epsilon zeta"]})
    out = scrub_pii(inject_pii(t))
    for cat in ("email", "phone", "ip", "ssn", "ccn", "iban"):
        assert out.column(f"n_{cat}").to_pylist() == [1, 1, 1], cat
    for orig, clean in zip(t.column("text").to_pylist(),
                           out.column("clean_text").to_pylist()):
        # "contact-<id>" is itself email local-part charset, so the
        # whole injected token redacts to one <EMAIL>
        assert clean == (
            orig + " <EMAIL> call <PHONE> from <IP> ssn <SSN>"
            " not 000-12-3456 card <CCN> not 4111 1111 1111 1112"
            " acct <IBAN> not DE89370400440532013001 ")


def test_pii_validators_precision_corpus():
    """Checksum/range validators on a hand-built precision corpus:
    every valid instance redacts, every near-miss survives."""
    from nxsearch_ray.stages.pii import scrub_validated

    rows = [
        # (text, n_ssn, n_ccn, n_iban, expected_clean)
        ("ssn 536-90-4399 ok", 1, 0, 0, "ssn <SSN> ok"),
        ("area 000-90-4399 bad", 0, 0, 0, None),
        ("area 666-90-4399 bad", 0, 0, 0, None),
        ("area 900-90-4399 bad", 0, 0, 0, None),
        ("group 536-00-4399 bad", 0, 0, 0, None),
        ("serial 536-90-0000 bad", 0, 0, 0, None),
        ("card 4012888888881881 y", 0, 1, 0, "card <CCN> y"),
        ("card 4012-8888-8888-1881 y", 0, 1, 0, "card <CCN> y"),
        ("card 4012 8888 8888 1882 n", 0, 0, 0, None),
        ("iban GB82WEST12345698765432 y", 0, 0, 1, "iban <IBAN> y"),
        ("iban GB82WEST12345698765433 n", 0, 0, 0, None),
        ("iban FR1420041010050500013M02606 y", 0, 0, 1,
         "iban <IBAN> y"),
        ("two 536-90-4399 and 210-55-1234", 2, 0, 0,
         "two <SSN> and <SSN>"),
        ("plain text with numbers 1234 5678", 0, 0, 0, None),
    ]
    t = pa.table({"clean_text": [r[0] for r in rows]})
    out = scrub_validated(t)
    assert out.column("n_ssn").to_pylist() == [r[1] for r in rows]
    assert out.column("n_ccn").to_pylist() == [r[2] for r in rows]
    assert out.column("n_iban").to_pylist() == [r[3] for r in rows]
    clean = out.column("clean_text").to_pylist()
    for (text, _, _, _, want), got in zip(rows, clean):
        assert got == (want if want is not None else text), text


def test_pii_oracle_differential(ray_session, sf_dir):
    """Ray output == DuckDB twin at sf0.001, byte-for-byte."""
    import duckdb

    import __ray_entry__ as entrymod

    ray_tbl = pa.concat_tables(
        entrymod.q_pii_scrub(sf_dir).iter_batches(
            batch_format="pyarrow"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    sql_tbl = con.execute(entrymod.oracle_sql()["pii_scrub"]).arrow()
    r = ray_tbl.sort_by("page_id").to_pydict()
    s = sql_tbl.sort_by("page_id").to_pydict()
    assert r["page_id"] == s["page_id"]
    assert r["n_email"] == s["n_email"]
    assert r["n_phone"] == s["n_phone"]
    assert r["n_ip"] == s["n_ip"]
    assert r["clean_text"] == s["clean_text"]
    assert all(n >= 1 for n in r["n_email"])  # injection really ran


def test_gopher_filter_rules():
    """Each Gopher rule trips on a purpose-built document."""
    from nxsearch_ray.stages.textstats import gopher_filter

    prose = ("the quick brown fox jumps over the lazy dog and then "
             "runs back home with plenty of energy to spare every "
             "single day of the week because that is what foxes do "
             "when they have nothing better planned for the day")
    docs = {
        "good": prose,
        "too_short": "the and of tiny",
        "bullets": "\n".join(f"- item {i} of the list and more"
                             for i in range(10)),
        "ellipses": "\n".join(f"the thing number {i} trails off..."
                              for i in range(10)),
        "symbols": " ".join(["#tag"] * 30) + " " + prose,
        "nonalpha": " ".join(["12345"] * 60) + " the of and",
        "no_stopwords": " ".join(f"w{i}ord" for i in range(60)),
    }
    t = pa.table({"doc_id": list(range(len(docs))),
                  "text": list(docs.values())})
    out = gopher_filter(t, min_words=20)
    keep = dict(zip(docs.keys(), out.column("keep").to_pylist()))
    assert keep["good"] is True
    for k in ("too_short", "bullets", "ellipses", "symbols",
              "nonalpha", "no_stopwords"):
        assert keep[k] is False, k
    names = dict(zip(docs.keys(),
                     out.column("bullet_line_ratio").to_pylist()))
    assert names["bullets"] == 1.0
    assert dict(zip(docs.keys(),
                    out.column("ellipsis_line_ratio").to_pylist())
                )["ellipses"] == 1.0


def test_gopher_oracle_differential(ray_session, sf_dir):
    import duckdb

    import __ray_entry__ as entrymod

    ray_tbl = pa.concat_tables(
        entrymod.q_gopher_quality(sf_dir).iter_batches(
            batch_format="pyarrow")).sort_by("doc_id")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    sql_tbl = con.execute(
        entrymod.oracle_sql()["gopher_quality"]).arrow() \
        .sort_by("doc_id")
    for col in ("doc_id", "n_words", "n_required_stopwords", "keep"):
        assert ray_tbl.column(col).to_pylist() == \
            sql_tbl.column(col).to_pylist(), col
    keeps = set(ray_tbl.column("keep").to_pylist())
    assert keeps == {True, False}   # the filter genuinely splits


def test_url_blocklist_filter(ray_session, sf_dir):
    """Blocklist drop-path removes exactly the flagged domains; the
    audit-path output matches the DuckDB twin."""
    import duckdb

    import __ray_entry__ as entrymod
    from nxsearch_ray.stages.urlfilter import filter_blocklist

    flagged = pa.concat_tables(
        entrymod.q_url_blocklist(sf_dir).iter_batches(
            batch_format="pyarrow")).sort_by("page_id")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    sql = con.execute(entrymod.oracle_sql()["url_blocklist"]) \
        .arrow().sort_by("page_id")
    assert flagged.column("blocked").to_pylist() == \
        sql.column("blocked").to_pylist()
    n_blocked = sum(flagged.column("blocked").to_pylist())
    assert 0 < n_blocked < flagged.num_rows   # list really splits

    ds = entrymod._pages(sf_dir, include_html=False) \
        .select_columns(["page_id", "url"])
    kept = pa.concat_tables(
        filter_blocklist(ds, entrymod._BLOCKLIST)
        .iter_batches(batch_format="pyarrow"))
    assert kept.num_rows == flagged.num_rows - n_blocked
    assert not any(kept.column("blocked").to_pylist())


def test_web_clean_composition(ray_session, sf_dir):
    """The composed cleaning pipeline: blocked domains and
    low-quality pages are gone, duplicates collapsed, every kept
    page carries its injected email count."""
    import duckdb

    import __ray_entry__ as entrymod

    out = pa.concat_tables(
        entrymod.q_web_clean(sf_dir).iter_batches(
            batch_format="pyarrow")).sort_by("canonical_page_id")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    sql = con.execute(entrymod.oracle_sql()["web_clean"]).arrow() \
        .sort_by("canonical_page_id")
    for col in ("canonical_page_id", "n_pages", "n_email"):
        assert out.column(col).to_pylist() == \
            sql.column(col).to_pylist(), col
    # the pipeline genuinely filtered AND deduplicated
    n_pages_in = 618 if "0.001" in sf_dir or "0.01" in sf_dir else None
    total_kept = sum(out.column("n_pages").to_pylist())
    if n_pages_in:
        assert 0 < total_kept < n_pages_in
    assert out.num_rows < total_kept or \
        all(n == 1 for n in out.column("n_pages").to_pylist())
    assert all(n >= 1 for n in out.column("n_email").to_pylist())
