"""Seeded workload generators for the dedup benchmark.

Each generator takes the seed as an argument and writes Parquet files
with the paper's page schema ``(page_id, url, warc_ts, html, text,
lang)``.  The pipeline receives only those files; the planted ground
truth goes to a separate ``truth.parquet`` that only the benchmark's
checks read.  Outputs are cached under the work directory, keyed by
workload, seed and size, and marked complete by ``_SUCCESS``.

Why each workload exists is recorded in ``WHY`` beside its generator.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# corpus sizes.  Most of a job is a fixed Ray cost (actor and task
# start-up per dataset execution) that does not grow with the pages;
# NOTES.md has the job times at several sizes.  webmix is sized so that
# its per-page work is a visible share of the job (~15%) while one run
# (the oracle, set-up, the timed jobs) stays near a minute on a loaded
# host; templated is kept small, since its scale-path plans cost ~27 s
# per job at any size tried
WEBMIX_N_BASE = 4000          # ~5.2k pages
TEMPLATED_SITES = 36          # 1,188 pages
TEMPLATED_PAGES_PER_SITE = 28  # regular pages per site
TEMPLATED_ARTICLES_PER_SITE = 2  # each also on 1 or 2 other sites
NUM_FILES = 8
FORMAT_VERSION = "v3"

PAGE_COLUMNS = ["page_id", "url", "warc_ts", "html", "text", "lang"]
# what the program reads: text is left out so extraction does its work
READ_COLUMNS = ["page_id", "url", "warc_ts", "html", "lang"]

WHY = {
    "webmix": (
        "flagship job: planted orig/copy/near/contain/shuffle/boiler "
        "classes on the auto plans; a fixed Ray cost per job carries most "
        "of it, per-page canonicalize + signatures about a sixth"),
    "templated": (
        "the scale-path plans (bucketed verify, label-propagation CC) on "
        "site-templated pages; their per-job start-up carries job_s, "
        "suffix/join/labelprop work shows in the per-layer metrics"),
}


_VOCAB_SEED = 20240101   # the vocabulary is fixed; only corpora vary


def vocabulary(size: int = 32768) -> list[str]:
    """A fixed synthetic vocabulary of ``size`` distinct lowercase
    words (3-9 letters).  It does not depend on the workload seed, so
    every seed draws from the same language, and it is large enough
    that unrelated zipf documents rarely share 5-gram shingles."""
    rng = np.random.default_rng(_VOCAB_SEED)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: set[str] = set()
    while len(words) < size:
        lens = rng.integers(3, 10, size)
        for n in lens:
            words.add("".join(rng.choice(letters, int(n))))
            if len(words) == size:
                break
    return sorted(words)


class _Zipf:
    """Zipf-weighted word draws over the vocabulary."""

    def __init__(self, vocab: list[str]):
        self.words = np.array(vocab, dtype=object)
        cdf = np.cumsum(1.0 / np.arange(1, len(vocab) + 1))
        self.cdf = cdf / cdf[-1]

    def draw(self, rng, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, rng.random(n), side="right")
        return self.words[np.minimum(idx, len(self.words) - 1)].tolist()


def _pages_table(page_ids, urls, texts) -> pa.Table:
    ids = np.asarray(page_ids, dtype=np.int64)
    ts = (ids % 86400) * 1_000_000 + 1704067200_000_000
    htmls = [f"<html><head><title>{u}</title></head><body><p>{t}</p>"
             f"</body></html>".encode() for u, t in zip(urls, texts)]
    return pa.Table.from_arrays(
        [pa.array(ids, type=pa.int64()),
         pa.array(urls, type=pa.string()),
         pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
         pa.array(htmls, type=pa.binary()),
         pa.array(texts, type=pa.string()),
         pa.array(["en"] * len(ids), type=pa.string())],
        names=PAGE_COLUMNS)


def webmix_table(seed: int) -> pa.Table:
    """``sources.synth.synth_pages`` over the fixed vocabulary: pages
    plus the ``truth_cluster``/``variant`` columns."""
    from nxsearch_ray.sources.synth import synth_pages

    return synth_pages(WEBMIX_N_BASE, seed=seed, vocab=vocabulary())


def templated_table(seed: int) -> pa.Table:
    """Pages from ``TEMPLATED_SITES`` site templates: each page is a
    site header + a body + a site footer.  Regular bodies are short
    and unique, so pages of one site share most of their shingles and
    land in the borderline Jaccard band; syndicated articles are long
    bodies published on 2-3 different sites (planted truth clusters).
    Columns: the page schema plus ``truth_cluster`` (-1 for
    non-syndicated pages) and ``variant``."""
    rng = np.random.default_rng(seed)
    zipf = _Zipf(vocabulary())
    sites = []
    for s in range(TEMPLATED_SITES):
        head = zipf.draw(rng, int(rng.integers(50, 90)))
        foot = zipf.draw(rng, int(rng.integers(25, 45)))
        sites.append((head, foot))

    page_ids, urls, texts, truth, variants = [], [], [], [], []

    def add(site: int, body: list[str], cluster: int, variant: str):
        pid = len(page_ids)
        head, foot = sites[site]
        page_ids.append(pid)
        urls.append(f"https://site{site}.example.com/p/{pid}")
        texts.append(" ".join(head + body + foot))
        truth.append(cluster)
        variants.append(variant)

    n_articles = 0
    for s in range(TEMPLATED_SITES):
        for _ in range(TEMPLATED_PAGES_PER_SITE):
            add(s, zipf.draw(rng, int(rng.integers(15, 110))), -1,
                "regular")
        for _ in range(TEMPLATED_ARTICLES_PER_SITE):
            # syndicated article: a long body on this site and on
            # 1 (even articles) or 2 (odd) other sites
            body = zipf.draw(rng, int(rng.integers(300, 480)))
            others = rng.choice(
                [o for o in range(TEMPLATED_SITES) if o != s],
                size=1 + n_articles % 2, replace=False)
            add(s, body, n_articles, "article")
            for o in others:
                add(int(o), body, n_articles, "syndicated")
            n_articles += 1
    t = _pages_table(page_ids, urls, texts)
    return t.append_column("truth_cluster",
                           pa.array(truth, type=pa.int64())) \
        .append_column("variant", pa.array(variants, type=pa.string()))


def truth_pairs(table: pa.Table, workload: str) -> set[tuple[int, int]]:
    """Planted pairs the recall metric counts: the gated synth classes
    for webmix, the syndicated copies for templated."""
    if workload == "webmix":
        from nxsearch_ray.sources.synth import truth_pairs as synth_truth

        return synth_truth(table)
    by_cluster: dict[int, list[int]] = {}
    for pid, cl in zip(table.column("page_id").to_pylist(),
                       table.column("truth_cluster").to_pylist()):
        if cl >= 0:
            by_cluster.setdefault(cl, []).append(pid)
    pairs = set()
    for members in by_cluster.values():
        members.sort()
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pairs.add((a, b))
    return pairs


def _write_pages(t: pa.Table, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    pages = t.select(PAGE_COLUMNS)
    per = max(1, -(-pages.num_rows // NUM_FILES))
    for i in range(0, pages.num_rows, per):
        pq.write_table(pages.slice(i, per),
                       os.path.join(out_dir, f"part-{i:08d}.parquet"))


class Inputs:
    """Paths of one generated workload: ``pages`` (every page file the
    job reads) and ``truth`` (page_id, truth_cluster, variant)."""

    def __init__(self, root: str):
        self.root = root
        self.pages = os.path.join(root, "pages")
        self.truth = os.path.join(root, "truth.parquet")

    def table(self) -> pa.Table:
        """Pages and truth joined, in memory, for the checks."""
        pages = pq.read_table(self.pages).select(
            ["page_id", "text", "lang"])
        truth = pq.read_table(self.truth)
        order_p = np.argsort(pages.column("page_id").to_numpy())
        order_t = np.argsort(truth.column("page_id").to_numpy())
        pages = pages.take(pa.array(order_p))
        truth = truth.take(pa.array(order_t))
        out = pages
        for name in ("truth_cluster", "variant"):
            out = out.append_column(name, truth.column(name))
        return out


def generate(workload: str, seed: int, cache_dir: str) -> Inputs:
    """Write (or reuse) the inputs of ``workload`` at ``seed``."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    size = (WEBMIX_N_BASE if workload == "webmix" else TEMPLATED_SITES
            * (TEMPLATED_PAGES_PER_SITE + TEMPLATED_ARTICLES_PER_SITE))
    inp = Inputs(os.path.join(cache_dir, f"{workload}-s{seed}-n{size}-"
                              f"{FORMAT_VERSION}"))
    root = inp.root
    if os.path.exists(os.path.join(root, "_SUCCESS")):
        return inp
    shutil.rmtree(root, ignore_errors=True)
    t = webmix_table(seed) if workload == "webmix" \
        else templated_table(seed)
    _write_pages(t, inp.pages)
    pq.write_table(t.select(["page_id", "truth_cluster", "variant"]),
                   inp.truth)
    with open(os.path.join(root, "_SUCCESS"), "w"):
        pass
    return inp
