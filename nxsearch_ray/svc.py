"""HTTP service façade — the reference's REST surface over the Ray
engine.

Routes, verbs, status codes, wire formats and the on-disk raw-document
store mirror the reference service (svc-src/nxsearch_svc.lua:258-486,
svc-src/nxsearch_storage.lua:14-41, 91-117):

  * ``POST   /{index}``                — create an index (JSON params)
  * ``DELETE /{index}``                — destroy an index
  * ``POST   /{index}/add/{doc_id}``   — add a document (text body;
    ``?store`` also keeps the raw text in the 2-level hashed dir tree)
  * ``DELETE /{index}/remove/{doc_id}``— remove a document
  * ``POST   /{index}/search``         — query body; ``?limit=``,
    ``?algo=``, ``?fuzzymatch=``, ``?fetch`` query params; returns
    ``{"results": [{"doc_id", "score"}...], "count"}``
  * ``POST   /filters/{name}/lua``     — register a Lua filter from the
    request body (gated on ``NXS_ENABLE_LUA_POST=1`` exactly like the
    reference; ``?store`` persists it under ``{base}/filters/``)

Errors return HTTP 400 with ``{"error": {"code", "msg"}}`` —
set_http_error (nxsearch_svc.lua:55-66).  Index/document state lives
under a base directory: ``data/{index}/params.json`` plus one small
Parquet part per added document (sharded with the reference's
``doc_id%16 / (doc_id//16)%256`` two-level layout), so an index
survives service restarts and a search is simply a Ray Dataset scan
over the index's parts — canonicalize → term_search, distributed, no
in-process inverted index to rebuild or mmap (S1/S2 are replaced by
Parquet + the object store, see SURVEY.md §2.1).

This module never calls ``ray.init`` — the embedding application (or
``python -m nxsearch_ray.svc``, which guards with
``ray.is_initialized``) owns the session.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from nxsearch_ray.config import PipelineConfig

# reference error codes (src/core/nxs.h nxs_err): subset the service
# surfaces
ERR_SYSTEM = 1
ERR_INVALID = 2
ERR_EXISTS = 3
ERR_MISSING = 4

_NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")       # str_isalnumdu
_FILTER_NAME_RE = re.compile(r"[A-Za-z0-9]+\Z")  # name:match("%W") guard


def _dirlevels(doc_id: int) -> str:
    """storage.lua get_dirlevels: '%x/%02x' of id%16, (id//16)%256."""
    return f"{doc_id % 16:x}/{(doc_id // 16) % 256:02x}"


def _replace_atomic(path: str, write) -> None:
    """Create or replace ``path`` by ``write(tmp)`` to a temp name no
    listing matches, then an atomic rename: a concurrent reader sees
    the old file or the whole new one, never a partial write."""
    tmp = f"{path}.{threading.get_ident()}.tmp"
    write(tmp)
    os.replace(tmp, path)


class _FifoLock:
    """A lock granted in arrival order: ``threading.Lock`` promises
    none, so a request queued behind a long line of searches could
    otherwise wait for every later one too."""

    def __init__(self):
        self._cv = threading.Condition()
        self._next = self._serving = 0

    def __enter__(self):
        with self._cv:
            ticket = self._next
            self._next += 1
            self._cv.wait_for(lambda: self._serving == ticket)

    def __exit__(self, *exc):
        with self._cv:
            self._serving += 1
            self._cv.notify_all()


class IndexStore:
    """On-disk index state under ``{base}/data/{name}/``.

    Open indexes are cached like the reference service's per-worker
    index LRU (nxsearch_svc.lua:17-18, 71-83 / SURVEY §2 ST7): the
    materialized canonical token table and fuzzy vocabulary live in
    the object store keyed by an on-disk generation counter that every
    add/remove bumps, so a search on an unchanged index skips the
    canonicalize pass entirely."""

    CACHE_SLOTS = 16

    def __init__(self, base_dir: str):
        self.base = base_dir
        os.makedirs(os.path.join(base_dir, "data"), exist_ok=True)
        self.filters_dir = os.path.join(base_dir, "filters")
        os.makedirs(self.filters_dir, exist_ok=True)
        # service-init filter scan (reference nxsearch_svc.lua:24-34):
        # previously ?store-persisted filters register on restart
        from nxsearch_ray.functions.plugins import load_filters_from_dir
        load_filters_from_dir(self.filters_dir)
        # name -> (generation, canonical MaterializedDataset, vocab_ref)
        # — true LRU (accessed entries move to the end, eviction pops
        # the front), guarded by a lock: the ThreadingHTTPServer runs
        # one thread per request and they share this store
        self._open: OrderedDict[str, tuple[int, object, object]] = \
            OrderedDict()
        self._open_lock = threading.Lock()
        # one Ray Data job at a time: each search already parallelizes
        # across the whole cluster inside its job, and CONCURRENT
        # streaming executors from several driver threads contend for
        # the same CPUs (with actor-pool stages they deadlocked on a
        # small session; the reference's per-request mmap reads have no
        # analogue of this).  HTTP threads queue here, served in arrival order;
        # add/fetch stay lock-free.
        self._job_slot = _FifoLock()
        # serializes the generation counter's read-increment-write
        self._gen_lock = threading.Lock()

    # -- paths ---------------------------------------------------------
    def index_dir(self, name: str) -> str:
        return os.path.join(self.base, "data", name)

    def parts_dir(self, name: str) -> str:
        return os.path.join(self.index_dir(name), "parts")

    def _part_path(self, name: str, doc_id: int) -> str:
        return os.path.join(self.parts_dir(name), _dirlevels(doc_id),
                            f"{doc_id}.parquet")

    def _raw_path(self, name: str, doc_id: int) -> str:
        return os.path.join(self.index_dir(name), "docs",
                            _dirlevels(doc_id), str(doc_id))

    def exists(self, name: str) -> bool:
        return os.path.isdir(self.index_dir(name))

    # -- lifecycle -------------------------------------------------------
    def create(self, name: str, params: dict) -> None:
        d = self.index_dir(name)
        os.makedirs(self.parts_dir(name))
        with open(os.path.join(d, "params.json"), "w") as f:
            json.dump(params, f)
        self._bump(name)

    def destroy(self, name: str) -> None:
        shutil.rmtree(self.index_dir(name))
        with self._open_lock:
            self._open.pop(name, None)

    # -- open-index cache (ST7 analogue) -----------------------------
    def _gen_path(self, name: str) -> str:
        return os.path.join(self.index_dir(name), "generation")

    def _bump(self, name: str) -> None:
        """Invalidate cached state after any mutation.  The lock
        keeps concurrent bumps from being lost; the atomic replace
        keeps ``generation`` from reading a half-written file."""
        with self._gen_lock:
            g = self.generation(name) + 1
            _replace_atomic(self._gen_path(name),
                            lambda tmp: Path(tmp).write_text(str(g)))
        with self._open_lock:
            self._open.pop(name, None)

    def generation(self, name: str) -> int:
        try:
            with open(self._gen_path(name)) as f:
                return int(f.read().strip() or 0)
        except OSError:
            return 0

    def params(self, name: str) -> dict:
        with open(os.path.join(self.index_dir(name), "params.json")) as f:
            return json.load(f)

    def config(self, name: str) -> PipelineConfig:
        p = self.params(name)
        kw = {}
        if "filters" in p:
            kw["filters"] = tuple(p["filters"])
        # plumb stored filter files to Ray workers: each worker process
        # has its own registry, so canonicalize_stage re-registers them
        # from disk via ensure_plugins (per-nginx-worker init analogue)
        stored = tuple(
            os.path.join(self.filters_dir, f)
            for f in sorted(os.listdir(self.filters_dir))
            if f.endswith((".py", ".lua")))
        if stored:
            kw["plugin_files"] = stored
        return PipelineConfig(**kw)

    # -- documents -------------------------------------------------------
    def add(self, name: str, doc_id: int, text: str, lang: str,
            store_raw: bool) -> None:
        import pyarrow as pa
        import pyarrow.parquet as pq

        path = self._part_path(name, doc_id)
        if os.path.exists(path):                 # dup-doc-id ingest guard
            raise FileExistsError(f"document {doc_id} already exists")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t = pa.table({"doc_id": pa.array([doc_id], pa.int64()),
                      "text": pa.array([text], pa.string()),
                      "lang": pa.array([lang], pa.string())})
        # a concurrent search lists whole parts only
        _replace_atomic(path, lambda tmp: pq.write_table(t, tmp))
        self._bump(name)
        if store_raw:
            raw = self._raw_path(name, doc_id)
            os.makedirs(os.path.dirname(raw), exist_ok=True)
            with open(raw, "w") as f:
                f.write(text)

    def remove(self, name: str, doc_id: int) -> None:
        path = self._part_path(name, doc_id)
        os.remove(path)                           # ENOENT → 400 upstream
        raw = self._raw_path(name, doc_id)
        if os.path.exists(raw):
            os.remove(raw)
        self._bump(name)

    def fetch_raw(self, name: str, doc_id: int) -> str | None:
        try:
            with open(self._raw_path(name, doc_id)) as f:
                return f.read()
        except OSError:
            return None

    def doc_count(self, name: str) -> int:
        n = 0
        for _, _, files in os.walk(self.parts_dir(name)):
            n += sum(f.endswith(".parquet") for f in files)
        return n

    # -- search ----------------------------------------------------------
    def search(self, name: str, query: str, *, algo: str = "bm25",
               limit: int = 1000, fuzzymatch: bool = True):
        """Distributed search over the index's Parquet parts; returns
        the (doc_id, score) Arrow table sorted like the reference
        (score desc, id asc, capped)."""
        import ray.data

        from nxsearch_ray.stages.canonicalize import canonicalize_stage
        from nxsearch_ray.stages.fuzzy import (
            build_vocab_index_ref,
            vocabulary,
        )
        from nxsearch_ray.stages.search import term_search

        cfg = self.config(name)
        # read the generation BEFORE listing parts and re-check after:
        # a concurrent add lands its part file before bumping, so an
        # unchanged generation across the walk means the part listing
        # is consistent with (or newer than) that generation — never a
        # stale listing cached under a newer generation
        for _ in range(16):
            gen = self.generation(name)
            paths = []
            for root, _, files in os.walk(self.parts_dir(name)):
                paths.extend(os.path.join(root, f) for f in files
                             if f.endswith(".parquet"))
            if self.generation(name) == gen:
                break
        if not paths:
            import pyarrow as pa
            return pa.schema([("doc_id", pa.int64()),
                              ("score", pa.float64())]).empty_table()
        with self._job_slot:
            with self._open_lock:
                cached = self._open.get(name)
                if cached is not None:
                    self._open.move_to_end(name)      # LRU touch
            if cached is not None and cached[0] == gen:
                _, canonical, vref = cached
                if fuzzymatch and vref is None:
                    vref = build_vocab_index_ref(vocabulary(canonical))
                    self._cache_put(name, gen, canonical, vref)
            else:
                from nxsearch_ray.sources.io import read_parquet_clean
                ds = read_parquet_clean(paths)
                # tokens column kept so a later fuzzy search can build
                # the vocabulary from the cached canonical table (the
                # job slot serializes builds; a put under a newer
                # generation is never clobbered — see _cache_put)
                canonical = canonicalize_stage(
                    ds, cfg, include_tokens=True).materialize()
                vref = build_vocab_index_ref(vocabulary(canonical)) \
                    if fuzzymatch else None
                self._cache_put(name, gen, canonical, vref)
            return term_search(
                canonical, query, cfg, algo=algo, limit=limit,
                id_col="doc_id",
                fuzzy_vocab_ref=vref if fuzzymatch else None)

    def _cache_put(self, name: str, gen: int, canonical, vref) -> None:
        with self._open_lock:
            # never replace a newer generation already cached by a
            # concurrent search that raced past this one
            prev = self._open.get(name)
            if prev is None or prev[0] <= gen:
                self._open[name] = (gen, canonical, vref)
                self._open.move_to_end(name)
            while len(self._open) > self.CACHE_SLOTS:  # LRU eviction
                self._open.popitem(last=False)


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a shared IndexStore via the server."""

    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    @property
    def store(self) -> IndexStore:
        return self.server.store          # type: ignore[attr-defined]

    def log_message(self, fmt, *args):    # quiet; tests read responses
        pass

    def _body(self) -> str:
        n = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(n).decode("utf-8") if n else ""

    def _reply(self, status: int, payload: str = "",
               ctype: str = "application/json") -> None:
        data = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if data:
            self.wfile.write(data)

    def _error(self, msg: str, code: int = ERR_INVALID) -> None:
        """set_http_error wire format (nxsearch_svc.lua:55-66)."""
        self._reply(400, json.dumps(
            {"error": {"code": code, "msg": msg}}))

    def _valid_name(self, name: str) -> bool:
        """str_isalnumdu guard on EVERY route that builds a filesystem
        path from the index name (the reference validates on
        create/open/destroy, src/core/nxs.c:233,310,386) — without it
        ``DELETE /..`` resolves to the base dir and rmtree wipes every
        index."""
        if _NAME_RE.match(name):
            return True
        self._error("invalid index name", ERR_INVALID)
        return False

    # -- routing ---------------------------------------------------------
    def do_POST(self):                            # noqa: N802 (stdlib API)
        url = urlparse(self.path)
        # keep_blank_values: the reference's flags are bare (?store,
        # ?fetch) — parse_qs drops them by default
        qs = parse_qs(url.query, keep_blank_values=True)
        parts = [p for p in url.path.split("/") if p]
        try:
            if (len(parts) == 3 and parts[0] == "filters"
                    and parts[2] == "lua"):
                return self._post_filter_lua(parts[1], qs)
            if len(parts) == 1:
                return self._post_create(parts[0])
            if len(parts) == 3 and parts[1] == "add":
                if not self._valid_name(parts[0]):
                    return
                return self._post_add(parts[0], parts[2], qs)
            if len(parts) == 2 and parts[1] == "search":
                if not self._valid_name(parts[0]):
                    return
                return self._post_search(parts[0], qs)
        except Exception as e:                    # engine errors → 400
            return self._error(str(e), ERR_SYSTEM)
        self._error("unknown route", ERR_INVALID)

    def do_DELETE(self):                          # noqa: N802
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if len(parts) == 1:
                name = parts[0]
                if not self._valid_name(name):
                    return
                if not self.store.exists(name):
                    return self._error(f"index {name!r} does not exist",
                                       ERR_MISSING)
                self.store.destroy(name)
                return self._reply(200)
            if len(parts) == 3 and parts[1] == "remove":
                name, doc_id = parts[0], parts[2]
                if not self._valid_name(name):
                    return
                if not self.store.exists(name):
                    return self._error(f"index {name!r} does not exist",
                                       ERR_MISSING)
                try:
                    self.store.remove(name, int(doc_id))
                except FileNotFoundError:
                    return self._error(f"document {doc_id} not found",
                                       ERR_MISSING)
                return self._reply(200)
        except Exception as e:
            return self._error(str(e), ERR_SYSTEM)
        self._error("unknown route", ERR_INVALID)

    # -- handlers ----------------------------------------------------------
    def _post_create(self, name: str) -> None:
        if not _NAME_RE.match(name):              # str_isalnumdu
            return self._error("invalid index name", ERR_INVALID)
        if self.store.exists(name):
            return self._error(f"index {name!r} already exists",
                               ERR_EXISTS)
        body = self._body()
        params = json.loads(body) if body.strip() else {}
        if not isinstance(params, dict):
            return self._error("params must be a JSON object",
                               ERR_INVALID)
        try:
            self.store.create(name, params)
        except FileExistsError:
            # TOCTOU between exists() and makedirs under concurrent
            # POSTs to the same name — surface the reference's
            # ERR_EXISTS wire code, not a generic ERR_SYSTEM
            return self._error(f"index {name!r} already exists",
                               ERR_EXISTS)
        self._reply(201)

    def _post_add(self, name: str, doc_id: str, qs: dict) -> None:
        if not self.store.exists(name):
            return self._error(f"index {name!r} does not exist",
                               ERR_MISSING)
        if not doc_id.isdigit() or int(doc_id) == 0:
            # caller-assigned non-zero id (src/core/nxs.c:498-501)
            return self._error("doc_id must be a positive integer",
                               ERR_INVALID)
        text = self._body()
        lang = self.store.params(name).get("lang", "en")
        try:
            self.store.add(name, int(doc_id), text, lang,
                           store_raw="store" in qs)
        except FileExistsError as e:
            return self._error(str(e), ERR_EXISTS)
        self._reply(201)

    def _post_search(self, name: str, qs: dict) -> None:
        from nxsearch_ray.stages.search import response_json

        if not self.store.exists(name):
            return self._error(f"index {name!r} does not exist",
                               ERR_MISSING)
        query = self._body()
        if not query.strip():
            return self._error("empty query", ERR_INVALID)
        limit = int(qs.get("limit", ["1000"])[0])
        algo = qs.get("algo", ["bm25"])[0].lower().replace("-", "")
        fuzzy = qs.get("fuzzymatch", ["true"])[0].lower() not in (
            "0", "false", "no")
        results = self.store.search(name, query, algo=algo,
                                    limit=limit, fuzzymatch=fuzzy)
        if "fetch" in qs:
            # fetch_resp_to_json (nxsearch_svc.lua:107-123): inline the
            # stored raw document content per result
            rows = [{"doc_id": int(i), "score": round(float(s), 6),
                     "content": self.store.fetch_raw(name, int(i))}
                    for i, s in zip(
                        results.column("doc_id").to_pylist(),
                        results.column("score").to_pylist())]
            return self._reply(200, json.dumps(
                {"results": rows, "count": len(rows)},
                separators=(",", ":")))
        self._reply(200, response_json(results))

    def _post_filter_lua(self, name: str, qs: dict) -> None:
        if os.environ.get("NXS_ENABLE_LUA_POST") != "1":
            return self._error("Lua code posting is not enabled",
                               ERR_SYSTEM)
        if not _FILTER_NAME_RE.match(name):
            return self._error("filter name must be alphanumeric",
                               ERR_INVALID)
        import tempfile

        src = self._body()
        # validate from a temp path first; persist under filters/ ONLY
        # with ?store (reference nxsearch_svc.lua:246-247 — without the
        # flag the filter is session-local to this service process)
        from nxsearch_ray.functions.plugins import load_lua_filter
        with tempfile.TemporaryDirectory() as td:
            tmp = os.path.join(td, f"{name}.lua")
            with open(tmp, "w") as f:
                f.write(src)
            try:
                load_lua_filter(tmp, name=name)
            except Exception as e:
                return self._error(f"lua filter load failed: {e}",
                                   ERR_INVALID)
            if "store" in qs:
                dst = os.path.join(self.store.filters_dir,
                                   f"{name}.lua")
                shutil.move(tmp, dst)
        self._reply(201)


def make_server(base_dir: str, port: int = 0) -> ThreadingHTTPServer:
    """Build the service bound to 127.0.0.1:{port} (0 = ephemeral).
    Caller starts/stops it (``serve_forever`` / ``shutdown``)."""
    srv = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    srv.store = IndexStore(base_dir)              # type: ignore[attr-defined]
    return srv


def main() -> None:                               # pragma: no cover
    import argparse

    import ray

    ap = argparse.ArgumentParser(description="nxsearch_ray HTTP service")
    ap.add_argument("--base-dir", default=os.environ.get(
        "NXS_BASEDIR", "/tmp/nxsearch_ray_svc"))
    ap.add_argument("--port", type=int, default=8000)
    args = ap.parse_args()
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    srv = make_server(args.base_dir, args.port)
    print(f"serving on http://127.0.0.1:{srv.server_address[1]} "
          f"(base {args.base_dir})")
    try:
        srv.serve_forever()
    finally:
        ray.shutdown()


if __name__ == "__main__":                        # pragma: no cover
    main()
