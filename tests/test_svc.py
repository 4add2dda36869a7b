"""HTTP service façade (nxsearch_ray/svc.py) — the reference's REST
surface.  The headline test replays the reference's own E2E script
(tools/svc_test.sh): create → add 3 docs → search "cat" must return
doc ids [3, 1] → delete."""

import json
import threading
import urllib.request

import pytest

from nxsearch_ray.svc import _dirlevels, make_server


@pytest.fixture(scope="module")
def svc(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("svc")
    srv = make_server(str(base))
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}", srv
    srv.shutdown()


def _req(url: str, method: str = "GET", body: bytes | None = None):
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def test_svc_e2e_golden(svc):
    """tools/svc_test.sh replayed: the search must return [3, 1]."""
    url, _ = svc
    idx = "__test-index-svc-1"
    assert _req(f"{url}/{idx}", "POST")[0] == 201
    # invalid index name → 400 (str_isalnumdu rejects '~')
    assert _req(f"{url}/%7E", "POST")[0] == 400
    assert _req(f"{url}/{idx}/add/1", "POST", b"cat dog cow")[0] == 201
    assert _req(f"{url}/{idx}/add/2", "POST", b"dog cow")[0] == 201
    assert _req(f"{url}/{idx}/add/3", "POST", b"cat cat cat")[0] == 201

    code, body = _req(f"{url}/{idx}/search", "POST", b"cat")
    assert code == 200
    resp = json.loads(body)
    assert [r["doc_id"] for r in resp["results"]] == [3, 1]
    assert resp["count"] == 2
    assert resp["results"][0]["score"] > resp["results"][1]["score"]

    assert _req(f"{url}/{idx}", "DELETE")[0] == 200
    # searching a destroyed index → 400
    assert _req(f"{url}/{idx}/search", "POST", b"cat")[0] == 400


def test_svc_doc_lifecycle(svc):
    url, _ = svc
    idx = "lifecycle"
    assert _req(f"{url}/{idx}", "POST")[0] == 201
    # duplicate index → 400; duplicate doc_id → 400 (ingest guard)
    assert _req(f"{url}/{idx}", "POST")[0] == 400
    assert _req(f"{url}/{idx}/add/5", "POST", b"alpha beta")[0] == 201
    assert _req(f"{url}/{idx}/add/5", "POST", b"again")[0] == 400
    assert _req(f"{url}/{idx}/add/6", "POST", b"alpha gamma")[0] == 201
    # doc_id 0 is reserved (caller-assigned non-zero ids)
    assert _req(f"{url}/{idx}/add/0", "POST", b"zero")[0] == 400

    code, body = _req(f"{url}/{idx}/search?limit=10", "POST", b"alpha")
    assert code == 200
    assert {r["doc_id"] for r in json.loads(body)["results"]} == {5, 6}

    assert _req(f"{url}/{idx}/remove/5", "DELETE")[0] == 200
    assert _req(f"{url}/{idx}/remove/5", "DELETE")[0] == 400
    code, body = _req(f"{url}/{idx}/search", "POST", b"alpha")
    assert [r["doc_id"] for r in json.loads(body)["results"]] == [6]
    _req(f"{url}/{idx}", "DELETE")


def test_svc_store_and_fetch(svc):
    """?store keeps raw text in the reference's 2-level hashed layout;
    ?fetch inlines it in search results (fetch_resp_to_json)."""
    url, srv = svc
    idx = "fetchable"
    assert _req(f"{url}/{idx}", "POST")[0] == 201
    assert _req(f"{url}/{idx}/add/123?store=1", "POST",
                b"stored fox text")[0] == 201
    code, body = _req(f"{url}/{idx}/search?fetch=1", "POST", b"fox")
    assert code == 200
    rows = json.loads(body)["results"]
    assert rows[0]["doc_id"] == 123
    assert rows[0]["content"] == "stored fox text"
    # layout check: 123 % 16 = 0xb, 123 // 16 = 7
    assert _dirlevels(123) == "b/07"
    store = srv.store
    assert store.fetch_raw(idx, 123) == "stored fox text"
    _req(f"{url}/{idx}", "DELETE")


def test_svc_search_params(svc):
    url, _ = svc
    idx = "params"
    assert _req(f"{url}/{idx}", "POST",
                json.dumps({"lang": "en"}).encode())[0] == 201
    for d, text in ((1, "fox jumps"), (2, "fox fox fox"),
                    (3, "unrelated")):
        _req(f"{url}/{idx}/add/{d}", "POST", text.encode())
    # limit caps results
    code, body = _req(f"{url}/{idx}/search?limit=1", "POST", b"fox")
    assert len(json.loads(body)["results"]) == 1
    # tf-idf algo accepted
    code, body = _req(f"{url}/{idx}/search?algo=TF-IDF", "POST", b"fox")
    assert code == 200 and json.loads(body)["count"] == 2
    # fuzzymatch resolves a typo'd term (≤2 edits)
    code, body = _req(f"{url}/{idx}/search", "POST", b"foxx")
    assert json.loads(body)["count"] == 2
    # ...and can be disabled
    code, body = _req(f"{url}/{idx}/search?fuzzymatch=false", "POST",
                      b"foxx")
    assert json.loads(body)["count"] == 0
    _req(f"{url}/{idx}", "DELETE")


def test_svc_lua_filter_post(svc, monkeypatch):
    url, _ = svc
    lua = b"return { filter = function(ctx, v) return v end }"
    # gated off by default (NXS_ENABLE_LUA_POST, reference parity)
    monkeypatch.delenv("NXS_ENABLE_LUA_POST", raising=False)
    assert _req(f"{url}/filters/passthru/lua", "POST", lua)[0] == 400
    monkeypatch.setenv("NXS_ENABLE_LUA_POST", "1")
    assert _req(f"{url}/filters/passthru/lua", "POST", lua)[0] == 201
    # non-alphanumeric filter names rejected (nxsearch_svc.lua:237)
    assert _req(f"{url}/filters/bad-name/lua", "POST", lua)[0] == 400
    # the filter is now registered in the serving process
    from nxsearch_ray.functions.filters import filter_registered
    assert filter_registered("passthru")


def test_svc_index_cache_generations(svc):
    """The open-index cache (reference index-LRU analogue) serves
    repeat searches from the cached canonical table and invalidates on
    mutation."""
    url, srv = svc
    idx = "cached"
    assert _req(f"{url}/{idx}", "POST")[0] == 201
    _req(f"{url}/{idx}/add/1", "POST", b"red green blue")
    g0 = srv.store.generation(idx)
    _req(f"{url}/{idx}/search", "POST", b"red")
    assert srv.store._open[idx][0] == g0          # cached at current gen
    cached_tbl = srv.store._open[idx][1]
    _req(f"{url}/{idx}/search", "POST", b"green")
    assert srv.store._open[idx][1] is cached_tbl  # reused, not rebuilt
    _req(f"{url}/{idx}/add/2", "POST", b"red yellow")
    assert idx not in srv.store._open             # invalidated
    code, body = _req(f"{url}/{idx}/search", "POST", b"red")
    assert json.loads(body)["count"] == 2         # fresh build sees doc 2
    _req(f"{url}/{idx}", "DELETE")


def test_svc_traversal_guard(svc):
    """Every route that builds a filesystem path validates the index
    name (the reference guards create/open/destroy,
    src/core/nxs.c:233,310,386).  DELETE /.. must NOT resolve to the
    base dir and wipe every index."""
    import os
    url, srv = svc
    idx = "travguard"
    assert _req(f"{url}/{idx}", "POST")[0] == 201
    assert _req(f"{url}/{idx}/add/1", "POST", b"keep me")[0] == 201
    # .. and . as index names → 400 on every verb, nothing deleted
    for name in ("..", ".", "..%2F..", "a.b"):
        assert _req(f"{url}/{name}", "DELETE")[0] == 400
        assert _req(f"{url}/{name}/add/1", "POST", b"x")[0] == 400
        assert _req(f"{url}/{name}/search", "POST", b"x")[0] == 400
        assert _req(f"{url}/{name}/remove/1", "DELETE")[0] == 400
    assert os.path.isdir(srv.store.index_dir(idx))     # survived
    assert os.path.isdir(os.path.join(srv.store.base, "data"))
    code, body = _req(f"{url}/{idx}/search", "POST", b"keep")
    assert json.loads(body)["count"] == 1
    _req(f"{url}/{idx}", "DELETE")


def test_svc_lua_store_contract(svc, monkeypatch, tmp_path):
    """?store persists the Lua filter under filters/ and a fresh
    IndexStore re-registers it at init; without ?store nothing is
    written to disk (reference nxsearch_svc.lua:246-247, 24-34)."""
    import os

    from nxsearch_ray.svc import IndexStore
    url, srv = svc
    monkeypatch.setenv("NXS_ENABLE_LUA_POST", "1")
    lua = b"return { filter = function(ctx, v) return v end }"
    # session-only: 201 but no file on disk
    assert _req(f"{url}/filters/ephem/lua", "POST", lua)[0] == 201
    assert not os.path.exists(
        os.path.join(srv.store.filters_dir, "ephem.lua"))
    # ?store: persisted, and a NEW store scans it at init
    assert _req(f"{url}/filters/kept/lua?store", "POST", lua)[0] == 201
    assert os.path.exists(
        os.path.join(srv.store.filters_dir, "kept.lua"))
    import shutil
    base2 = tmp_path / "svc2"
    base2.mkdir()
    (base2 / "filters").mkdir()
    shutil.copy(os.path.join(srv.store.filters_dir, "kept.lua"),
                base2 / "filters" / "kept2.lua")
    from nxsearch_ray.functions.filters import filter_registered
    IndexStore(str(base2))
    assert filter_registered("kept2")
    # invalid Lua leaves no file even with ?store
    assert _req(f"{url}/filters/brokenx/lua?store", "POST",
                b"this is ( not lua")[0] == 400
    assert not os.path.exists(
        os.path.join(srv.store.filters_dir, "brokenx.lua"))


def test_svc_concurrent_create_toctou(svc):
    """Concurrent POSTs creating the same index: exactly one 201, the
    rest 400 with the reference's ERR_EXISTS wire code (3) — never the
    generic ERR_SYSTEM the exists()/makedirs TOCTOU used to surface."""
    import concurrent.futures

    url, _ = svc
    idx = "toctou"
    barrier = threading.Barrier(8)

    def create():
        barrier.wait()
        return _req(f"{url}/{idx}", "POST")

    with concurrent.futures.ThreadPoolExecutor(8) as ex:
        results = list(ex.map(lambda _: create(), range(8)))
    codes = sorted(c for c, _ in results)
    assert codes == [201] + [400] * 7
    for code, body in results:
        if code == 400:
            assert json.loads(body)["error"]["code"] == 3  # ERR_EXISTS
    _req(f"{url}/{idx}", "DELETE")


def test_svc_concurrent_search_add_race(svc):
    """Searches racing adds on a shared index through the threaded
    server: no request may surface a spurious 400 (the pre-lock cache
    eviction could KeyError under concurrency), every search result
    must be internally consistent, and the final search sees all
    documents."""
    import concurrent.futures

    url, _ = svc
    idx = "racer"
    assert _req(f"{url}/{idx}", "POST")[0] == 201
    assert _req(f"{url}/{idx}/add/1", "POST", b"alpha beta")[0] == 201

    def searcher(i):
        return _req(f"{url}/{idx}/search", "POST", b"alpha")

    def adder(i):
        return _req(f"{url}/{idx}/add/{i + 2}", "POST",
                    f"alpha gamma{i}".encode())

    with concurrent.futures.ThreadPoolExecutor(8) as ex:
        futs = [ex.submit(searcher, i) for i in range(6)]
        futs += [ex.submit(adder, i) for i in range(4)]
        results = [f.result() for f in futs]
    for code, body in results:
        assert code in (200, 201), body
        if code == 200:
            resp = json.loads(body)
            assert resp["count"] == len(resp["results"]) >= 1
    code, body = _req(f"{url}/{idx}/search", "POST", b"alpha")
    assert json.loads(body)["count"] == 5
    _req(f"{url}/{idx}", "DELETE")


def test_svc_generation_bump_loses_no_update(tmp_path):
    """Concurrent mutations each bump the generation exactly once: the
    counter ends at the number of bumps, and a concurrent reader never
    sees it go backwards (an unlocked or truncating write would)."""
    import sys

    from nxsearch_ray.svc import IndexStore

    store = IndexStore(str(tmp_path))
    store.create("gen", {})
    start = store.generation("gen")
    n_threads, per_thread = 16, 50
    drops: list[tuple[int, int]] = []
    stop = threading.Event()

    def reader():
        last = start
        while not stop.is_set():
            g = store.generation("gen")
            if g < last:
                drops.append((last, g))
            last = g

    def bumper():
        for _ in range(per_thread):
            store._bump("gen")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r = threading.Thread(target=reader)
        r.start()
        ts = [threading.Thread(target=bumper) for _ in range(n_threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=120)
        stop.set()
        r.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not r.is_alive() and not any(t.is_alive() for t in ts)
    assert store.generation("gen") == start + n_threads * per_thread
    assert drops == []


def test_svc_job_slot_serves_in_arrival_order():
    """Searches queued on the job slot run in the order they arrived,
    so none waits behind requests that came after it."""
    import time

    from nxsearch_ray.svc import _FifoLock

    slot = _FifoLock()
    order: list[int] = []
    ts = []

    def search(i: int):
        with slot:
            order.append(i)

    with slot:
        for i in range(8):
            t = threading.Thread(target=search, args=(i,))
            t.start()
            ts.append(t)
            deadline = time.monotonic() + 30
            while slot._next < i + 2 and time.monotonic() < deadline:
                time.sleep(0.001)          # wait until i has its ticket
    for t in ts:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in ts)
    assert order == list(range(8))


def test_svc_open_cache_lru_semantics(svc):
    """The open-index cache is a true LRU under concurrent puts:
    accessed entries survive eviction, the least-recently-used entry
    is evicted first, and hammering _cache_put from many threads never
    raises or exceeds the slot budget."""
    import concurrent.futures

    from nxsearch_ray.svc import IndexStore

    _, srv = svc
    store = srv.store
    # direct unit exercise of the locked LRU (no Ray work involved)
    saved = dict(store._open)
    store._open.clear()
    try:
        for i in range(IndexStore.CACHE_SLOTS):
            store._cache_put(f"__lru{i}", 1, object(), None)
        # touch the oldest entry, then overflow by one
        with store._open_lock:
            store._open.move_to_end("__lru0")
        store._cache_put("__lru_new", 1, object(), None)
        assert "__lru0" in store._open              # recently used: kept
        assert "__lru1" not in store._open          # LRU: evicted
        assert len(store._open) == IndexStore.CACHE_SLOTS
        # stale-generation put never clobbers a newer cached entry
        marker = object()
        store._cache_put("__lru0", 5, marker, None)
        store._cache_put("__lru0", 3, object(), None)
        assert store._open["__lru0"][0] == 5
        assert store._open["__lru0"][1] is marker
        # concurrency hammer: 16 threads × 50 puts over 40 names
        def hammer(seed):
            for j in range(50):
                store._cache_put(f"__h{(seed * 7 + j) % 40}", j,
                                 object(), None)
        with concurrent.futures.ThreadPoolExecutor(16) as ex:
            list(ex.map(hammer, range(16)))
        assert len(store._open) == IndexStore.CACHE_SLOTS
    finally:
        store._open.clear()
        store._open.update(saved)


def test_svc_concurrent_add_search_race(svc):
    """Threaded add/search/create races (VERDICT r03 #10): the open-
    index LRU is shared across ThreadingHTTPServer threads, and the
    generation guard + _open_lock must keep every response a clean
    200/201 (no KeyError-driven 400s, no 5xx).  CACHE_SLOTS eviction
    is forced by cycling more indices than slots would allow for one
    name; duplicate concurrent creates must split 201 / ERR_EXISTS."""
    import concurrent.futures as cf

    url, srv = svc
    store = srv.store
    old_slots = store.CACHE_SLOTS
    store.CACHE_SLOTS = 2          # force eviction under contention
    try:
        names = [f"race{i}" for i in range(4)]
        for n in names:
            assert _req(f"{url}/{n}", "POST")[0] == 201
            assert _req(f"{url}/{n}/add/1", "POST",
                        b"cat dog")[0] == 201

        errors: list[tuple] = []

        def adder(k: int):
            n = names[k % len(names)]
            code, body = _req(f"{url}/{n}/add/{100 + k}", "POST",
                              b"cat cow word%d" % k)
            if code != 201:
                errors.append(("add", code, body))

        def searcher(k: int):
            n = names[k % len(names)]
            code, body = _req(f"{url}/{n}/search", "POST", b"cat")
            if code != 200:
                errors.append(("search", code, body))

        with cf.ThreadPoolExecutor(max_workers=8) as ex:
            futs = []
            for k in range(12):
                futs.append(ex.submit(adder, k))
                futs.append(ex.submit(searcher, k))
            for f in futs:
                f.result(timeout=120)
        assert errors == [], errors[:3]

        # concurrent duplicate create: exactly one 201, the rest the
        # reference's ERR_EXISTS wire code (not ERR_SYSTEM)
        with cf.ThreadPoolExecutor(max_workers=4) as ex:
            rs = list(ex.map(
                lambda _: _req(f"{url}/dupname", "POST"), range(4)))
        codes = sorted(c for c, _ in rs)
        assert codes.count(201) == 1 and set(codes) <= {201, 400}
        for code, body in rs:
            if code == 400:
                assert json.loads(body)["error"]["code"] == 3  # EXISTS
    finally:
        store.CACHE_SLOTS = old_slots
