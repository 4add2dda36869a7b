"""File-based filter plugins — the reference's Lua drop-in surface
(docs/lua-filters-api.md:19-80, svc-src/nxsearch_svc.lua:24-34) bound
to Python plugin files with the same {create, filter} contract."""

import os
import textwrap

import pytest

from nxsearch_ray.functions.filters import FilterPipeline
from nxsearch_ray.functions.plugins import load_lua_filter, load_python_filter

PLUGIN_SRC = textwrap.dedent('''
    """Strips a configured prefix; discards tokens containing digits —
    exercises create(params) ctx plumbing and the nil⇒discard rule."""

    def create(params):
        return {"prefix": params.get("prefix", "xx"),
                "lang": params.get("lang")}

    def filter(ctx, value):
        if any(c.isdigit() for c in value):
            return None                      # nil, nil ⇒ discard
        if value.startswith(ctx["prefix"]):
            return value[len(ctx["prefix"]):]
        return value
''')


@pytest.fixture(scope="module")
def plugin_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("plugins")
    p = d / "strip-prefix.py"
    p.write_text(PLUGIN_SRC)
    return str(p)


def test_python_plugin_contract(plugin_file):
    name = load_python_filter(plugin_file)
    assert name == "strip-prefix"
    fp = FilterPipeline((name,), {})
    assert fp.run("xxtoken") == "token"        # mutation
    assert fp.run("plain") == "plain"          # pass-through
    assert fp.run("abc123") is None            # nil ⇒ DISCARD
    # emptied buffer after strip ⇒ DISCARD (filters.c:208-210)
    assert fp.run("xx") is None


def test_plugin_in_chain_with_builtins(plugin_file):
    fp = FilterPipeline(("normalizer", "strip-prefix", "stemmer"),
                        {"lang": "en"})
    assert fp.run("xxJumping") == "jump"


def test_plugin_without_filter_fn_rejected(tmp_path):
    p = tmp_path / "bad.py"
    p.write_text("x = 1\n")
    with pytest.raises(AttributeError):
        load_python_filter(str(p))


LUA_PLUGIN_SRC = textwrap.dedent('''
    -- create/filter lifecycle exercising the documented tuple returns:
    -- string => mutation, (nil, nil) => discard, (nil, err) => abort.
    local cjson = require "cjson"

    return {
      create = function(json_params)
        local params = cjson.decode(json_params)
        return { prefix = params["prefix"] or "xx" }
      end,

      filter = function(ctx, value)
        if string.match(value, "%d") then
          return nil, nil                      -- digits => discard
        end
        if value == "poison" then
          return nil, "poison token"           -- => ERROR action
        end
        if string.sub(value, 1, #ctx.prefix) == ctx.prefix then
          return string.sub(value, #ctx.prefix + 1)
        end
        return value
      end,
    }
''')


def test_lua_filter_embedded(tmp_path):
    """.lua filter files load WITHOUT lupa via the embedded Lua-subset
    interpreter, with reference tuple semantics end-to-end."""
    p = tmp_path / "strip-lua.lua"
    p.write_text(LUA_PLUGIN_SRC)
    name = load_lua_filter(str(p))
    assert name == "strip-lua"
    fp = FilterPipeline(("strip-lua",), {"prefix": "xx"})
    assert fp.run("xxtoken") == "token"        # mutation
    assert fp.run("plain") == "plain"          # pass-through
    assert fp.run("abc123") is None            # (nil, nil) ⇒ DISCARD
    with pytest.raises(RuntimeError, match="poison"):
        fp.run("poison")                       # (nil, err) ⇒ ERROR


def test_lua_filter_in_chain_with_builtins(tmp_path):
    p = tmp_path / "striplua2.lua"
    p.write_text(LUA_PLUGIN_SRC)
    load_lua_filter(str(p))
    fp = FilterPipeline(("normalizer", "striplua2", "stemmer"),
                        {"lang": "en", "prefix": "xx"})
    assert fp.run("xxJumping") == "jump"


REF_FILTER_LUA = "/root/reference/src/tests/test_filter.lua"


@pytest.mark.skipif(not os.path.exists(REF_FILTER_LUA),
                    reason="reference checkout not present")
def test_reference_lua_filter_drop_in():
    """The reference's own test filter module loads from its checkout
    path unmodified and lowercases through the pipeline — the drop-in
    parity the Lua host exists for (src/core/filters_lua.c:224-289)."""
    name = load_lua_filter(REF_FILTER_LUA, name="ref-test-filter")
    fp = FilterPipeline((name,), {"lang": "en"})
    assert fp.run("HeLLo") == "hello"
    assert fp.run("WORLD") == "world"


def test_lua_plugin_loads_inside_ray_actors(ray_session, tmp_path):
    """A .lua plugin listed in config.plugin_files registers inside
    every Ray worker through the embedded interpreter."""
    import pyarrow as pa
    import ray.data as rd

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.canonicalize import canonicalize_stage

    p = tmp_path / "lua-strip.lua"
    p.write_text(LUA_PLUGIN_SRC)
    cfg = PipelineConfig(
        filters=("normalizer", "lua-strip", "stemmer"),
        plugin_files=(str(p),))
    pages = pa.table({
        "page_id": pa.array([1, 2], pa.int64()),
        "text": ["xxJumping foxes 42 xx", "plain xxwords"],
        "lang": ["en", "en"],
    })
    out = canonicalize_stage(rd.from_arrow(pages), cfg,
                             include_tokens=True)
    rows = {r["page_id"]: r["tokens"] for r in out.take_all()}
    assert rows[1] == ["jump", "fox"]
    assert rows[2] == ["plain", "word"]


def test_plugin_loads_inside_ray_actors(ray_session, plugin_file,
                                        tmp_path):
    """config.plugin_files must register the filter in EVERY worker
    process (the per-nginx-worker init analogue): run the distributed
    canonicalize stage with a plugin in the chain."""
    import pyarrow as pa
    import ray.data as rd

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.canonicalize import canonicalize_stage

    cfg = PipelineConfig(
        filters=("normalizer", "strip-prefix", "stemmer"),
        plugin_files=(plugin_file,))
    pages = pa.table({
        "page_id": pa.array([1, 2], pa.int64()),
        "text": ["xxJumping foxes 42 xx", "plain xxwords"],
        "lang": ["en", "en"],
    })
    out = canonicalize_stage(rd.from_arrow(pages), cfg,
                             include_tokens=True)
    rows = {r["page_id"]: r["tokens"] for r in out.take_all()}
    # xxJumping → jumping → jump; "42" discarded; bare "xx" emptied
    assert rows[1] == ["jump", "fox"]
    assert rows[2] == ["plain", "word"]
