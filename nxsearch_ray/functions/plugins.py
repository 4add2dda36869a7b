"""Drop-in filter plugins loaded from files — the analogue of the
reference's Lua filter host.

The reference accepts user filters two ways (SURVEY.md §2.10):
  * a directory scan at service init — every ``$NXS_BASEDIR/filters/
    *.lua`` is registered under its file stem
    (reference svc-src/nxsearch_svc.lua:24-34),
  * each module returns a lifecycle table ``{create, destroy, filter,
    cleanup}`` where ``filter(ctx, value) -> (result|nil, err)`` and
    ``nil, nil`` means discard
    (reference src/core/filters_lua.c:224-289,
    docs/lua-filters-api.md:19-80).

Here the files are the ones ``PipelineConfig.plugin_files`` lists, and
the same contract binds Python plugin files: a ``.py`` file that
defines module-level ``filter(ctx, value)`` (plus optional ``create``/
``destroy``/``cleanup``) is loaded with importlib and registered under
its stem.  Returning ``None`` discards the token; returning a string
mutates it; raising aborts the document (the Lua ERROR action).

Actual ``.lua`` files are always accepted: via the ``lupa`` binding
when installed, else via the embedded pure-Python Lua-subset
interpreter (``lua_mini.py``).  The Lua table contract is translated
1:1: ``create(json_params)`` gets the params as a JSON string (decoded
by the module with ``cjson``, exactly like the reference host),
``filter(ctx, value)`` returns the mutated string, ``nil, nil`` to
discard, or ``nil, err`` to abort.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Any

from nxsearch_ray.functions.filters import FilterAction, register_filter


def _adapt_table(table: Any):
    """Wrap a {create, filter, ...} lifecycle table as a registry
    factory with reference semantics (filters_lua.c:253-289: nil result
    ⇒ DISCARD, string ⇒ MUTATION)."""
    filt_fn = table["filter"] if isinstance(table, dict) \
        else getattr(table, "filter")
    create_fn = (table.get("create") if isinstance(table, dict)
                 else getattr(table, "create", None))

    def factory(params: dict):
        ctx = create_fn(dict(params)) if create_fn is not None else None

        def run(token: str):
            out = filt_fn(ctx, token)
            if out is None:
                return FilterAction.DISCARD, token
            return FilterAction.MUTATION, str(out)

        return run

    return factory


def load_python_filter(path: str, name: str | None = None) -> str:
    """Load one ``.py`` plugin file and register it as a token filter.

    The module must define ``filter(ctx, value) -> str | None`` at top
    level; ``create(params) -> ctx`` is optional (ctx is None without
    it).  Returns the registered name (file stem by default)."""
    name = name or os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(
        f"nxsearch_ray_plugin_{name}", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load plugin file {path!r}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    if not callable(getattr(mod, "filter", None)):
        raise AttributeError(
            f"plugin {path!r} defines no callable `filter(ctx, value)`")
    table = {"filter": mod.filter,
             "create": getattr(mod, "create", None)}
    register_filter(name, _adapt_table(table))
    return name


def load_lua_filter(path: str, name: str | None = None) -> str:
    """Load an actual ``.lua`` filter file (drop-in reference parity).

    Uses the ``lupa`` Lua binding when installed; otherwise falls back
    to the embedded Lua-subset interpreter
    (:mod:`nxsearch_ray.functions.lua_mini`), which runs the documented
    lifecycle-table contract — including the reference's own
    src/tests/test_filter.lua — without a C Lua runtime.

    Contract parity with the reference host
    (src/core/filters_lua.c:224-289, docs/lua-filters-api.md:19-49):

      * ``create(json_params)`` receives the pipeline params as a JSON
        **string** (the module decodes it with ``cjson``), and its
        return value is the ctx passed to ``filter``/``destroy``;
      * ``filter(ctx, value)`` returning a string mutates the token,
        ``nil, nil`` discards it, and ``nil, err`` aborts the document
        (raised as RuntimeError, the Lua ERROR action).
    """
    import json as _json

    name = name or os.path.splitext(os.path.basename(path))[0]
    with open(path) as f:
        source = f.read()
    try:
        import lupa
    except ImportError:
        lupa = None

    if lupa is not None:  # pragma: no cover - lupa absent here
        rt = lupa.LuaRuntime(unpack_returned_tuples=True)
        table = rt.execute(source)
    else:
        from nxsearch_ray.functions.lua_mini import lua_execute
        table = lua_execute(source)
    if table is None or table["filter"] is None:
        raise ValueError(f"lua filter {path!r} returned no "
                         "{create, filter} table")

    def factory(params: dict):
        ctx = None
        if table["create"] is not None:
            out = table["create"](_json.dumps(params))
            # create may return (ctx) or (nil, err)
            if isinstance(out, tuple):
                if out[0] is None and len(out) > 1 and out[1] is not None:
                    raise RuntimeError(
                        f"lua filter {name!r} create() failed: {out[1]}")
                ctx = out[0] if out else None
            else:
                ctx = out

        def run(token: str):
            out = table["filter"](ctx, token)
            if isinstance(out, tuple):
                first = out[0] if out else None
                if first is None:
                    err = out[1] if len(out) > 1 else None
                    if err is not None:          # nil, err ⇒ ERROR
                        raise RuntimeError(
                            f"lua filter {name!r} failed: {err}")
                    return FilterAction.DISCARD, token
                out = first
            if out is None:
                return FilterAction.DISCARD, token
            return FilterAction.MUTATION, str(out)

        return run

    register_filter(name, factory)
    return name


def ensure_plugins(paths) -> None:
    """Idempotently load plugin files into this process's registry.

    Called from the canonicalization kernel's ``__init__`` (the
    per-worker analogue of the reference's per-nginx-worker filter
    init): every Ray worker process has its own registry, so
    config-listed plugin files must load wherever a pipeline is built
    — a no-op for names already present."""
    from nxsearch_ray.functions.filters import filter_registered

    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if filter_registered(name):
            continue
        if path.endswith(".lua"):
            load_lua_filter(path)
        else:
            load_python_filter(path)

