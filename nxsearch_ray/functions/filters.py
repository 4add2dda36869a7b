"""Token filter protocol, registry and pipeline.

Mirrors the reference's filter framework:
  * registry with name→ops lookup     (reference src/core/filters.c:93-120)
  * pipeline built from the ordered ``filters`` param list
    (reference src/core/filters.c:125-178)
  * driver semantics: run filters in order; an empty buffer after any
    filter ⇒ DISCARD; any non-MUTATION action short-circuits
    (reference src/core/filters.c:199-219)
  * lifecycle: ``sysinit`` (process-wide), ``create`` (per pipeline, gets
    params), ``filter`` (per token) — reference src/core/filters.h:22-45.

In Ray terms the pipeline is built once per worker in ``__init__`` of
the canonicalization kernel (SURVEY.md §2.3 ST1-ST3); ``run`` is the hot
inner loop.  User extension (the reference's Lua filters,
docs/lua-filters-api.md:19-80) maps to registering plain Python callables
via ``register_filter``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Protocol

from nxsearch_ray.functions.stemmer import get_stemmer
from nxsearch_ray.functions.stopwords import get_stopwords
from nxsearch_ray.functions.unicode import normalize_token


class FilterAction(Enum):
    MUTATION = 0
    DISCARD = 1
    ERROR = 2


_MUTATION = FilterAction.MUTATION


class TokenFilter(Protocol):
    """Per-pipeline filter instance: ``__call__(token) -> (action, value)``."""

    def __call__(self, token: str) -> tuple[FilterAction, str]: ...


# name -> factory(params: dict) -> TokenFilter
_REGISTRY: dict[str, Callable[[dict], TokenFilter]] = {}


def register_filter(name: str, factory: Callable[[dict], TokenFilter]) -> None:
    """Like nxs_filter_register (reference src/core/filters.c:93-120)."""
    if name in _REGISTRY:
        raise ValueError(f"filter {name!r} already registered")
    _REGISTRY[name] = factory


def filter_registered(name: str) -> bool:
    return name in _REGISTRY


def _normalizer_factory(params: dict) -> TokenFilter:
    # normalizer_filter: NFKC_Casefold then diacritics substitution
    # (reference src/core/filters_builtin.c:53-76).
    def filt(token: str) -> tuple[FilterAction, str]:
        return FilterAction.MUTATION, normalize_token(token)

    return filt


def _stopwords_factory(params: dict) -> TokenFilter:
    sw = get_stopwords(params.get("lang", "en"))
    if sw is None:
        # No dictionary for this language: pass-through, like DUMMY_PTR
        # (reference src/core/filters_builtin.c:167-192).
        def filt(token: str) -> tuple[FilterAction, str]:
            return FilterAction.MUTATION, token
    else:
        def filt(token: str) -> tuple[FilterAction, str]:
            if token in sw:
                return FilterAction.DISCARD, token
            return FilterAction.MUTATION, token

    return filt


def _stemmer_factory(params: dict) -> TokenFilter:
    stemmer = get_stemmer(params.get("lang", "en"))
    if stemmer is None:
        def filt(token: str) -> tuple[FilterAction, str]:
            return FilterAction.MUTATION, token
    else:
        def filt(token: str) -> tuple[FilterAction, str]:
            return FilterAction.MUTATION, stemmer.stem(token)

    return filt


register_filter("normalizer", _normalizer_factory)
register_filter("stopwords", _stopwords_factory)
register_filter("stemmer", _stemmer_factory)


class FilterPipeline:
    """Ordered filter chain (reference filter_pipeline_create,
    src/core/filters.c:125-178)."""

    def __init__(self, names: tuple[str, ...] | list[str], params: dict):
        self.names = tuple(names)
        self.filters: list[TokenFilter] = []
        for name in self.names:
            if name not in _REGISTRY:
                raise KeyError(f"filter {name!r} not found")
            self.filters.append(_REGISTRY[name](params))

    def run(self, token: str) -> str | None:
        """filter_pipeline_run semantics (reference src/core/filters.c:199-219):
        returns the mutated token, or None on DISCARD / ERROR / emptied
        buffer."""
        for filt in self.filters:
            action, token = filt(token)
            # an empty buffer ⇒ DISCARD (filters.c:208-210)
            if not token or action is not _MUTATION:
                return None
        return token


def build_pipeline(filters: tuple[str, ...], lang: str) -> FilterPipeline:
    return FilterPipeline(filters, {"lang": lang})
