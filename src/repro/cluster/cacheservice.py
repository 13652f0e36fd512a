"""The shared L2 cache service: one tiny process, one bounded store.

The cluster tier's workers each own a private L1
:class:`~repro.runtime.cache.QueryCache`; this module supplies the
*shared* tier behind :class:`~repro.runtime.cache.TieredQueryCache` --
a dedicated lightweight process holding one bounded LRU of
``image digest -> score vector``, spoken to over loopback HTTP.  Two
replicas that score the same image stop paying the forward pass twice:
the first writes the scores through, the second's batched L2 lookup
finds them.

Why a separate process and not router-side state: the router is a
control plane (routing, supervision, ledger) and deliberately holds no
query-path state, so it can crash and resume from the ledger alone; and
workers talk to the cache directly, keeping the router out of the hot
path.  The service is supervised exactly like a worker slot -- spawned
first, health-checked, restarted with backoff -- and its loss is never
an error: clients degrade to private-L1 behaviour (attack results are
bit-identical either way; the shared tier only saves forward passes).

Protocol (JSON over HTTP, digests as hex, scores via
:func:`~repro.runtime.cache.encode_scores` -- bit-exact)::

    POST /cache/lookup {"keys": [hex, ...]}    -> {"hits": {hex: scores}}
    POST /cache/store  {"entries": {hex: scores}} -> {"stored": n}
    GET  /healthz                              -> {"status": "ok"}
    GET  /metrics                              -> store + traffic stats

Both data endpoints are batched: one round trip serves a whole
evaluation's misses (lookup) or a whole model batch (store).  The
routes run on the shared front end (:mod:`repro.runtime.http`), so
bodies over its ``MAX_BODY_BYTES`` cap get 413 like every other service.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.runtime.cache import (
    QueryCache,
    decode_scores,
    encode_scores,
    normalized_cache_size,
)
from repro.runtime.http import FrontEndHandle, http_json, serve_until_signalled

DEFAULT_CACHE_PORT = 8890
DEFAULT_SHARED_SIZE = 65536


def parse_cache_address(value: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` -> ``(host, port)``; raises ``ValueError`` on junk."""
    host, separator, port = value.rpartition(":")
    if not separator or not host:
        raise ValueError(f"shared cache address must be HOST:PORT, got {value!r}")
    return host, int(port)


class SharedCacheService:
    """The store plus its HTTP routes, embeddable or standalone.

    Reuses :class:`~repro.runtime.cache.QueryCache` as the bounded LRU
    (same eviction, same thread safety, same stats shape), and counts
    the service-level traffic -- lookups, stores, hit/miss totals across
    all clients -- that the cluster ``/metrics`` rollup reports as the
    shared tier's view of itself.
    """

    def __init__(self, maxsize: int = DEFAULT_SHARED_SIZE):
        size = normalized_cache_size(maxsize)
        if size is None:
            raise ValueError("shared cache service needs a positive size")
        self.store = QueryCache(size)
        self._lock = threading.Lock()
        self.lookups = 0  # lookup round trips served
        self.stores = 0  # store round trips served

    def lookup(self, keys: Iterable[str]) -> Dict[str, Dict]:
        hits: Dict[str, Dict] = {}
        for hexkey in keys:
            scores = self.store.get(bytes.fromhex(hexkey))
            if scores is not None:
                hits[hexkey] = encode_scores(scores)
        with self._lock:
            self.lookups += 1
        return hits

    def put(self, entries: Mapping[str, Mapping]) -> int:
        for hexkey, payload in entries.items():
            self.store.put(bytes.fromhex(hexkey), decode_scores(payload))
        with self._lock:
            self.stores += 1
        return len(entries)

    def stats(self) -> Dict:
        snapshot = self.store.stats()
        with self._lock:
            snapshot["lookups"] = self.lookups
            snapshot["store_calls"] = self.stores
        return snapshot

    def route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict]:
        """The service's HTTP surface, for the shared front end.

        Runs inline on the event loop: every operation is a bounded
        in-memory LRU access.
        """
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok", "role": "shared-cache"}
        if method == "GET" and path == "/metrics":
            return 200, {"shared_cache": self.stats()}
        if method == "POST" and path in ("/cache/lookup", "/cache/store"):
            try:
                request = json.loads(body) if body else {}
                if path == "/cache/lookup":
                    return 200, {"hits": self.lookup(request.get("keys", []))}
                return 200, {"stored": self.put(request.get("entries", {}))}
            except (ValueError, KeyError, TypeError) as error:
                return 400, {"error": str(error)}
        return 404, {"error": f"unknown path {path}"}


class CacheServiceHandle(FrontEndHandle):
    """An in-process shared cache for tests: real HTTP, no subprocess.

    Serving from construction on; :meth:`close` stops it.
    """

    def __init__(self, maxsize: int = DEFAULT_SHARED_SIZE, host: str = "127.0.0.1"):
        self.service = SharedCacheService(maxsize)
        super().__init__(self.service.route, host, 0, name="shared-cache")
        self.start()

    def client(self) -> "HttpSharedCacheClient":
        return HttpSharedCacheClient(self.address)

    def close(self) -> None:
        self.stop()


class HttpSharedCacheClient:
    """The worker-side L2 client :class:`TieredQueryCache` plugs in.

    Both operations are one HTTP round trip and raise :class:`OSError`
    on transport failure (``urllib``'s ``URLError`` is an ``OSError``
    subclass), which is exactly the signal the tiered cache's degraded
    mode consumes.
    """

    def __init__(self, address: Tuple[str, int], timeout: float = 5.0):
        self.address = address
        self.timeout = timeout

    def lookup(self, keys: List[bytes]) -> Dict[bytes, np.ndarray]:
        status, payload = http_json(
            self.address,
            "POST",
            "/cache/lookup",
            body=json.dumps({"keys": [key.hex() for key in keys]}).encode("utf-8"),
            timeout=self.timeout,
        )
        if status != 200:
            return {}
        return {
            bytes.fromhex(hexkey): decode_scores(encoded)
            for hexkey, encoded in payload.get("hits", {}).items()
        }

    def store(self, entries: Mapping[bytes, np.ndarray]) -> None:
        body = json.dumps(
            {
                "entries": {
                    key.hex(): encode_scores(scores)
                    for key, scores in entries.items()
                }
            }
        ).encode("utf-8")
        http_json(
            self.address, "POST", "/cache/store", body=body, timeout=self.timeout
        )


def cacheservice_argv(port: int, size: int = DEFAULT_SHARED_SIZE) -> List[str]:
    """The command line for one supervised cache-service child."""
    return [
        sys.executable,
        "-m",
        "repro.cluster.cacheservice",
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
        "--size",
        str(size),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cacheservice",
        description="Shared L2 query-cache service for the cluster tier.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_CACHE_PORT)
    parser.add_argument(
        "--size",
        type=int,
        default=DEFAULT_SHARED_SIZE,
        help="bounded LRU capacity (entries)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    service = SharedCacheService(args.size)
    # SIGTERM/SIGINT stop it gracefully: the store is a cache, so there
    # is nothing to persist -- exit 0 and let clients fall back to L1.
    asyncio.run(serve_until_signalled(service.route, args.host, args.port))
    return 0


if __name__ == "__main__":
    sys.exit(main())
