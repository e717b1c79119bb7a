"""Worker-process entry: one shard of ``scaltool serve --workers N``.

``python -m repro.service.worker CONFIG PORT_FILE`` starts a full
:class:`~repro.service.http.ServiceServer` — the same single-process
service ``scaltool serve`` runs — from ``CONFIG``, its
:class:`~repro.service.core.ServiceConfig` as one JSON object (the
dispatcher sets ``cache_dir``, ``shard_index`` and ``shard_count``).  It
binds an ephemeral port, writes ``{"port", "pid", "shard"}`` to
``PORT_FILE`` (atomic write-then-rename) so the spawning dispatcher can
find it, and serves until SIGTERM — which drains in-flight jobs before
exiting.

Workers share the cache root: the run cache, the claim table, and the
job store are common; each worker *recovers* and
*executes* only the jobs the hash ring routes to its shard.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

from ..obs.logs import get_logger, kv
from .core import ServiceConfig
from .http import ServiceServer

__all__ = ["main"]

_log = get_logger("service.worker")


def _write_port_file(path: Path, port: int, shard: int) -> None:
    payload = json.dumps({"port": port, "pid": os.getpid(), "shard": shard})
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    with os.fdopen(fd, "w") as fh:
        fh.write(payload + "\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="scaltool service worker (one shard)")
    parser.add_argument("config", help="the shard's ServiceConfig as a JSON object")
    parser.add_argument("port_file", help="where to report the bound port")
    args = parser.parse_args(argv)
    config = ServiceConfig(**json.loads(args.config))

    server = ServiceServer(config)

    def _terminate(signum, frame):  # noqa: ARG001 - signal API
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    _write_port_file(Path(args.port_file), server.address[1], config.shard_index)
    _log.debug(
        "worker up %s",
        kv(shard=f"{config.shard_index}/{config.shard_count}", url=server.url, pid=os.getpid()),
    )
    server.serve_forever()  # drains on SystemExit via its finally: shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
