"""Service smoke: ``serve --workers N`` must byte-match the direct CLI path.

``python benchmarks/smoke_multiworker.py --workers N`` starts what
``scaltool serve --workers N`` starts, the library way — the
single-process :class:`ServiceServer` at N = 1, a :class:`Dispatcher`
with N worker processes at N >= 2 — drives ~20 mixed jobs (analyze /
campaign / blame / a fan of what-ifs over one shared campaign) through
concurrent clients, and then:

* asserts every job finished and its ``output`` is **byte-identical**
  to the same request executed directly (the CLI code path) against a
  separate cache root;
* asserts the merged ``/v1/stats`` saw every job and no failures;
* exports the ``/metrics`` exposition, the topology (``/v1/workers``,
  or the single process's ``/healthz`` shard view), and one job's
  distributed trace into ``--export-dir`` (the CI artifact).

Exit status 0 on success, 1 on any mismatch — CI gates on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BASE_PAYLOAD = {"workload": "synthetic", "s0": 163840, "counts": [1, 2]}


def job_mix(count: int) -> list[tuple[str, dict]]:
    """~``count`` mixed jobs over one shared campaign."""
    mix = [
        ("analyze", dict(BASE_PAYLOAD)),
        ("campaign", dict(BASE_PAYLOAD)),
        ("blame", dict(BASE_PAYLOAD)),
    ]
    for i in range(max(0, count - len(mix))):
        mix.append(("whatif", {**BASE_PAYLOAD, "tm": round(1.0 + 0.05 * i, 4)}))
    return mix


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--export-dir", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    from repro.service import requests as req_mod
    from repro.service.client import ServiceClient
    from repro.service.core import ServiceConfig
    from repro.service.dispatcher import Dispatcher
    from repro.service.http import ServiceServer

    mix = job_mix(args.jobs)
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="scaltool-smoke-") as tmp:
        root = Path(tmp)
        # The reference: the same requests through the direct (CLI) code
        # path against an independent cache root.  The compiled request's
        # fingerprint IS the job id the service will assign.
        direct: dict[str, str] = {}
        for kind, payload in mix:
            request = req_mod.compile_request(kind, payload)
            direct[request.fingerprint()] = request.execute(
                cache_root=root / "direct"
            ).output

        config = ServiceConfig(cache_dir=root / "fleet", workers=2)
        if args.workers >= 2:
            server = Dispatcher(config, worker_count=args.workers, port=0).start()
        else:
            server = ServiceServer(config, port=0).start()
        client = ServiceClient(server.url, timeout=60)
        try:
            def one(job: tuple[str, dict]) -> tuple[str, str, str]:
                kind, payload = job
                submitted = client.submit(kind, payload, retries=20)
                view = client.wait(submitted["id"], timeout=300)
                if view["state"] != "done":
                    raise RuntimeError(f"{kind} failed: {view.get('error')}")
                return submitted["id"], kind, view["result"]["output"]

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(one, mix))

            for job_id, kind, output in results:
                if direct[job_id] != output:
                    failures.append(f"{kind} {job_id}: service output != CLI output")

            stats = client.stats()
            if stats["jobs"]["failed"]:
                failures.append(f"service reported {stats['jobs']['failed']} failed jobs")
            if stats["jobs"]["done"] < len(mix):
                failures.append(
                    f"service reported {stats['jobs']['done']} done jobs, "
                    f"expected >= {len(mix)}"
                )

            if args.export_dir is not None:
                export = Path(args.export_dir)
                export.mkdir(parents=True, exist_ok=True)
                (export / "metrics_multiworker.prom").write_text(client.metrics())
                topology = client.workers() if args.workers >= 2 else client.health()["shard"]
                (export / "workers.json").write_text(
                    json.dumps(topology, indent=2, sort_keys=True) + "\n"
                )
                traced = [j for j in client.jobs() if j.get("trace_id")]
                if traced:
                    (export / "job_trace_multiworker.json").write_text(
                        json.dumps(
                            client.trace(traced[-1]["id"]), indent=2, sort_keys=True
                        )
                        + "\n"
                    )
        finally:
            client.close()
            server.shutdown()

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(
        f"service smoke ok: {len(mix)} jobs through serve --workers {args.workers}, "
        f"all byte-identical to the CLI path"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
