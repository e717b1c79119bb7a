"""CLI service verbs + the byte-identity property.

The acceptance bar for the service: a job's stored output is
byte-identical to what the direct CLI command prints for the same
request.  The property test drives randomly drawn requests through both
paths — ``scaltool <cmd>`` inline vs submit-over-HTTP — and compares
the bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.http import ServiceServer

from .conftest import WARM_COUNTS, WARM_S0

WARM_ARGS = ["synthetic", "--s0", str(WARM_S0), "--counts", ",".join(map(str, WARM_COUNTS))]


@pytest.fixture(scope="module")
def server(warm_root):
    srv = ServiceServer(ServiceConfig(cache_dir=warm_root, workers=2), port=0).start()
    yield srv
    srv.shutdown(drain_timeout=30)


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"scaltool {' '.join(argv)} exited {rc}"
    return buf.getvalue()


class TestCliVerbs:
    def test_submit_wait_prints_job_output(self, server, warm_root, capsys):
        rc = main(["submit", "analyze", *WARM_ARGS, "--wait", "--url", server.url])
        captured = capsys.readouterr()
        assert rc == 0
        assert "job j" in captured.err
        direct = cli_stdout(["analyze", *WARM_ARGS, "--cache-dir", str(warm_root)])
        assert captured.out == direct

    def test_submit_prints_job_id_without_wait(self, server, capsys):
        rc = main(["submit", "analyze", *WARM_ARGS, "--url", server.url])
        captured = capsys.readouterr()
        assert rc == 0
        job_id = captured.out.strip()
        assert job_id.startswith("j") and len(job_id) == 17

    def test_status_prints_json(self, server, capsys):
        main(["submit", "analyze", *WARM_ARGS, "--url", server.url])
        job_id = capsys.readouterr().out.strip()
        assert main(["status", job_id, "--url", server.url]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["id"] == job_id
        assert status["kind"] == "analyze"

    def test_result_waits_and_prints(self, server, warm_root, capsys):
        main(["submit", "analyze", *WARM_ARGS, "--url", server.url])
        job_id = capsys.readouterr().out.strip()
        assert main(["result", job_id, "--wait", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert out == cli_stdout(["analyze", *WARM_ARGS, "--cache-dir", str(warm_root)])

    def test_result_of_unknown_job_is_error(self, server, capsys):
        assert main(["result", "j" + "e" * 16, "--url", server.url]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["analyze", *WARM_ARGS, "--markdown"], id="analyze"),
            pytest.param(["whatif", *WARM_ARGS, "--tm", "0.5", "--t2", "0.25"], id="whatif"),
            pytest.param(
                ["predict", "synthetic", "--s0", str(WARM_S0), "--counts", "1,2,4", "--to", "8,16"],
                id="predict",
            ),
            pytest.param(
                [
                    "sweep", "synthetic", "--size", "16384", "-n", "2",
                    "--workload-axis", "sharing_frac=0.0,0.1",
                    "--machine-axis", "protocol=mesi,msi", "--metric", "cycles",
                ],
                id="sweep",
            ),
            pytest.param(["blame", *WARM_ARGS, "--group", "work=work_*"], id="blame"),
            pytest.param(
                ["models", "predict", "synthetic", "--s0", str(WARM_S0), "--counts", "1,2,4,8",
                 "--to", "16,32"],
                id="models",
            ),
        ],
    )
    def test_submit_prints_what_the_verb_prints(self, server, warm_root, capsys, argv):
        # `submit KIND` takes the verb's own arguments: one field table
        # builds both, so both run the same request.
        rc = main(["submit", *argv, "--wait", "--url", server.url])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert captured.out == cli_stdout([*argv, "--cache-dir", str(warm_root)])

    def test_submit_bad_arg_rejected(self, server, capsys):
        # A flag the kind does not take is a usage error, not a dropped field.
        with pytest.raises(SystemExit) as exc_info:
            main(["submit", "whatif", "synthetic", "--to", "64", "--url", server.url])
        assert exc_info.value.code == 2
        assert "--to" in capsys.readouterr().err

    def test_unreachable_service_is_cli_error(self, capsys):
        rc = main(["status", "j" + "0" * 16, "--url", "http://127.0.0.1:9"])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err


#: Run in a fresh interpreter: what the CLI imports on its request path.
_FOOTPRINT = """
import contextlib, io, json, sys
from repro.cli import build_parser, main

def loaded(names):
    return sorted(m for m in names if m in sys.modules)

serving = ["asyncio", "sqlite3", "http.server", "repro.service.core"]
build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    main(["list"])
listed = loaded(serving)
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["whatif", *sys.argv[1:]])
print(json.dumps({"list": listed, "whatif": loaded(serving[:3]), "rc": rc}))
"""


def test_request_path_imports_no_serving_stack(warm_root):
    # `scaltool list` is the CLI's start-up time; a warm whatif runs a
    # request inline.  Neither needs the service's event loop, claim
    # table, HTTP server or job queue.
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *WARM_ARGS, "--tm", "0.5"]
        + ["--cache-dir", str(warm_root)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"list": [], "whatif": [], "rc": 0}


class TestBlameByteIdentity:
    def test_blame_json_serial_vs_parallel_is_byte_identical(self, warm_root):
        base = ["blame", *WARM_ARGS, "--cache-dir", str(warm_root), "--json"]
        serial = cli_stdout(base)
        parallel = cli_stdout(base + ["--jobs", "2"])
        assert serial == parallel


class TestByteIdentityProperty:
    """Service output == direct CLI output, for randomly drawn requests."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        t2=st.sampled_from([0.5, 1.0, 2.0]),
        tm=st.sampled_from([0.25, 1.0, 4.0]),
        tsyn=st.sampled_from([0.5, 1.0]),
    )
    def test_whatif_identical_over_http(self, server, warm_root, t2, tm, tsyn):
        with ServiceClient(server.url, timeout=30) as client:
            submitted = client.submit(
                "whatif",
                {
                    "workload": "synthetic",
                    "s0": WARM_S0,
                    "counts": list(WARM_COUNTS),
                    "t2": t2,
                    "tm": tm,
                    "tsyn": tsyn,
                },
            )
            view = client.wait(submitted["id"], timeout=120)
        assert view["state"] == "done", view.get("error")
        direct = cli_stdout(
            [
                "whatif",
                *WARM_ARGS,
                "--t2",
                str(t2),
                "--tm",
                str(tm),
                "--tsyn",
                str(tsyn),
                "--cache-dir",
                str(warm_root),
            ]
        )
        assert view["result"]["output"] == direct

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(markdown=st.booleans())
    def test_analyze_identical_over_http(self, server, warm_root, markdown):
        with ServiceClient(server.url, timeout=30) as client:
            submitted = client.submit(
                "analyze",
                {
                    "workload": "synthetic",
                    "s0": WARM_S0,
                    "counts": list(WARM_COUNTS),
                    "markdown": markdown,
                },
            )
            view = client.wait(submitted["id"], timeout=120)
        assert view["state"] == "done", view.get("error")
        argv = ["analyze", *WARM_ARGS, "--cache-dir", str(warm_root)]
        if markdown:
            argv.append("--markdown")
        assert view["result"]["output"] == cli_stdout(argv)
