"""Loads the per-layer wrappers into a traced program process.

Python imports ``sitecustomize`` at start-up from the first directory on
its path that holds one.  The benchmark puts this directory on
``PYTHONPATH`` only for its traced run, so untraced runs carry no
wrappers; the dispatcher passes the variable on to its workers, so they
are traced too.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_hook

    perfbench_hook.install(os.environ["PERFBENCH_TRACE_DIR"])
