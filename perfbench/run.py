#!/usr/bin/env python3
"""Build agrid from source and run one workload of its end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first form prints a human-readable report and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1). It
exits 0 only when every output was checked correct. The second form runs
the benchmark's own tests. Everything it writes stays under the current
directory: the dune build in _build/ (dune's shared cache is disabled) and
sockets and daemon logs in a temporary directory under .perfbench_tmp/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BUILD = os.path.join("_build", "default")
AGRID = os.path.join(BUILD, "bin", "agrid.exe")
AGBENCH = os.path.join(BUILD, "perfbench", "agbench.exe")
SELFTEST = os.path.join(BUILD, "perfbench", "selftest.exe")
TMP_ROOT = ".perfbench_tmp"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for path in ("dune-project", os.path.join("bin", "agrid.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("%s not found: run from the root of an agrid source tree" % path)
    targets = [AGRID, AGBENCH, SELFTEST]
    cmd = ["dune", "build", "--root", ".", "--cache=disabled"] + [
        os.path.relpath(t, BUILD) for t in targets
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["paper-batch", "serve-paper", "serve-small"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")

    build()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        if a.self_test:
            cmd = [SELFTEST, "--agbench", AGBENCH, "--agrid", AGRID, "--tmp", tmp,
                   "--benchmark", "BENCHMARK.json"]
            limit = 600
        else:
            cmd = [AGBENCH, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                   "--trace", str(a.trace), "--agrid", AGRID, "--tmp", tmp, "--git", git_sha()]
            limit = 175
        # its own process group, so a timeout also stops the daemons it spawned
        child = subprocess.Popen(cmd, start_new_session=True)
        try:
            code = child.wait(timeout=limit)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            fail("stopped after %d s" % limit, 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
