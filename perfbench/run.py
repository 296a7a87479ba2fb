#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tenants-cam --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary go under the build
directory ($CARGO_TARGET_DIR, default .bench_build), so a run reads and
writes nothing outside the checkout. Every argument is passed through
to the benchmark binary; its exit code is this script's exit code.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    for d in ("go-cache", "tmp", "gopath"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + b.stdout)
        return 2
    args = sys.argv[1:]
    if not any(a == "--spans" or a.startswith("--spans=") for a in args):
        args += ["--spans", os.path.join(build, "spans")]
    proc = subprocess.Popen([binary] + args, cwd=root, env=env)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
