#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload hybrid_internet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Everything the build and the run write stays under .bench_build/ at the
root of the checkout: the Go build cache, temporary build directories,
the benchmark binary, deployment logs, trace spans and the result log
(.bench_build/perfbench/results.jsonl). The last line the benchmark
prints on standard output is its JSON result. Exits non-zero, without a
result, when the build fails (for example outside a full checkout).
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        # The go command keeps its env file and telemetry under the user
        # config directory; point it inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    for key in ("GOCACHE", "GOMODCACHE", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    exe = os.path.join(build, "bin", "perfbench")
    # Build output goes to stderr: stdout's last line is the result.
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    os.chdir(root)
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
