"""One repetition of a workload, in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC.json names the config file, the subcommands, the seed, the output
directory and the result file; with ``"trace": PATH`` the tracer is
installed and its spans are written to PATH.  Each subcommand goes
through the public entry point ``dtnlab.cli.run`` with its printed output
captured, exactly as ``dtnlab <command> --config ... --out ... --seed ...``
would run it.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    import dtnlab.cli

    tracer = None
    if spec.get("trace"):
        import tracer as tracing   # bench/ is sys.path[0] for this script

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    for command in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        argv = [command, "--config", spec["config"], "--out", spec["out_dir"],
                "--seed", str(spec["seed"])]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = dtnlab.cli.run(argv)
            except Exception:   # reported as a failed invocation
                traceback.print_exc()
                code = -1
        commands.append({"command": command, "exit": code,
                         "seconds": time.perf_counter() - start,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    if tracer is not None:
        tracer.dump(spec["trace"])
    with open(spec["result"], "w") as f:
        json.dump({"commands": commands,
                   "maxrss_kb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss}, f)


if __name__ == "__main__":
    main(sys.argv[1])
