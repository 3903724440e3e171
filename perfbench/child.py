"""A fresh interpreter started by the benchmark.

    python3 perfbench/child.py setup [--trace] ENTRY...
        import ctlab, then self-check each corpus entry (its first access);
    python3 perfbench/child.py cli ARG...
        import ctlab.cli, then run ``ctlab.cli.main(ARG...)`` traced.

Traced children print one JSON object: the exit code, what the CLI wrote
to stdout, the import time and the spans.  ``src`` must be on PYTHONPATH.
"""

import sys
import time


def main(argv: list[str]) -> int:
    mode, argv = argv[0], argv[1:]
    trace = mode == "cli" or argv[:1] == ["--trace"]
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
    start = time.perf_counter()
    if mode == "setup":
        from ctlab import corpus
    else:
        import ctlab.cli
    import_s = time.perf_counter() - start
    if not trace:
        for name in argv:
            corpus.get(name)
        return 0

    import contextlib
    import io
    import json

    import spans

    rec = spans.Recorder()
    undo = spans.install(rec)
    out = io.StringIO()
    try:
        if mode == "setup":
            for name in argv:
                corpus.get(name)
            rc = 0
        else:
            with contextlib.redirect_stdout(out):
                rc = ctlab.cli.main(argv)
    finally:
        spans.uninstall(undo)
    json.dump({"rc": rc, "stdout": out.getvalue(), "import_s": import_s,
               "trace": rec.export()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
