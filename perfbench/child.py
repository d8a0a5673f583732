"""One benchmark child: run a single xxzchain CLI subcommand and record when
it got going and when each output line was written.

    python3 perfbench/child.py --src SRC --meta META [--trace 0|1] [--run-id ID]
        [--setup-only] -- <xxzchain cli arguments>

The CLI's stdout passes through unchanged; the timings (and, with
``--trace 1``, the spans) go to the JSON file META, written once at the end.
All times are ``time.monotonic()``-based, the clock the parent used when it
spawned this process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


class StampedWriter:
    """Text stream that forwards writes and stamps each completed line."""

    def __init__(self, inner):
        self.inner = inner
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        n = self.inner.write(text)
        if text.endswith("\n"):
            self.stamps.append(time.monotonic())
        return n

    def flush(self) -> None:
        self.inner.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--meta", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the config is parsed")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    meta: dict = {"exit": None}
    code = 5
    try:
        src = os.path.realpath(args.src)
        sys.path.insert(0, src)
        import xxzchain
        import xxzchain.cli as cli

        if not os.path.realpath(xxzchain.__file__).startswith(src + os.sep):
            meta["error"] = f"xxzchain imported from {xxzchain.__file__}, not {src}"
            return code
        meta["t_import"] = time.monotonic()
        if args.setup_only:
            cli._load_config(cli.build_parser().parse_args(cli_args).config)
            meta["t_config"] = time.monotonic()
            meta["exit"] = code = 0
            return code

        load_config = cli._load_config

        def stamped_load_config(path):
            config = load_config(path)
            meta["t_config"] = time.monotonic()
            return config

        cli._load_config = stamped_load_config
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(args.run_id)
            tracer.install()
        out = StampedWriter(sys.stdout)
        sys.stdout = out
        try:
            meta["t_main"] = time.monotonic()
            if tracer is None:
                code = cli.main(cli_args)
            else:
                code = tracer.call(tracing.ROOT, cli.main, cli_args)
            meta["t_end"] = time.monotonic()
        finally:
            sys.stdout = out.inner
            sys.stdout.flush()
            cli._load_config = load_config
            if tracer is not None:
                tracer.uninstall()
                meta["leftover_wrappers"] = tracer.leftover()
                meta["spans"] = tracer.records()
        meta["stamps"] = out.stamps
        meta["exit"] = code
        return code
    finally:
        with open(args.meta, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


if __name__ == "__main__":
    sys.exit(main())
