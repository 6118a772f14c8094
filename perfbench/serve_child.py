"""The benchmark's server launcher: a :class:`repro.server.ReproServer` with
its default configuration on the company database, in its own process.

It prints ``{"port": N}`` once it listens, serves until its standard input
reaches end of file, then closes the server and prints
``{"peak_rss_mb": X}``.  With ``--trace 1`` it first wraps the callables
the server invokes with span recorders (plan-cache compile, query
execute, the result and message encoders, and the worker-thread request
bodies) and writes the spans to ``--spans`` on exit.  The program's own
code is not modified; the wrapping lives only in this process.

Usage: ``python3 perfbench/serve_child.py --seed 1998 --trace 0``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any

import common


def install_spans(tracer: common.Tracer) -> None:
    from repro.core.pipeline import CompiledQuery, QueryPipeline
    from repro.server import server as server_module
    from repro.server.session import Session

    # Worker-thread spans carry the client's request id, found through the
    # cancellation token the session registers for each request.
    token_requests: dict[int, Any] = {}
    register = Session.register

    def remembering_register(self: Session, request_id: Any) -> Any:
        token = register(self, request_id)
        token_requests[id(token)] = request_id
        return token

    Session.register = remembering_register

    def request_of_token(*args: Any, **kwargs: Any) -> Any:
        return token_requests.get(id(args[-1]))

    server_cls = server_module.ReproServer
    for body in ("_execute_source", "_execute_prepared"):
        if hasattr(server_cls, body):
            setattr(
                server_cls,
                body,
                tracer.wrap("server.worker", getattr(server_cls, body),
                            request_of_token),
            )
    QueryPipeline.compile_oql_cached = tracer.wrap(
        "core.compile", QueryPipeline.compile_oql_cached
    )
    CompiledQuery.execute = tracer.wrap("engine.execute", CompiledQuery.execute)
    server_module.encode_result = tracer.wrap(
        "server.encode_result", server_module.encode_result
    )
    server_module.encode_message = tracer.wrap(
        "server.encode_message",
        server_module.encode_message,
        lambda message: message.get("id"),
    )


async def serve(database: Any) -> None:
    from repro.server import ReproServer, ServerConfig

    server = ReproServer(ServerConfig(database=database))
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    try:
        # End of file on stdin is the stop signal (also when the parent dies).
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await server.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    common.import_program()
    tracer = common.Tracer() if args.trace else None
    if tracer is not None:
        install_spans(tracer)
    asyncio.run(serve(common.serve_database(args.seed)))
    if tracer is not None and args.spans is not None:
        tracer.dump(args.spans)
    print(json.dumps({"peak_rss_mb": common.peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
