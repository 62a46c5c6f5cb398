"""The per-layer rollup: one request's time split across the layers.

The server's own spans (written by ``repro serve --trace-out``) nest as::

    service.gateway.request      handler thread: admission + service
      service.request            after admission
        jit                      cache lookup (no measured request compiles)
        vm                       engine run (translation included)

and the gateway records each compile frame's dispatch time (frame
decoded to reply built, on the event loop) in the
``gateway.request_seconds`` histogram.  The bench times each request at
the client.  Every row is a mean in milliseconds per request, and the
rows from ``wire_ms`` to ``vm_ms`` add up to ``client_ms``, the client's
mean round trip:

``wire_ms``       client round trip minus the gateway's dispatch time:
                  the client library, the socket both ways and the
                  gateway's frame read and write -- the part no server
                  timer covers, reported as the remainder;
``gateway_ms``    dispatch time outside the handler span: the event
                  loop and the hop to the handler thread;
``admission_ms``  handler span minus ``service.request``;
``service_ms``    ``service.request`` self time: request validation, the
                  offline stage (frontend, vectorizer, encoder) the first
                  time a kernel instance is seen, buffers and the result
                  check;
``cache_ms``      the ``jit`` spans: single-flight and the persistent
                  cache's read and unpickle;
``vm_ms``         the ``vm`` spans;

and ``translate_ms`` is the part of ``vm_ms`` spent translating the
kernel for the engine (``vm.translate_seconds``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "service.gateway.request"


def load_spans(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def rollup(spans: list[dict], metrics: dict, skip: int,
           client_s: list[float]) -> dict:
    """Mean per-layer times (ms) of the requests after the first ``skip``.

    ``skip`` is the number of compile requests served before the
    measured window (set-up warm-ups), which all finish before the first
    measured request starts, so they are the first ``skip`` root spans.
    ``client_s`` holds the client round trip of every measured request.
    """
    roots = sorted((s for s in spans if s["name"] == ROOT_SPAN),
                   key=lambda s: s["span_id"])
    measured = roots[skip:]
    if len(measured) != len(client_s):
        raise ValueError(
            f"{len(measured)} measured server spans for {len(client_s)} "
            f"client requests"
        )
    children = defaultdict(list)
    for s in spans:
        if s["parent_id"] is not None:
            children[s["parent_id"]].append(s)

    total = defaultdict(float)
    for root in measured:
        total["handler"] += root["dur_s"]
        for svc in children[root["span_id"]]:
            inner = children[svc["span_id"]]
            total["service.request"] += svc["dur_s"]
            total["service"] += svc["dur_s"] - sum(c["dur_s"] for c in inner)
            for c in inner:
                total[c["name"]] += c["dur_s"]

    n = len(measured)
    # The dispatch histogram covers every compile frame the gateway
    # served, warm-ups included; the event-loop share is taken over the
    # same set of requests so both sums describe the same work.
    dispatch = metrics["gateway.request_seconds"]
    all_handler = sum(s["dur_s"] for s in roots)
    gateway_s = (dispatch["sum"] - all_handler) / dispatch["count"]
    # Translation is timed per engine run over the server's life (the
    # warm-ups included), like the dispatch share above.
    translate = metrics.get("vm.translate_seconds", {"sum": 0.0, "count": 0})
    runs = metrics["vm.runs"]["value"]

    client = sum(client_s) / n
    handler = total["handler"] / n
    out = {
        "client_ms": client,
        "wire_ms": client - gateway_s - handler,
        "gateway_ms": gateway_s,
        "admission_ms": handler - total["service.request"] / n,
        "service_ms": total["service"] / n,
        "cache_ms": total["jit"] / n,
        "vm_ms": total["vm"] / n,
        "translate_ms": translate["sum"] / runs,
    }
    out = {k: v * 1e3 for k, v in out.items()}
    out["translations_per_run"] = translate["count"] / runs
    return out
