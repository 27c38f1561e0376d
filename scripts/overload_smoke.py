"""CI smoke test for admission control: flood the TCP front-end past its
pending budget and hard-gate the overload contract.

Starts ``repro serve --port 0`` as a real subprocess with a small
``--max-pending``, then drives a single-threaded ``selectors`` client swarm
that floods it with far more pipelined requests than the budget admits.
Gates (any failure exits non-zero):

1. **No hangs** — every request line is answered: either a real
   recommendation or a fast ``error: overloaded``, never silence.
2. **Bit-identity under pressure** — every *accepted* answer equals the
   sequential ``Pipeline.recommend`` oracle computed in this process.
3. **Shedding is observable and survivable** — the flood actually shed
   (``stats`` reports non-zero reject counters), the server still answers
   fresh traffic afterwards, and SIGTERM still exits 0.

Usage::

    PYTHONPATH=src python scripts/overload_smoke.py --checkpoint /tmp/smgcn.npz
"""

import argparse
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time

OVERLOADED = "error: overloaded"


def _start_server(checkpoint: str, k: int, max_pending: int, client_quota: int):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--checkpoint", checkpoint,
            "--port", "0", "--k", str(k),
            "--max-pending", str(max_pending),
            "--client-quota", str(client_quota),
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    # watchdog: a server that hangs before printing anything would otherwise
    # block the readline loop forever (the CI step would stall, not fail)
    watchdog = threading.Timer(120, process.kill)
    watchdog.start()
    try:
        for line in process.stderr:
            if line.startswith("listening on "):
                address = line.split()[2]
                host, port = address.rsplit(":", 1)
                # keep draining stderr so the server never blocks on a full pipe
                threading.Thread(
                    target=lambda: [None for _ in process.stderr], daemon=True
                ).start()
                return process, host, int(port)
    finally:
        watchdog.cancel()
    process.kill()
    raise RuntimeError("server did not report a listening address")


def run_swarm(host, port, plans, deadline_s=90.0):
    """Drive every plan concurrently from one thread: each connection
    pipelines its whole request list at once, then collects one response
    line per request.  Returns (answers per connection, unfinished count)."""
    selector = selectors.DefaultSelector()
    answers = [None] * len(plans)
    deadline = time.monotonic() + deadline_s
    live = 0
    for index, plan in enumerate(plans):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.connect((host, port))
        sock.setblocking(False)
        state = {
            "index": index,
            "out": "".join(line + "\n" for line in plan).encode("utf-8"),
            "in": bytearray(),
            "lines": [],
            "want": len(plan),
        }
        selector.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE, state)
        live += 1
    while live and time.monotonic() < deadline:
        for key, mask in selector.select(timeout=1.0):
            sock, state = key.fileobj, key.data
            done = False
            if mask & selectors.EVENT_WRITE and state["out"]:
                try:
                    sent = sock.send(state["out"])
                    state["out"] = state["out"][sent:]
                except BlockingIOError:
                    pass
                except OSError:
                    done = True
                if not done and not state["out"]:
                    selector.modify(sock, selectors.EVENT_READ, state)
            if not done and mask & selectors.EVENT_READ:
                try:
                    chunk = sock.recv(65536)
                except BlockingIOError:
                    chunk = None
                except OSError:
                    chunk = b""
                if chunk:
                    state["in"] += chunk
                    while b"\n" in state["in"]:
                        line, _, rest = bytes(state["in"]).partition(b"\n")
                        state["in"] = bytearray(rest)
                        state["lines"].append(line.decode("utf-8").strip())
                    done = len(state["lines"]) >= state["want"]
                elif chunk == b"":
                    done = True  # EOF (e.g. refused at the connection cap)
            if done:
                answers[state["index"]] = state["lines"]
                selector.unregister(sock)
                sock.close()
                live -= 1
    for key in list(selector.get_map().values()):
        answers[key.data["index"]] = key.data["lines"]
        key.fileobj.close()
    selector.close()
    return answers, live


def _probe(host, port, line):
    with socket.create_connection((host, port), timeout=10) as connection:
        connection.sendall((line + "\n").encode("utf-8"))
        return connection.makefile("r", encoding="utf-8").readline().strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--connections", type=int, default=200)
    parser.add_argument("--requests", type=int, default=5, help="pipelined per connection")
    parser.add_argument("--max-pending", type=int, default=8)
    parser.add_argument("--client-quota", type=int, default=4)
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()

    from repro.api import Pipeline

    pipeline = Pipeline.load(args.checkpoint)
    queries = ["0 3", "1 2", "0 1 4", "2", "3 4"]
    oracle = {
        query: " ".join(pipeline.decode_herbs(pipeline.recommend(query, k=args.k)))
        for query in queries
    }

    process, host, port = _start_server(
        args.checkpoint, args.k, args.max_pending, args.client_quota
    )
    failures = []
    try:
        plans = [
            [queries[(conn + r) % len(queries)] for r in range(args.requests)]
            for conn in range(args.connections)
        ]
        started = time.monotonic()
        answers, hung = run_swarm(host, port, plans)
        elapsed = time.monotonic() - started

        # gate 1: nothing hangs — every connection either got all its answers
        # or was explicitly refused (one overloaded line, then EOF)
        if hung:
            failures.append(f"{hung} connections still unanswered at the deadline")

        served = shed = refused_connections = mismatches = 0
        for plan, lines in zip(plans, answers):
            lines = lines or []
            if len(lines) < len(plan) and lines == [OVERLOADED]:
                refused_connections += 1  # refused at the connection cap
                continue
            if len(lines) != len(plan):
                failures.append(
                    f"connection answered {len(lines)}/{len(plan)} lines: {lines[:3]!r}..."
                )
                continue
            for query, answer in zip(plan, lines):
                if answer == OVERLOADED:
                    shed += 1
                elif answer == oracle[query]:
                    served += 1  # gate 2: accepted answers match the oracle
                else:
                    mismatches += 1
                    failures.append(f"MISMATCH {query!r}: {answer!r}")
        total = args.connections * args.requests
        print(
            f"flood: {total} requests over {args.connections} connections in "
            f"{elapsed:.1f}s -> {served} served, {shed} shed, "
            f"{refused_connections} connections refused, {mismatches} mismatches"
        )
        if not served:
            failures.append("nothing was served — the flood found no capacity at all")
        if not shed and not refused_connections:
            failures.append(
                "nothing was shed: the flood did not exceed the pending budget "
                "(raise --connections or lower --max-pending)"
            )

        # gate 3a: the server survived the flood and still answers
        after = _probe(host, port, queries[0])
        if after != oracle[queries[0]]:
            failures.append(f"post-flood answer wrong: {after!r}")
        # gate 3b: the shed counters are visible on the stats line
        stats_line = _probe(host, port, "stats")
        print(f"server stats: {stats_line}")
        counters = dict(
            part.split("=", 1) for part in stats_line.split() if "=" in part
        )
        shed_reported = int(float(counters.get("rejected_overload", 0))) + int(
            float(counters.get("rejected_quota", 0))
        )
        if (shed or refused_connections) and shed_reported == 0:
            failures.append("requests were shed but stats reports zero rejections")
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(30)
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append("server did not shut down gracefully")
    if process.returncode != 0:
        failures.append(f"server exited with {process.returncode}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("overload smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
