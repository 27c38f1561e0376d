"""CI smoke test for zero-downtime rollout: hot-reload one model mid-traffic.

Starts ``repro serve`` as a real subprocess with TWO catalog entries, keeps
concurrent clients hammering both models, then issues a ``reload`` control
line that rolls the *primary* entry to a different checkpoint while traffic
is in flight.  Hard gates:

- zero dropped or errored requests across the whole run,
- the untouched entry answers bit-identically before, during, and after
  the rollout of its neighbour,
- the rolled entry only ever answers with one of its two published
  versions' exact answers (old until the swap, new after — never garbage),
- the ``models`` control line reports the rolled entry at v2 and a bounded
  shard-index cache per entry.

Usage::

    PYTHONPATH=src python scripts/rollout_smoke.py \
        --checkpoint-a /tmp/a.npz --checkpoint-b /tmp/b.npz
"""

import argparse
import json
import signal
import socket
import subprocess
import sys
import threading


def _start_server(checkpoint_a: str, checkpoint_b: str, k: int):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--model", f"primary={checkpoint_a}",
            "--model", f"stable={checkpoint_b}",
            "--port", "0", "--k", str(k),
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


def _client(host, port, stop_event, results, index):
    """Alternate primary/stable requests until told to stop."""
    answers = []
    try:
        with socket.create_connection((host, port), timeout=30) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            turn = 0
            while not stop_event.is_set():
                model = ("primary", "stable")[turn % 2]
                connection.sendall(f"model={model} 0 3\n".encode("utf-8"))
                answers.append((model, reader.readline().strip()))
                turn += 1
    except OSError as error:
        results[index] = (answers, f"client {index} connection failed: {error}")
        return
    results[index] = (answers, None)


def _control(host, port, line):
    with socket.create_connection((host, port), timeout=30) as connection:
        connection.sendall((line + "\n").encode("utf-8"))
        return connection.makefile("r", encoding="utf-8").readline().strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint-a", required=True, help="primary's v1")
    parser.add_argument("--checkpoint-b", required=True, help="stable entry AND primary's v2")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()

    from repro.api import Pipeline

    expected = {}
    for label, path in (("a", args.checkpoint_a), ("b", args.checkpoint_b)):
        pipeline = Pipeline.load(path)
        expected[label] = " ".join(pipeline.decode_herbs(pipeline.recommend("0 3", k=args.k)))
        pipeline.close()
    if expected["a"] == expected["b"]:
        print("checkpoints answer identically; rollout would be unobservable")
        return 1

    process, host, port = _start_server(args.checkpoint_a, args.checkpoint_b, args.k)
    try:
        stop_event = threading.Event()
        results = [None] * args.clients
        threads = [
            threading.Thread(target=_client, args=(host, port, stop_event, results, i))
            for i in range(args.clients)
        ]
        for thread in threads:
            thread.start()

        # roll the primary entry to checkpoint B while traffic is in flight
        reload_answer = _control(host, port, f"reload primary {args.checkpoint_b}")
        if not reload_answer.startswith("ok: primary now v2"):
            print(f"reload failed: {reload_answer!r}")
            stop_event.set()
            return 1
        # let post-rollout traffic accumulate, then stop the clients
        threading.Event().wait(1.0)
        stop_event.set()
        for thread in threads:
            thread.join(60)

        total = failures = 0
        primary_answers = []
        for index, result in enumerate(results):
            if result is None:
                print(f"client {index} never finished")
                return 1
            answers, error = result
            if error is not None:
                print(error)
                return 1
            for model, answer in answers:
                total += 1
                if answer.startswith("error") or not answer:
                    failures += 1
                    print(f"FAILED REQUEST model={model}: {answer!r}")
                elif model == "stable" and answer != expected["b"]:
                    failures += 1
                    print(f"UNTOUCHED ENTRY DRIFTED: {answer!r} != {expected['b']!r}")
                elif model == "primary":
                    if answer not in (expected["a"], expected["b"]):
                        failures += 1
                        print(f"PRIMARY SERVED GARBAGE: {answer!r}")
                    primary_answers.append(answer)

        rolled = sum(1 for answer in primary_answers if answer == expected["b"])
        records = {r["name"]: r for r in json.loads(_control(host, port, "models"))}
        print(
            f"{total} in-flight responses checked, {failures} failures; "
            f"primary answered new version {rolled}/{len(primary_answers)} times"
        )
        if failures or total == 0:
            return 1
        if records["primary"]["version"] != 2 or records["stable"]["version"] != 1:
            print(f"catalog versions wrong after rollout: {records}")
            return 1
        if not primary_answers or primary_answers[-1] != expected["b"]:
            print("primary never served the rolled-out version")
            return 1
        for name, record in records.items():
            cached = record.get("cached_index_versions", 0)
            if cached > 2:
                print(f"{name} leaks shard indexes: {cached} cached versions")
                return 1
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(30)
        except subprocess.TimeoutExpired:
            process.kill()
            print("server did not shut down gracefully")
            return 1
    if process.returncode != 0:
        print(f"server exited with {process.returncode}")
        return 1
    print("rollout smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
