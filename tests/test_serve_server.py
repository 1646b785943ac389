"""Tests for the JSON-lines socket server and blocking client."""

import asyncio
import json
import logging
import socket

import numpy as np

from repro.serve import ServeClient, ServiceConfig, SimulationServer, SimulationService

MODEL = {
    "n_samples": 120,
    "n_features": 16,
    "n_classes": 4,
    "hidden": [8],
    "epochs": 4,
    "wire_resistance": 1.0,
}


def with_server(client_fn, config=None):
    """Start a server on an ephemeral port, run ``client_fn(host, port)``
    in a worker thread, and return its result."""

    async def main():
        server = SimulationServer(
            SimulationService(config), host="127.0.0.1", port=0
        )
        host, port = await server.start()
        try:
            return await asyncio.to_thread(client_fn, host, port)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestClientRoundTrip:
    def test_infer_round_trip(self):
        def work(host, port):
            with ServeClient(host=host, port=port) as client:
                return client.request(
                    "infer", {"model": MODEL, "x": [[0.25] * 16]}
                )

        response = with_server(work)
        assert response["ok"] is True
        assert response["kind"] == "infer"
        assert response["id"] == 1
        assert len(response["result"]["logits"][0]) == 4
        assert response["report"]["totals"]["energy"] > 0

    def test_sweep_warm_hit_is_bit_identical_over_the_wire(self):
        sweep = {"yields": [1.0, 0.8], "trials": 1, "epochs": 4, "n_samples": 120}

        def work(host, port):
            with ServeClient(host=host, port=port) as client:
                cold = client.request("sweep", sweep)
                warm = client.request("sweep", sweep)
                return cold, warm

        cold, warm = with_server(work)
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        assert cold["report"] == warm["report"]

    def test_request_ids_echo_back(self):
        def work(host, port):
            with ServeClient(host=host, port=port) as client:
                a = client.request("stats")
                b = client.request("stats")
                return a["id"], b["id"]

        assert with_server(work) == (1, 2)


class TestProtocolErrors:
    def test_unknown_kind_is_structured(self):
        def work(host, port):
            with ServeClient(host=host, port=port) as client:
                return client.request("bogus")

        response = with_server(work)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert "bogus" in response["error"]["message"]

    def test_internal_error_logs_its_traceback(self, monkeypatch, caplog):
        async def broken(self, params):
            raise RuntimeError("stats backend exploded")

        monkeypatch.setattr(SimulationService, "_handle_stats", broken)

        def work(host, port):
            with ServeClient(host=host, port=port) as client:
                return client.request("bogus"), client.request("stats")

        with caplog.at_level(logging.ERROR, logger="repro.serve.server"):
            bad, broken = with_server(work)
        assert bad["error"]["code"] == "bad_request"
        assert broken["error"]["code"] == "internal"
        # Only the internal error is logged, with its traceback.
        (record,) = caplog.records
        assert record.exc_info[0] is RuntimeError
        assert "stats backend exploded" in caplog.text

    def test_invalid_json_line_is_structured(self):
        def work(host, port):
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"this is not json\n")
                fh.flush()
                return json.loads(fh.readline())

        response = with_server(work)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert "invalid JSON" in response["error"]["message"]

    def test_queue_full_travels_as_structured_error(self):
        config = ServiceConfig(
            max_inflight=1, batch_window_s=60.0, max_batch=100
        )

        def work(host, port):
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                # First request parks in the batcher (window 60 s) and
                # holds the only in-flight slot; the second is rejected.
                for rid in (1, 2):
                    fh.write(
                        (
                            json.dumps(
                                {
                                    "id": rid,
                                    "kind": "infer",
                                    "params": {
                                        "model": MODEL,
                                        "x": [[0.5] * 16],
                                    },
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                    fh.flush()
                rejection = json.loads(fh.readline())
                return rejection

        rejection = with_server(work, config=config)
        assert rejection["ok"] is False
        assert rejection["error"]["code"] == "queue_full"
        assert rejection["error"]["limit"] == 1
        assert rejection["id"] == 2  # the rejected request, out of order

    def test_blank_lines_are_ignored(self):
        def work(host, port):
            with socket.create_connection((host, port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"\n\n")
                fh.write(
                    (json.dumps({"id": 5, "kind": "stats"}) + "\n").encode()
                )
                fh.flush()
                return json.loads(fh.readline())

        response = with_server(work)
        assert response["ok"] is True
        assert response["id"] == 5


class TestConcurrentConnections:
    def test_two_connections_coalesce_into_one_flush(self):
        """Requests from different sockets land in the same batcher
        group — the whole point of serving from one process."""
        # Generous window: both client threads must land inside it even
        # on a slow single-core CI runner.
        config = ServiceConfig(batch_window_s=0.5, max_batch=8)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, size=(2, 16))

        async def main():
            service = SimulationService(config)
            server = SimulationServer(service, host="127.0.0.1", port=0)
            host, port = await server.start()

            def one_client(x):
                with ServeClient(host=host, port=port) as client:
                    return client.request(
                        "infer", {"model": MODEL, "x": [x.tolist()]}
                    )

            try:
                results = await asyncio.gather(
                    asyncio.to_thread(one_client, xs[0]),
                    asyncio.to_thread(one_client, xs[1]),
                )
            finally:
                await server.stop()
            return service, results

        service, results = asyncio.run(main())
        assert all(r["ok"] for r in results)
        assert service.batcher.stats.requests == 2
        assert service.batcher.stats.coalesced_flushes == 1
