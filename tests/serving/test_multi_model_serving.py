"""Multi-model serving tests: routing, JSON protocol, control lines, canary.

These drive the serving stack the way a multi-tenant deployment does: a
:class:`~repro.io.catalog.ModelCatalog` with two SMGCN builds (different
seeds, so distinguishable answers), requests routed per line, rollouts
issued over the wire mid-connection — always asserting the untouched entry
answers bit-identically throughout.
"""

import json
import socket

import pytest

from repro.api import Pipeline
from repro.experiments.datasets import get_profile
from repro.io import ModelCatalog
from repro.serving import (
    AsyncSocketServer,
    CatalogControl,
    MicroBatcher,
    RecommendationHandler,
    ServerStats,
)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serving-ckpts")
    config = get_profile("smoke").trainer_config(epochs=1)
    paths = {}
    for name, seed in (("a", 0), ("b", 7)):
        pipeline = Pipeline("SMGCN", scale="smoke", seed=seed, trainer_config=config).fit()
        paths[name] = directory / f"smgcn-{name}.npz"
        pipeline.save(paths[name])
        pipeline.close()
    return paths


@pytest.fixture(scope="module")
def baselines(checkpoints):
    """Sequential single-model answers, the bit-identity reference."""
    answers = {}
    for name, path in checkpoints.items():
        pipeline = Pipeline.load(path)
        answers[name] = {
            query: " ".join(pipeline.decode_herbs(pipeline.recommend(query, k=5)))
            for query in ("0 3", "1 2", "2 4")
        }
        pipeline.close()
    return answers


@pytest.fixture()
def catalog(checkpoints):
    catalog = ModelCatalog()
    catalog.add("alpha", Pipeline.load(checkpoints["a"]), checkpoint_path=checkpoints["a"])
    catalog.add("beta", Pipeline.load(checkpoints["b"]), checkpoint_path=checkpoints["b"])
    yield catalog
    catalog.close()


class TestModelRouting:
    def test_model_prefix_routes_and_default_is_first_entry(self, catalog, baselines):
        handler = RecommendationHandler(catalog, k=5)
        responses = handler(["model=alpha 0 3", "model=beta 0 3", "0 3"])
        assert responses[0] == baselines["a"]["0 3"]
        assert responses[1] == baselines["b"]["0 3"]
        assert responses[2] == baselines["a"]["0 3"]  # unrouted -> default
        assert responses[0] != responses[1], "seeds must produce distinguishable answers"

    def test_prefixes_compose_in_either_order(self, catalog, baselines):
        handler = RecommendationHandler(catalog, k=10)
        first, second = handler(["model=beta k=5 0 3", "k=5 model=beta 0 3"])
        assert first == second == baselines["b"]["0 3"]

    def test_unknown_model_is_an_error_line_naming_the_fleet(self, catalog):
        handler = RecommendationHandler(catalog, k=5)
        response = handler(["model=gamma 0 3"])[0]
        assert response.startswith("error: unknown model 'gamma'")
        assert "alpha" in response and "beta" in response

    def test_one_entrys_poison_cannot_fail_anothers_requests(
        self, catalog, baselines, monkeypatch
    ):
        handler = RecommendationHandler(catalog, k=5)
        beta = catalog.entry("beta").pipeline

        def explode(*args, **kwargs):
            raise RuntimeError("beta scoring exploded")

        monkeypatch.setattr(beta, "recommend_many", explode)
        monkeypatch.setattr(beta, "recommend", explode)
        responses = handler(["model=alpha 0 3", "model=beta 0 3"])
        assert responses[0] == baselines["a"]["0 3"]
        assert responses[1] == "error: beta scoring exploded"

    def test_per_model_stats_breakdown(self, catalog):
        stats = ServerStats()
        handler = RecommendationHandler(catalog, k=5, stats=stats)
        handler(["model=alpha 0 3", "model=beta 0 3", "model=beta bogus", "0 3"])
        assert stats.per_model() == {
            "alpha": {"requests": 2, "errors": 0},
            "beta": {"requests": 2, "errors": 1},
        }
        line = stats.to_line()
        assert "models=alpha:2/0,beta:2/1" in line


class TestJsonProtocol:
    def test_json_request_answers_with_structured_response(self, catalog, baselines):
        handler = RecommendationHandler(catalog, k=10)
        line = json.dumps({"symptoms": [0, 3], "k": 5, "model": "beta"})
        payload = json.loads(handler([line])[0])
        assert payload["model"] == "beta"
        assert " ".join(payload["herbs"]) == baselines["b"]["0 3"]
        assert len(payload["scores"]) == 5
        assert payload["scores"] == sorted(payload["scores"], reverse=True)

    def test_json_symptoms_accepts_token_string(self, catalog, baselines):
        handler = RecommendationHandler(catalog, k=5)
        payload = json.loads(handler([json.dumps({"symptoms": "0 3"})])[0])
        assert payload["model"] == "alpha"
        assert " ".join(payload["herbs"]) == baselines["a"]["0 3"]

    def test_json_errors_stay_json(self, catalog):
        handler = RecommendationHandler(catalog, k=5)
        bad_lines = [
            "{not json",
            json.dumps({"symptoms": "0 3", "bogus": 1}),
            json.dumps({"k": 5}),
            json.dumps({"symptoms": "0 3", "k": 0}),
            json.dumps({"symptoms": "0 3", "model": "gamma"}),
        ]
        for response in handler(bad_lines):
            assert "error" in json.loads(response)

    def test_json_and_text_mix_in_one_batch(self, catalog, baselines):
        handler = RecommendationHandler(catalog, k=5)
        responses = handler(["0 3", json.dumps({"symptoms": "0 3", "model": "beta"})])
        assert responses[0] == baselines["a"]["0 3"]
        assert json.loads(responses[1])["model"] == "beta"


class TestCatalogControl:
    def test_models_line_is_machine_readable(self, catalog):
        control = CatalogControl(catalog)
        for name in catalog.names():  # serve-path warm-up builds the engines
            catalog.entry(name).pipeline.engine
        records = json.loads(control.handle("models"))
        assert [record["name"] for record in records] == ["alpha", "beta"]
        assert records[0]["default"] is True
        assert all("cached_index_versions" in record for record in records)
        assert all(record["version"] == 1 for record in records)

    def test_unrelated_lines_pass_through(self, catalog):
        control = CatalogControl(catalog)
        assert control.handle("0 3") is None
        assert control.handle("models extra tokens") is None
        assert control.handle("") is None

    def test_reload_rolls_one_entry_only(self, catalog, checkpoints, baselines):
        handler = RecommendationHandler(catalog, k=5)
        control = CatalogControl(catalog)
        response = control.handle(f"reload alpha {checkpoints['b']}")
        assert response.startswith("ok: alpha now v2")
        assert handler(["model=alpha 0 3"])[0] == baselines["b"]["0 3"]
        assert handler(["model=beta 0 3"])[0] == baselines["b"]["0 3"]  # untouched

    def test_reload_failure_answers_in_band(self, catalog, tmp_path):
        control = CatalogControl(catalog)
        assert control.handle("reload alpha").startswith("error: usage:")
        response = control.handle(f"reload alpha {tmp_path / 'missing.npz'}")
        assert response.startswith("error: checkpoint")
        assert catalog.entry("alpha").version.ordinal == 1

    def test_canary_lifecycle_over_control_lines(self, catalog, checkpoints):
        handler = RecommendationHandler(catalog, k=5)
        control = CatalogControl(catalog)
        assert control.handle("canary alpha").startswith("error: no canary")
        started = control.handle(f"canary alpha {checkpoints['b']} 1.0")
        assert started.startswith("ok: canary on alpha at fraction 1")
        before = handler(["model=alpha 0 3"])[0]
        handler(["model=alpha 1 2", "model=alpha 2 4"])
        report = json.loads(control.handle("canary alpha"))
        assert report["model"] == "alpha"
        assert report["mirrored"] == 3
        assert report["errors"] == 0
        assert report["mean_shadow_ms"] > 0
        # mirroring never changes the primary answer
        assert handler(["model=alpha 0 3"])[0] == before
        stopped = json.loads(control.handle("canary alpha off"))
        assert stopped["stopped"] is True
        assert catalog.entry("alpha").canary is None


class TestSocketIntegration:
    def test_mixed_protocol_over_one_connection_with_live_reload(
        self, catalog, checkpoints, baselines
    ):
        stats = ServerStats()
        handler = RecommendationHandler(catalog, k=5, stats=stats)
        batcher = MicroBatcher(handler, max_batch_size=16, stats=stats)
        control = CatalogControl(catalog)
        server = AsyncSocketServer(batcher, stats=stats, control=control.handle).start()
        try:
            with socket.create_connection(server.address, timeout=30) as connection:
                reader = connection.makefile("r", encoding="utf-8")

                def ask(line):
                    connection.sendall((line + "\n").encode("utf-8"))
                    return reader.readline().strip()

                assert ask("model=alpha 0 3") == baselines["a"]["0 3"]
                assert ask("model=beta 0 3") == baselines["b"]["0 3"]
                payload = json.loads(ask(json.dumps({"symptoms": "0 3", "model": "beta"})))
                assert payload["model"] == "beta"
                names = [record["name"] for record in json.loads(ask("models"))]
                assert names == ["alpha", "beta"]
                assert ask(f"reload alpha {checkpoints['b']}").startswith("ok: alpha now v2")
                assert ask("model=alpha 0 3") == baselines["b"]["0 3"]
                assert ask("model=beta 0 3") == baselines["b"]["0 3"]  # bit-identical
                assert "models=" in ask("stats")
        finally:
            server.stop()
            batcher.close()
