"""Unit tests for combiners and clustering config."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerRequest,
    ClusteringConfig,
    IdenticalRequestCombiner,
    RepeatWorkloadCombiner,
)
from repro.errors import BrokerError
from repro.http import HttpResponse
from repro.net import Address

REPLY_TO = Address("web", 50000)


def get_request(request_id: int, path: str, params=None, service="web") -> BrokerRequest:
    return BrokerRequest(
        request_id=request_id,
        service=service,
        operation="get",
        payload=(path, params or {}),
        reply_to=REPLY_TO,
    )


class TestClusteringConfig:
    def test_validation(self):
        combiner = IdenticalRequestCombiner()
        with pytest.raises(BrokerError):
            ClusteringConfig(combiner=combiner, max_batch=0)
        with pytest.raises(BrokerError):
            ClusteringConfig(combiner=combiner, window=-1)


class TestIdenticalRequestCombiner:
    def test_key_is_request_key(self):
        combiner = IdenticalRequestCombiner()
        a = get_request(1, "/x", {"q": 1})
        b = get_request(2, "/x", {"q": 1})
        c = get_request(3, "/x", {"q": 2})
        assert combiner.key(a) == combiner.key(b)
        assert combiner.key(a) != combiner.key(c)

    def test_combine_split_shares_result(self):
        combiner = IdenticalRequestCombiner()
        batch = [get_request(i, "/x") for i in range(3)]
        operation, payload = combiner.combine(batch)
        assert operation == "get"
        results = combiner.split(batch, "shared")
        assert results == ["shared"] * 3

    def test_explicit_cache_key_groups(self):
        combiner = IdenticalRequestCombiner()
        a = BrokerRequest(1, "db", "query", "SELECT 1", REPLY_TO, cache_key="same")
        b = BrokerRequest(2, "db", "query", "SELECT 1 ", REPLY_TO, cache_key="same")
        assert combiner.key(a) == combiner.key(b)


class TestRepeatWorkloadCombiner:
    def test_clusters_by_path_ignoring_params(self):
        combiner = RepeatWorkloadCombiner()
        a = get_request(1, "/lookup", {"grp": 5})
        b = get_request(2, "/lookup", {"grp": 9})
        assert combiner.key(a) == combiner.key(b)

    def test_does_not_cluster_non_get(self):
        combiner = RepeatWorkloadCombiner()
        req = BrokerRequest(1, "db", "query", "SELECT 1", REPLY_TO)
        assert combiner.key(req) is None

    def test_combine_adds_repeat_count(self):
        combiner = RepeatWorkloadCombiner()
        batch = [get_request(i, "/lookup", {"grp": i}) for i in range(4)]
        operation, (path, params) = combiner.combine(batch)
        assert operation == "get"
        assert path == "/lookup"
        assert params["repeat"] == 4
        assert params["grp"] == 0  # head request's params win

    def test_split_fans_out_same_body(self):
        combiner = RepeatWorkloadCombiner()
        batch = [get_request(i, "/lookup") for i in range(3)]
        response = HttpResponse.text("rows=126")
        assert combiner.split(batch, response) == [response] * 3

    def test_custom_repeat_param_name(self, monkeypatch):
        monkeypatch.setattr(RepeatWorkloadCombiner, "repeat_param", "n")
        combiner = RepeatWorkloadCombiner()
        _, (_, params) = combiner.combine([get_request(1, "/x")])
        assert params["n"] == 1
