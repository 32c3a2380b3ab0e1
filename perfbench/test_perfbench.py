"""Tests of the benchmark's own arithmetic and stream generation.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import pytest

import calibrate
import stats
from serve_load import RATE, alpha_rename, make_stream


def _span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "check": "c"}


class TestSelfTime:
    def test_nested_spans_subtract_children(self):
        spans = [_span(0, "check", 0.0, 10.0),
                 _span(1, "smt.dispatch", 1.0, 9.0, 0),
                 _span(2, "smt.sat", 2.0, 5.0, 1),
                 _span(3, "smt.sat", 6.0, 7.0, 1)]
        own = stats.self_times(spans)
        assert own["check"] == pytest.approx(2.0)
        assert own["smt.dispatch"] == pytest.approx(4.0)
        assert own["smt.sat"] == pytest.approx(4.0)
        # Self times partition the root's wall time.
        assert sum(own.values()) == pytest.approx(10.0)

    def test_grandchildren_belong_to_their_parent_only(self):
        spans = [_span(0, "check", 0.0, 4.0),
                 _span(1, "smt.solver", 0.0, 4.0, 0),
                 _span(2, "smt.bitblast", 1.0, 3.0, 1)]
        own = stats.self_times(spans)
        assert own["check"] == pytest.approx(0.0)
        assert own["smt.solver"] == pytest.approx(2.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [_span(0, "check", 0.0, 10.0),
                 _span(1, "a", 1.0, 5.0, 0),
                 _span(2, "b", 3.0, 7.0, 0)]
        assert stats.self_times(spans)["check"] == pytest.approx(4.0)

    def test_unclaimed_share_of_the_check(self):
        spans = [_span(0, "lang.frontend", 0.0, 1.0),
                 _span(1, "check", 1.0, 5.0),
                 _span(2, "smt.sat", 2.0, 5.0, 1)]
        assert stats.unclaimed_share(spans) == pytest.approx(0.25)

    def test_same_name_nesting_sums_without_double_counting(self):
        spans = [_span(0, "check.replay", 0.0, 5.0),
                 _span(1, "check.replay", 1.0, 4.0, 0)]
        assert stats.self_times(spans)["check.replay"] == pytest.approx(5.0)


class TestGeomean:
    def test_geomean_of_per_cell_medians(self):
        samples = {"a": [1.0, 100.0, 2.0], "b": [8.0]}
        # medians 2 and 8 -> geomean 4
        assert stats.geomean_of_medians(samples) == pytest.approx(4.0)

    def test_every_cell_weighs_the_same(self):
        many = {"a": [1.0] * 9, "b": [4.0]}
        few = {"a": [1.0], "b": [4.0]}
        assert stats.geomean_of_medians(many) == pytest.approx(
            stats.geomean_of_medians(few)) == pytest.approx(2.0)

    def test_total_of_medians(self):
        assert stats.total_of_medians({"a": [1.0, 3.0], "b": [5.0]}) == \
            pytest.approx(7.0)


class TestTailRule:
    @pytest.mark.parametrize("n,expected", [(10, 0), (20, 50), (41, 75),
                                            (100, 90), (150, 93),
                                            (1000, 99)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        p = stats.tail_percentile(n)
        assert p == expected
        assert (100 - p) / 100 * n >= 10
        assert (100 - (p + 1)) / 100 * n < 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(9)

    def test_percentile_interpolates(self):
        values = list(range(1, 101))  # 1..100
        assert stats.percentile(values, 50) == pytest.approx(50.5)
        assert stats.percentile(values, 90) == pytest.approx(90.1)
        assert stats.percentile([3.0], 90) == 3.0


class TestScaling:
    def test_speed_factor_follows_the_median_reference(self):
        slow = [2 * calibrate.REFERENCE_S] * 4 + [100.0]
        assert calibrate.speed_factor(slow) == pytest.approx(
            0.5 ** calibrate.ELASTICITY)
        assert calibrate.speed_factor([calibrate.REFERENCE_S]) == 1.0

    def test_times_scale_but_a_timeout_counts_at_its_limit(self):
        import run
        records = [TestMetricNames._record(f"c{i}", False)
                   for i in range(12)]
        records[0].update(verdict="timeout", verdict_s=6.0,
                          **{"class": "undecided"})
        e2e, _ = run.cell_metrics(records, 0.5)
        assert e2e["setup_s"] == pytest.approx(0.1)
        assert e2e["latency_s.p50"] == pytest.approx(0.25)
        assert e2e["verdict_s.total"] == pytest.approx(6.0 + 11 * 0.15)
        assert e2e["decided_share"] == pytest.approx(11 / 12)


class TestFailureAccounting:
    def test_classify(self):
        assert stats.classify("bug", "bug") == "ok"
        assert stats.classify("bug", "verified") == "wrong"
        assert stats.classify("verified", "timeout") == "undecided"
        assert stats.classify("verified", None) == "crashed"
        assert stats.classify("verified", "unsupported") == "crashed"

    @pytest.mark.parametrize("status", [422, 429, 500])
    def test_non_verdict_http_status_is_a_failure(self, status):
        assert stats.classify("verified", None, status) == "crashed"
        assert stats.classify("verified", "verified", status) == "crashed"

    def test_summary_counts_every_failure_and_names_unexpected_ones(self):
        records = [
            {"cell": "ok", "verdict": "bug", "class": "ok"},
            {"cell": "known", "verdict": "verified", "class": "wrong"},
            {"cell": "slow", "verdict": "timeout", "class": "undecided"},
            {"cell": "died", "verdict": None, "class": "crashed"},
        ]
        summary = stats.failure_summary(records, frozenset({"known"}))
        assert summary["attempted"] == 4
        assert summary["failed"] == 2
        assert summary["decided"] == 2
        assert summary["failed_cells"] == ["died", "known"]
        assert summary["unexpected"] == ["died"]


class TestServeStream:
    REQUESTS = [
        {"cell": "a", "expect": "bug",
         "body": {"command": "races", "source": "void k(int *out) {}"}},
        {"cell": "b", "expect": "verified",
         "body": {"command": "races", "source": "void k(int *v) {}",
                  "pair": "Reduction"}},
    ]

    def test_same_seed_same_stream(self):
        one = make_stream(self.REQUESTS, seed=3, seconds=5)
        two = make_stream(self.REQUESTS, seed=3, seconds=5)
        assert one == two
        assert one != make_stream(self.REQUESTS, seed=4, seconds=5)

    def test_every_request_first_submitted_once(self):
        stream = make_stream(self.REQUESTS, seed=1, seconds=5)
        assert len(stream) == round(RATE * 5)
        firsts = [s["cell"] for s in stream if not s["resubmit"]]
        assert sorted(firsts) == ["a", "b"]
        assert not stream[0]["resubmit"]
        assert all(0 <= s["due"] < 5 for s in stream)
        assert all(x["due"] <= y["due"] for x, y in zip(stream, stream[1:]))

    def test_only_unpaired_requests_are_renamed(self):
        stream = make_stream(self.REQUESTS, seed=2, seconds=50)
        renamed = [s for s in stream if s["renamed"]]
        assert renamed and all(s["cell"] == "a" for s in renamed)
        assert all(s["body"]["source"] != self.REQUESTS[0]["body"]["source"]
                   for s in renamed)

    def test_unpaired_requests_weigh_more_and_half_are_renamed(self):
        requests = [{"cell": f"{kind}{i}", "expect": "bug",
                     "body": {"command": "races", "source": f"k{i}",
                              **({"pair": "Reduction"} if kind == "p"
                                 else {})}}
                    for kind in "up" for i in range(10)]
        for seed in range(1, 6):
            again = make_stream(requests, seed=seed, seconds=40)
            resub = [s for s in again if s["resubmit"]]
            paired = sum("pair" in s["body"] for s in resub)
            renamed = sum(s["renamed"] for s in resub)
            plain = len(resub) - paired - renamed
            assert len(resub) - paired >= 1.4 * paired
            assert plain - 10 <= renamed <= plain

    def test_alpha_rename_keeps_reserved_names(self):
        src = "__global__ void k(int *out) { out[tid.x] = bdim.x; }"
        renamed = alpha_rename(src, "r1")
        assert renamed == ("__global__ void k_r1(int *out_r1) "
                           "{ out_r1[tid.x] = bdim.x; }")


class TestMetricNames:
    """Every run prints exactly the metrics BENCHMARK.json declares."""

    @staticmethod
    def _declared():
        import json
        import os
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
        with open(path) as fh:
            bench = json.load(fh)
        return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
                {m["name"]: m["unit"] for m in bench["per_layer"]})

    @staticmethod
    def _record(cell, trace, verdict="verified"):
        rec = {"cell": cell, "expect": "verified", "trace": trace,
               "verdict": verdict, "class": stats.classify("verified",
                                                           verdict),
               "latency_s": 0.5, "setup_s": 0.2, "verdict_s": 0.3,
               "rss_mb": 30.0,
               "counters": {"queries": 2, "conflicts": 3,
                            "propagations": 40, "clauses": 50,
                            "template_hits": 0, "template_misses": 1}}
        if trace:
            rec["spans"] = [_span(0, "check", 0.0, 0.3),
                            _span(1, "smt.sat", 0.1, 0.2, 0)]
            rec["counts"] = {"smt.dispatch.vcs": 2}
        return rec

    def test_cell_workload_metrics(self):
        import run
        e2e_units, layer_units = self._declared()
        records = [self._record(f"c{i}", trace)
                   for i in range(12) for trace in (False, True)]
        e2e, _ = run.cell_metrics(records, 1.0)
        layers = run.layer_metrics(records, e2e["verdict_s.geomean"], 1.0)
        assert {k: run._unit(k) for k in e2e} == e2e_units
        assert {k: run._unit(k) for k in layers} == layer_units
        assert layers["check.s"] == pytest.approx(12 * 0.2)
        assert layers["trace.overhead_ratio"] == pytest.approx(1.0)

    def test_serve_workload_metrics(self):
        import run
        e2e_units, layer_units = self._declared()
        records = []
        for i in range(20):
            item = {"cell": f"c{i % 5}", "expect": "bug", "due": i * 0.1,
                    "due_at": 100 + i * 0.1, "resubmit": i >= 5,
                    "renamed": False}
            body = {"status": "ok", "verdict": "bug", "elapsed": 0.05,
                    "vcs_checked": 1,
                    "stats": {"solver": {"queries": 1, "cache_hits": 1}}}
            records.append({"item": item, "status": 200, "body": body,
                            "done": item["due_at"] + 0.08})
        result = {"records": records, "late": 0.01, "setup": [0.2, 0.3],
                  "references": [calibrate.REFERENCE_S] * 3,
                  "stats": {"encode": {"template_hits": 3,
                                       "template_misses": 1}},
                  "rss_mb": 100.0}
        e2e, layers, _, info = run.serve_metrics(result)
        assert {k: run._unit(k) for k in e2e} == e2e_units
        assert {k: run._unit(k) for k in layers} == layer_units
        assert e2e["latency_s.p50"] == pytest.approx(0.08)
        assert layers["serve.overhead_s.p50"] == pytest.approx(0.03)
        assert layers["encode.templates.hit_ratio"] == pytest.approx(0.75)
        assert info["summary"]["failed"] == 0
