"""The columnar period log, its read-only view, and the streaming JSON writer.

The writer's bytes must equal the json.dump(report.to_dict(), sort_keys=True,
indent=1) reference on every report shape: empty sections, NaN and ±inf in
every float field, flow ids and histogram keys that sort differently as text
and as numbers, and reports read back with from_dict.
"""

import copy
import io
import json
import math

import pytest

from conftest import longwin_config
from drainsched.config import with_run
from drainsched.engine import run_simulation
from drainsched.experiments import bundled_preset_config, export_metrics
from drainsched.report import FlowMetrics, MetricsReport, PeriodLog, PeriodRecord, Periods


def record(start=0, trace=(1.0, 2.0), theta=None, **kw):
    values = dict(
        start=start, window=3, objective=0.5, objective_trace=tuple(trace), c2=1.25,
        c3=1e-7, handoff_messages=30, excess_broadcasts=2,
        theta={7: 1.0, 8: 2.0} if theta is None else theta,
    )
    return PeriodRecord(**{**values, **kw})


def report(flows=None, queue_avg=None, periods=()):
    return MetricsReport(
        seed=3, horizon=10, flows={} if flows is None else flows,
        queue_avg={} if queue_avg is None else queue_avg, periods=list(periods),
    )


def reference(rep) -> bytes:
    buf = io.StringIO()
    json.dump(rep.to_dict(), buf, sort_keys=True, indent=1)
    return (buf.getvalue() + "\n").encode()


def written(rep, tmp_path) -> bytes:
    path = tmp_path / "report.json"
    export_metrics(rep, "json", path)
    return path.read_bytes()


class TestWriterMatchesJsonDump:
    def test_no_periods_and_no_flows(self, tmp_path):
        rep = report()
        assert written(rep, tmp_path) == reference(rep)
        assert b'"flows": {}' in reference(rep) and b'"periods": []' in reference(rep)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_every_float_field(self, tmp_path, value):
        flows = {1: FlowMetrics(created=4, delivered=2, mean_delay=value, drop_ratio=value,
                                histogram={0: 2})}
        periods = [
            record(objective=value, c2=value, c3=value, trace=(value, 0.0, value),
                   theta={1: value}),
            record(start=3, trace=(-0.0, 1e300, 5e-324), theta={1: -0.0}),
        ]
        rep = report(flows, {(0, 1): value, (1, 1): 0.1}, periods)
        data = written(rep, tmp_path)
        assert data == reference(rep)
        assert json.dumps(value).encode() in data  # NaN, Infinity or -Infinity

    def test_empty_theta_and_empty_trace(self, tmp_path):
        rep = report(periods=[record(trace=(), theta={}), record(start=1, trace=(), theta={})])
        data = written(rep, tmp_path)
        assert data == reference(rep)
        assert b'"theta": {}' in data and b'"objective_trace": []' in data

    def test_flow_ids_of_two_digits_sort_as_text(self, tmp_path):
        theta = {2: 1.0, 10: 1.5, 100: 2.0}
        flows = {fid: FlowMetrics(created=fid, histogram={}) for fid in theta}
        queue_avg = {(1, 10): 0.5, (1, 2): 1.5, (10, 2): 2.5}
        rep = report(flows, queue_avg, [record(theta=theta)])
        data = written(rep, tmp_path)
        assert data == reference(rep)
        assert data.index(b'"10"') < data.index(b'"2"')

    def test_histogram_keys_sort_as_text(self, tmp_path):
        hist = {1: 4, 2: 1, 10: 3, 100: 1, 11: 2}
        flows = {7: FlowMetrics(created=11, delivered=11, histogram=hist)}
        rep = report(flows)
        data = written(rep, tmp_path)
        assert data == reference(rep)
        assert data.index(b'"100"') < data.index(b'"11"') < data.index(b'"2"')

    @pytest.mark.parametrize("build, horizon", [
        (bundled_preset_config, 1500), (longwin_config, 3000),
    ], ids=["mesh10", "longwin"])
    def test_simulated_and_reread_reports(self, tmp_path, build, horizon):
        rep = run_simulation(build(), horizon=horizon, seed=2)
        data = written(rep, tmp_path)
        assert data == reference(rep)
        again = MetricsReport.from_dict(json.loads(data))
        assert again == rep
        assert written(again, tmp_path) == data == reference(again)

    def test_dict_key_order_does_not_matter(self, tmp_path):
        # from_dict reads keys in text order; the engine writes them numerically
        a = report({10: FlowMetrics(), 2: FlowMetrics()}, {(0, 10): 1.0, (0, 2): 2.0},
                   [record(theta={10: 1.0, 2: 2.0})])
        b = report({2: FlowMetrics(), 10: FlowMetrics()}, {(0, 2): 2.0, (0, 10): 1.0},
                   [record(theta={2: 2.0, 10: 1.0})])
        assert written(a, tmp_path) == written(b, tmp_path) == reference(a)


BAD_RECORDS = [
    (record(trace=(1.0,)), "objective_trace"),
    (record(theta={7: 1.0}), "theta"),
    (record(theta={7: 1.0, 9: 2.0}), "theta"),
    (record(oracle_gap=0.1), "oracle_gap"),
    (record(start=1.5), "start"),
    (record(excess_broadcasts=2**64), "excess_broadcasts"),
    (record(c3=None), "c3"),
    (record(trace=(1.0, "x")), "objective_trace"),
    (record(theta={7: 1.0, 8: None}), "theta"),
]


def engine_row(rec, drop=()):
    """rec's fields as the keywords of the engine's PeriodLog.add call, which
    passes no oracle_gap unless one is set, less the fields named in drop."""
    return {
        name: value for name, value in vars(rec).items()
        if name not in drop and not (name == "oracle_gap" and value is None)
    }


def assert_rejected_and_log_unchanged(entry, field):
    good = [record(start=1), record(start=2)]
    log = PeriodLog.of(good)
    with pytest.raises(ValueError, match=f"^{field}: "):
        entry(log)
    assert len(log) == 2
    assert {len(col) for col in (*log.columns.values(), *log.theta.values())} == {2}
    assert len(log.trace) == 4
    assert [log.record(i) for i in range(2)] == good
    log.append(record(start=3))
    assert log.record(2) == record(start=3)


class TestPeriodLog:
    def test_round_trips_records(self):
        recs = [record(start=i, trace=(i / 3, -i), theta={7: 1.0, 8: i * 0.1}) for i in range(5)]
        log = PeriodLog.of(recs)
        assert len(log) == 5 and log.stride == 2
        assert [log.record(i) for i in range(5)] == recs
        assert list(log.columns["start"]) == [0, 1, 2, 3, 4]
        assert list(log.theta[8]) == [i * 0.1 for i in range(5)]

    @pytest.mark.parametrize("bad, field", BAD_RECORDS)
    def test_mismatched_record_rejected_and_log_unchanged(self, bad, field):
        assert_rejected_and_log_unchanged(lambda log: log.append(bad), field)

    @pytest.mark.parametrize("bad, field", [
        *((engine_row(rec), field) for rec, field in BAD_RECORDS),
        (engine_row(record(), drop=("c3",)), "c3"),
        (engine_row(record(), drop=("objective_trace",)), "objective_trace"),
        ({**engine_row(record()), "drift": 0.5}, "drift"),
    ])
    def test_mismatched_row_rejected_and_log_unchanged(self, bad, field):
        # add is the engine's entry: a row of keywords, one per stored field
        assert_rejected_and_log_unchanged(lambda log: log.add(**bad), field)

    def test_add_and_append_give_equal_rows(self):
        recs = [record(start=i, trace=(i / 3, -i), theta={7: -0.0, 8: i * 0.1}) for i in range(4)]
        by_add = PeriodLog(2, (7, 8))
        for rec in recs:
            by_add.add(**engine_row(rec))
        by_append = PeriodLog.of(recs)
        assert list(by_add.columns.items()) == list(by_append.columns.items())
        assert by_add.trace == by_append.trace and by_add.theta == by_append.theta
        assert [by_add.record(i) for i in range(4)] == recs

    def test_report_built_from_mismatched_records_names_the_field(self):
        with pytest.raises(ValueError, match="^theta: "):
            report(periods=[record(), record(theta={7: 1.0})])

    def test_empty_log(self):
        log = PeriodLog.of([])
        assert len(log) == 0 and Periods(log) == [] and log.stride == 0


class TestPeriodsView:
    def test_sequence_protocol(self):
        recs = [record(start=i) for i in range(4)]
        view = report(periods=recs).periods
        assert isinstance(view, Periods)
        assert len(view) == 4
        assert view[0] == recs[0] and view[-1] == recs[3]
        assert view[1:3] == recs[1:3]
        assert list(view) == recs
        assert view == recs and recs == view and view != recs[:3]
        assert list(view.column("start")) == [0, 1, 2, 3]
        with pytest.raises(IndexError):
            view[4]
        with pytest.raises(IndexError):
            view[-5]

    def test_view_is_a_snapshot_of_the_log(self):
        log = PeriodLog.of([record(start=0)])
        view = Periods(log)
        log.append(record(start=1))
        assert len(view) == 1 and list(view) == [record(start=0)]
        assert len(Periods(log)) == 2

    def test_view_is_read_only(self):
        view = report(periods=[record()]).periods
        assert not hasattr(view, "append")
        with pytest.raises(TypeError):
            view[0] = record()

    def test_report_equality_and_deepcopy(self):
        rep = run_simulation(with_run(bundled_preset_config(), horizon_slots=400), seed=1)
        kept = copy.deepcopy(rep)
        assert kept == rep and kept.periods == list(rep.periods)
        assert report(periods=[]).periods == []
        assert report(periods=[record()]) != report(periods=[record(start=1)])

    def test_nan_fields_equal_their_deepcopy(self):
        recs = [
            record(start=0, c3=math.nan),
            record(start=1, trace=(math.nan, 2.0)),
            record(start=2, theta={7: math.nan, 8: 2.0}, objective=math.nan),
        ]
        rep = report(periods=recs)
        kept = copy.deepcopy(rep)
        assert kept == rep and kept.periods == rep.periods
        assert rep.periods == [copy.deepcopy(r) for r in recs]

    @pytest.mark.parametrize("other", [
        [record(start=0, c3=math.nan), record(start=1, c3=1.0)],  # a number, not NaN
        [record(start=0, c3=1e-7), record(start=1, c3=math.nan)],  # NaN in another row
        [record(start=0, c3=math.nan), record(start=1, c3=math.nan, trace=(1.0, 3.0))],
        [record(start=0, c3=math.nan), record(start=1, c3=math.nan, theta={7: 1.0, 9: 2.0})],
        [record(start=0, c3=math.nan, trace=(1.0,)), record(start=1, c3=math.nan, trace=(2.0,))],
        [record(start=0, c3=math.nan)],
        [record(start=0, c3=math.nan), record(start=1, c3=math.nan, oracle_gap=0.5)],
        [1, 2],
        "ab",
    ])
    def test_unequal_periods(self, other):
        view = report(periods=[record(start=0, c3=math.nan), record(start=1, c3=math.nan)]).periods
        assert view != other and not view == other
