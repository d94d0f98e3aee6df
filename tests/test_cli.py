"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main, parse_security_spec
from repro.store import encode_record


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "matopiba"])
        assert args.pilot == "matopiba"
        assert args.seed == 0
        assert args.days is None

    def test_unknown_pilot_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "atlantis"])

    def test_security_parsing(self):
        config = parse_security_spec("auth,encryption")
        assert config.auth and config.encryption and not config.detection

    def test_security_empty(self):
        config = parse_security_spec("")
        assert not config.auth

    def test_security_unknown_flag(self):
        with pytest.raises(SystemExit):
            parse_security_spec("auth,teleportation")


class TestCommands:
    def test_list_output(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for pilot in ("cbec", "intercrop", "guaspari", "matopiba"):
            assert pilot in text

    def test_run_truncated_season(self):
        out = io.StringIO()
        assert main(["run", "guaspari", "--days", "3", "--seed", "2"], out=out) == 0
        text = out.getvalue()
        assert "guaspari" in text
        assert "telemetry processed" in text

    def test_run_with_security_flags(self):
        out = io.StringIO()
        assert main(
            ["run", "guaspari", "--days", "2", "--security", "auth"], out=out
        ) == 0
        assert "guaspari" in out.getvalue()

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("flag", ["--store-flush", "--store-segment-bytes",
                                      "--store-retention-age", "--store-retention-bytes",
                                      "--store-compact"])
    def test_zero_store_flag_exits_with_the_library_message(self, tmp_path, command, flag):
        # A zero reaches the store as given (no silent swap for the
        # default), which refuses it before creating any file; the CLI
        # prints that as an error line.
        with pytest.raises(SystemExit, match="must be positive"):
            main([command, "matopiba", "--days", "0.1",
                  "--store", str(tmp_path / "wal"), flag, "0"], out=io.StringIO())
        assert not (tmp_path / "wal").exists()

    def test_run_refuses_an_sws1_store_with_one_line(self, tmp_path):
        # A directory the previous segment format wrote: JSON samples.
        store = tmp_path / "old"
        store.mkdir()
        segment = store / "seg-00000000.log"
        segment.write_bytes(b"SWS1" + encode_record(b'["urn:x","a",60.0,0.25]'))
        before = segment.read_bytes()
        with pytest.raises(SystemExit, match="SWS1"):
            main(["run", "matopiba", "--days", "0.1", "--store", str(store)],
                 out=io.StringIO())
        assert [p.name for p in store.iterdir()] == [segment.name]
        assert segment.read_bytes() == before

    @pytest.mark.parametrize("flag", ["--checkpoint", "--restore"])
    def test_store_with_checkpoint_or_restore_exits_with_one_line(self, tmp_path, flag):
        # run() refuses the combination with a ValueError before building
        # anything; the CLI prints it as an error line, not a traceback.
        store = tmp_path / "wal"
        with pytest.raises(SystemExit, match="durable store"):
            main(["run", "matopiba", "--days", "1", "--store", str(store),
                  flag, str(tmp_path / "c.ck")], out=io.StringIO())
        assert not store.exists()

    def test_restore_of_a_faulted_run_prints_its_plan(self, tmp_path):
        # The restored run's plan comes from its checkpoint, not the flags.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"name": "cut", "events": [
            {"kind": "link_partition", "target": "wan", "at_s": 3600.0,
             "duration_s": 600.0}]}))
        path = tmp_path / "run.ck"
        assert main(["run", "matopiba", "--days", "0.5", "--faults", str(plan),
                     "--checkpoint", str(path)], out=io.StringIO()) == 0
        out = io.StringIO()
        assert main(["run", "--restore", str(path)], out=out) == 0
        assert "faults: plan 'cut', 1 injected, 1 recovered" in out.getvalue()

    def test_serve_trace_with_an_empty_tenant_namespace_exits_with_one_line(self, tmp_path):
        path = tmp_path / "T.json"
        path.write_text(json.dumps({
            "name": "t", "seed": 0,
            "tenants": [{"name": "ops", "secret": "s",
                         "read_prefixes": [], "write_prefixes": []}],
            "requests": [{"at_s": 10.0, "tenant": "ops", "method": "GET",
                          "path": "/v2/entities"}],
        }))
        with pytest.raises(SystemExit, match="tenant 'ops' has an empty namespace"):
            main(["serve", "matopiba", "--days", "0.1", "--requests", str(path)],
                 out=io.StringIO())

    def test_run_prints_metrics_summary(self):
        out = io.StringIO()
        assert main(["run", "guaspari", "--days", "2", "--seed", "2"], out=out) == 0
        summary = [line for line in out.getvalue().splitlines()
                   if line.startswith("metrics:")]
        assert len(summary) == 1
        assert "events/s kernel" in summary[0]
        assert "messages published" in summary[0]
        assert "notifications delivered" in summary[0]

    def test_run_without_resilience_prints_no_resilience_line(self):
        out = io.StringIO()
        assert main(["run", "guaspari", "--days", "2", "--seed", "2"], out=out) == 0
        assert "resilience:" not in out.getvalue()

    def test_run_with_resilience_prints_summary_and_metrics(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "metrics.json"
        assert main(
            ["run", "guaspari", "--days", "2", "--seed", "2",
             "--resilience", "--metrics", str(path)],
            out=out,
        ) == 0
        summary = [line for line in out.getvalue().splitlines()
                   if line.startswith("resilience:")]
        assert len(summary) == 1
        assert "services healthy" in summary[0]
        assert "restarts" in summary[0]
        snapshot = json.loads(path.read_text())
        health = {name: value for name, value in snapshot["gauges"].items()
                  if name.startswith("resilience.health")}
        assert len(health) >= 5
        assert all(value == 1.0 for value in health.values())

    def test_run_writes_metrics_snapshot(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "metrics.json"
        assert main(
            ["run", "guaspari", "--days", "2", "--seed", "2",
             "--metrics", str(path)],
            out=out,
        ) == 0
        assert f"metrics snapshot written to {path}" in out.getvalue()
        snapshot = json.loads(path.read_text())
        assert snapshot["enabled"] is True
        # Non-zero activity from at least five instrumented subsystems.
        active = {
            name.split(".", 1)[0]
            for name, value in snapshot["counters"].items() if value > 0
        }
        active |= {
            name.split(".", 1)[0]
            for name, value in snapshot["gauges"].items() if value > 0
        }
        assert len(active & {"simkernel", "mqtt", "context", "fog",
                             "scheduler", "security", "iota"}) >= 5
