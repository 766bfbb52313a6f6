"""Tests for the SMR client and the command-line interface."""

import math

import pytest

from repro.cli import build_parser, main
from repro.config import ProtocolConfig
from repro.smr.app import CounterApp
from repro.smr.client import SMRClient, latency_accumulator
from repro.smr.service import SMRDeployment


class TestSMRClient:
    def make(self, slots=3):
        dep = SMRDeployment(
            ProtocolConfig(n=7, f=2), CounterApp, num_slots=slots, seed=11
        )
        return dep, SMRClient(dep)

    def test_requests_complete_with_latency(self):
        dep, client = self.make()
        client.submit(b"INC")
        client.submit(b"ADD:4")
        dep.run(max_time=20_000)
        assert client.all_completed()
        for record in client.requests:
            assert record.latency is not None and record.latency > 0
            assert record.slot is not None
            assert len(record.acked_by) >= dep.config.f + 1

    def test_mean_latency(self):
        dep, client = self.make()
        client.submit(b"INC")
        dep.run(max_time=20_000)
        mean = latency_accumulator(client.requests).mean
        assert not math.isnan(mean)
        assert mean >= 3.0  # at least one consensus round

    def test_duplicate_payloads_are_distinct_requests(self):
        """Regression: payload-keyed tracking made equal payloads collide
        with a ValueError; (client_id, seq) identity keeps them distinct."""
        dep, client = self.make()
        first = client.submit(b"INC")
        second = client.submit(b"INC")  # formerly raised ValueError
        assert first.request_id != second.request_id
        assert first.command != second.command
        dep.run(max_time=20_000)
        assert client.all_completed()
        assert first.slot != second.slot
        # Both increments applied: the counter reads 2 everywhere.
        assert all(
            snapshot == 2 for snapshot in dep.snapshots().values()
        )

    def test_two_clients_same_payload_both_complete(self):
        dep = SMRDeployment(
            ProtocolConfig(n=7, f=2), CounterApp, num_slots=3, seed=11
        )
        alice = SMRClient(dep)
        bob = SMRClient(dep)
        assert alice.client_id != bob.client_id
        a = alice.submit(b"INC")
        b = bob.submit(b"INC")
        dep.run(max_time=20_000)
        assert a.completed and b.completed
        assert all(snapshot == 2 for snapshot in dep.snapshots().values())

    def test_duplicate_request_id_still_rejected(self):
        _dep, client = self.make()
        client.submit(b"INC", seq=5)
        with pytest.raises(ValueError):
            client.submit(b"DEC", seq=5)

    def test_incomplete_without_run(self):
        """Regression: mean_latency returned NaN (silently poisoning report
        columns); it is now an explicit None with an incomplete count."""
        _dep, client = self.make()
        client.submit(b"INC")
        assert not client.all_completed()
        acc = latency_accumulator(client.requests)
        assert acc.mean is None
        assert acc.p50 is None
        assert acc.p99 is None
        assert acc.incomplete == 1
        summary = acc.summary()
        assert summary["completed"] == 0
        assert summary["incomplete"] == 1
        assert summary["mean_latency"] is None

    def test_latency_percentiles_after_run(self):
        dep, client = self.make()
        for _ in range(3):
            client.submit(b"INC")
        dep.run(max_time=20_000)
        assert client.all_completed()
        acc = latency_accumulator(client.requests)
        assert acc.incomplete == 0
        p50, p99 = acc.p50, acc.p99
        assert p50 is not None and p99 is not None
        assert p50 <= p99
        assert acc.mean >= 3.0

    def test_late_client_recovers_prior_requests(self):
        """Regression: a client constructed after the deployment ran missed
        already-recorded applies and hung forever; the replayed history
        completes the resubmission immediately."""
        dep = SMRDeployment(
            ProtocolConfig(n=7, f=2), CounterApp, num_slots=2, seed=11
        )
        early = SMRClient(dep)
        record = early.submit(b"INC")
        dep.run(max_time=20_000)
        assert record.completed
        # A re-attached client (same identity) resubmitting the same request
        # completes from replayed history instead of hanging.
        late = SMRClient(dep, client_id=early.client_id)
        replayed = late.submit(b"INC", seq=record.seq)
        assert replayed is not None
        assert replayed.completed
        assert replayed.recovered
        assert replayed.slot == record.slot

    def test_late_client_sees_live_applies(self):
        dep = SMRDeployment(
            ProtocolConfig(n=7, f=2), CounterApp, num_slots=2, seed=11
        )
        dep.start()
        dep.sim.run(until=1.0)  # deployment already running
        client = SMRClient(dep)
        record = client.submit(b"INC")
        dep.run(max_time=20_000)
        assert record.completed and not record.recovered

    def test_apply_recorder_still_chained(self):
        dep, client = self.make(slots=2)
        client.submit(b"INC")
        dep.run(max_time=20_000)
        # The deployment's own applied record still fills in.
        assert dep.applied


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "probft", "--n", "10"])
        assert args.protocol == "probft" and args.n == 10

    @pytest.mark.parametrize("table", ["adversary", "load"])
    def test_serve_choices_are_the_tables(self, table):
        from repro.smr.workload import LOAD_LEVELS, SERVING_ADVERSARIES

        keys = {"adversary": SERVING_ADVERSARIES, "load": LOAD_LEVELS}[table]
        parser = build_parser()
        for key in keys:
            args = parser.parse_args(["serve", f"--{table}", key])
            assert getattr(args, table) == key
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", f"--{table}", "no-such-key"])

    def test_serve_hosts_every_seat_behaviour(self, capsys):
        """``--adversary`` takes any registered behaviour that acts through
        its seats; one that acts outside them exits 2 with a message."""
        argv = ["serve", "--num-clients", "2", "--requests-per-client", "1"]
        assert main(argv + ["--adversary", "silent-f", "--json"]) == 0
        assert capsys.readouterr().out
        for adversary in ("duplication", "targeted-scheduler"):
            assert main(argv + ["--adversary", adversary]) == 2
            assert "outside its seats" in capsys.readouterr().err

    def test_serve_rows_name_their_protocol(self, capsys):
        import json

        argv = ["serve", "--num-clients", "2", "--requests-per-client", "1", "--json"]
        assert main(argv + ["--protocol", "pbft", "--matrix"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6 and {row["protocol"] for row in rows} == {"pbft"}
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)[0]["protocol"] == "probft"

    def test_run_command_probft(self, capsys):
        code = main(["run", "probft", "--n", "10", "--f", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement" in out and "True" in out

    def test_run_pbft_and_hotstuff(self, capsys):
        assert main(["run", "pbft", "--n", "7", "--f", "2"]) == 0
        assert main(["run", "hotstuff", "--n", "7", "--f", "2"]) == 0

    def test_figures_takes_no_options(self, capsys):
        """Every artifact is at the paper's l = 2 and o in {1.6, 1.7, 1.8}
        (``tests/test_figures.py`` checks the output)."""
        with pytest.raises(SystemExit) as exc_info:
            main(["figures", "--o", "1.7"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("command", ["attack", "smr", "plot"])
    def test_retired_commands_are_unknown(self, capsys, command):
        """The equivocation attack is ``sweep probft-adversaries``'s
        ``equivocation`` cell, a replicated counter is one ``serve`` cell and
        the paper's figures are ``repro figures`` tables."""
        with pytest.raises(SystemExit) as exc_info:
            main([command])
        assert exc_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIArgumentErrors:
    """A bad argument exits 2 with one stderr line; exit 1 stays reserved
    for results (for ``sweep``: some cell broke agreement)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--n", "8", "--f", "5"], "f < n/3"),
            (["sweep", "--n", "0"], "n >= 4"),
            (["run", "probft", "--n", "3"], "n >= 4"),
            (
                ["serve", "--n", "3", "--num-clients", "1",
                 "--requests-per-client", "1"],
                "n >= 4",
            ),
            (["sweep", "--f", "-1"], "f must be >= 0"),
            (["run", "probft", "--n", "8", "--f", "5"], "f < n/3"),
            (["run", "pbft", "--n", "3"], "n >= 4"),
            (["run", "probft", "--f", "-1"], "f must be >= 0"),
            (
                ["serve", "--n", "8", "--f", "5", "--num-clients", "1",
                 "--requests-per-client", "1"],
                "f < n/3",
            ),
            (["serve", "--num-clients", "0"], "num_clients must be >= 1"),
            (["serve", "--window", "0"], "window must be >= 1"),
            (["serve", "--batch-size", "0"], "batch_size must be >= 1"),
            (["serve", "--pipeline", "0"], "pipeline must be >= 1"),
            (["serve", "--max-pending", "0"], "max_pending must be >= 1"),
            (["serve", "--timeout", "-1"], "timeout must be > 0"),
            (
                ["serve", "--arrival", "open", "--offered-rate", "-1"],
                "offered_rate > 0",
            ),
            (["serve", "--think-time", "nan"], "think_time >= 0"),
            (["serve", "--think-time", "inf"], "think_time >= 0"),
            (
                ["serve", "--arrival", "open", "--offered-rate", "nan"],
                "offered_rate > 0",
            ),
            (
                ["serve", "--arrival", "open", "--offered-rate", "inf"],
                "offered_rate > 0",
            ),
            (["serve", "--offered-rate", "3"], "--offered-rate needs --arrival open"),
            (
                ["serve", "--matrix", "--offered-rate", "3"],
                "--offered-rate needs --arrival open",
            ),
            (["serve", "--protocol", "hotstuff"], "cannot serve slots"),
            (["serve", "--protocol", "streamlined"], "cannot serve slots"),
            (["serve", "--protocol", "raft"], "unknown protocol 'raft'"),
        ],
        ids=[
            "sweep-f", "sweep-n", "run-n", "serve-n",
            "sweep-negative-f", "run-f", "run-pbft-n", "run-negative-f",
            "serve-f",
            "serve-num-clients", "serve-window", "serve-batch-size",
            "serve-pipeline", "serve-max-pending", "serve-timeout",
            "serve-offered-rate", "serve-think-time-nan", "serve-think-time-inf",
            "serve-offered-rate-nan", "serve-offered-rate-inf",
            "serve-offered-rate-closed", "serve-offered-rate-closed-matrix",
            "serve-protocol-hotstuff", "serve-protocol-streamlined",
            "serve-protocol-unknown",
        ],
    )
    def test_bad_config_exits_2_without_traceback(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_serve_checks_every_cell_before_the_first_trial(
        self, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a serving deployment was built")

        monkeypatch.setattr(SMRDeployment, "__init__", refuse)
        assert main(["serve", "--matrix", "--pipeline", "0"]) == 2
        assert "pipeline must be >= 1" in capsys.readouterr().err

    def test_a_matrix_rate_applies_to_its_open_cells(self, capsys, monkeypatch):
        from repro.smr import workload

        specs, cells = [], workload.serving_cells

        def recording(**axes):
            specs.extend(cells(**axes))
            return []  # (no trial runs)

        monkeypatch.setattr(workload, "serving_cells", recording)
        argv = ["serve", "--matrix", "--arrival", "both", "--offered-rate", "3"]
        assert main(argv + ["--json"]) == 0
        rates = {(s.arrival, s.offered_rate) for s in specs}
        assert rates == {("closed", None), ("open", 3.0)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--trials", "1"],
            ["run", "probft"],
            ["serve", "--num-clients", "1", "--requests-per-client", "1"],
        ],
        ids=["sweep", "run", "serve"],
    )
    @pytest.mark.parametrize("max_time", ["-1", "0"])
    def test_max_time_must_be_positive(self, capsys, argv, max_time):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--max-time", max_time])
        assert exc_info.value.code == 2
        assert "--max-time" in capsys.readouterr().err


class TestSweepProfile:
    def test_profile_writes_pstats_and_top25_table(self, tmp_path, capsys):
        """``sweep --profile PATH`` leaves a loadable .pstats file plus the
        top-25 cumulative table next to it, without touching stdout."""
        import pstats

        target = tmp_path / "prof"
        code = main(
            [
                "sweep",
                "smoke",
                "--trials",
                "1",
                "--max-time",
                "600",
                "--json",
                "--profile",
                str(target),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # stdout stays valid JSON; the profile table goes to stderr.
        import json

        json.loads(captured.out)
        assert "cumulative" in captured.err
        stats_path = tmp_path / "prof.pstats"
        table_path = tmp_path / "prof.top25.txt"
        assert stats_path.exists() and table_path.exists()
        stats = pstats.Stats(str(stats_path))
        assert stats.total_calls > 0
        table = table_path.read_text()
        assert "Ordered by: cumulative time" in table
        assert "run_matrix" in table

    def test_profile_flag_absent_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(["sweep", "smoke", "--trials", "1", "--max-time", "600", "--json"])
            == 0
        )
        assert list(tmp_path.glob("*.pstats")) == []
