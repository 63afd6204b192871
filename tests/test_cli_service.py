"""Tests for the CLI's sketch-service command group (ingest/estimate/serve)."""

import io
import json
import pathlib
import shutil
import sys

import numpy as np

from repro.cli import main, service_command_loop
from repro.service import EstimationService


def _run_lines(service, lines, **kwargs):
    out = io.StringIO()
    service_command_loop(service, io.StringIO("\n".join(lines) + "\n"), out,
                         **kwargs)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestServeLoop:
    def test_register_ingest_estimate(self):
        service = EstimationService(num_shards=2)
        replies = _run_lines(service, [
            json.dumps({"op": "register", "name": "join", "family": "rectangle",
                        "sizes": [256, 256], "instances": 16, "seed": 3}),
            json.dumps({"op": "ingest", "name": "join", "side": "left",
                        "boxes": [[0, 0, 10, 10], [5, 5, 50, 60]]}),
            json.dumps({"op": "ingest", "name": "join", "side": "right",
                        "boxes": [[2, 2, 30, 30]]}),
            json.dumps({"op": "estimate", "name": "join"}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "quit"}),
        ])
        assert [r["ok"] for r in replies] == [True] * 6
        estimate = replies[3]
        assert estimate["left_count"] == 2 and estimate["right_count"] == 1
        assert replies[4]["num_shards"] == 2

    def test_serve_restores_a_snapshot_into_its_own_shard_count(
            self, tmp_path, monkeypatch, capsys):
        """``serve --snapshot F --shards 1`` serves 1 shard, and the v2
        fixture (written with 2) answers its pinned join estimate."""
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        path = tmp_path / "svc.snap"
        shutil.copy(fixtures / "service_snapshot_v2.snap", path)
        pinned = json.loads(
            (fixtures / "service_snapshot_v2.expected.json").read_text())
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join([
            json.dumps({"op": "estimate", "name": "join"}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "quit"})]) + "\n"))
        assert main(["serve", "--snapshot", str(path), "--shards", "1"]) == 0
        estimate, stats, _ = map(json.loads,
                                 capsys.readouterr().out.splitlines())
        assert estimate["estimate"] == pinned["names"]["join"]["scalar"]
        assert stats["num_shards"] == 1

    def test_errors_keep_the_loop_alive(self):
        service = EstimationService(num_shards=2)
        replies = _run_lines(service, [
            json.dumps({"op": "estimate", "name": "missing"}),
            json.dumps({"op": "frobnicate"}),
            "   ",
            json.dumps({"op": "quit"}),
        ])
        assert [r["ok"] for r in replies] == [False, False, True]
        assert "ServiceError" in replies[0]["error"]

    def test_loop_answers_through_the_network_handler_table(self, tmp_path):
        """stdin ``serve`` is the front's handler table without a listener:
        every verb of a ``--listen`` server, structured error codes."""
        service = EstimationService(num_shards=2)
        path = tmp_path / "loop.snap"
        replies = _run_lines(service, [
            json.dumps({"op": "register", "name": "rq", "family": "range",
                        "sizes": [256, 256], "instances": 16, "id": "r1"}),
            json.dumps({"op": "ingest", "name": "rq", "side": "data",
                        "boxes": [[0, 0, 10, 10]]}),
            json.dumps({"op": "estimate", "name": "rq",
                        "query": [0, 0, 99, 99]}),
            json.dumps({"op": "metrics"}),
            json.dumps({"op": "snapshot", "path": str(path)}),
            json.dumps({"op": "unregister", "name": "rq"}),
            json.dumps({"op": "estimate", "name": "rq",
                        "query": [0, 0, 99, 99]}),
            json.dumps({"op": "frobnicate"}),
            "not json",
            json.dumps({"op": "quit"}),
        ])
        assert [r["ok"] for r in replies] == [True] * 6 + [False] * 3 + [True]
        assert replies[0]["id"] == "r1"
        assert replies[2]["left_count"] == 1
        assert "repro_service_estimates_total 1" in replies[3]["text"]
        assert EstimationService.load(path).names() == ["rq"]
        assert [r["error_code"] for r in replies[6:9]] == [
            "bad_request", "unknown_op", "protocol"]
        assert service.names() == []

    def test_quit_ends_the_loop_and_so_does_end_of_input(self):
        service = EstimationService(num_shards=2)
        replies = _run_lines(service, [
            json.dumps({"op": "ping", "id": 1}),
            json.dumps({"op": "quit", "id": 2}),
            json.dumps({"op": "ping", "id": 3}),
        ])
        assert [(r["ok"], r["op"], r["id"]) for r in replies] == [
            (True, "ping", 1), (True, "quit", 2)]
        (pong,) = _run_lines(service, [json.dumps({"op": "ping", "id": 4})])
        assert pong["ok"] and pong["id"] == 4

    def test_save_and_save_on_exit(self, tmp_path):
        service = EstimationService(num_shards=2)
        service.register("rq", family="range", domain=(256,), num_instances=8)
        explicit = tmp_path / "explicit.json"
        exit_path = tmp_path / "exit.json"
        replies = _run_lines(service, [
            json.dumps({"op": "ingest", "name": "rq", "side": "data",
                        "boxes": [[1, 5], [9, 20]]}),
            json.dumps({"op": "snapshot", "path": str(explicit)}),
            json.dumps({"op": "quit"}),
        ], snapshot_path=str(exit_path), save_on_exit=True)
        assert all(r["ok"] for r in replies)
        assert EstimationService.load(explicit).merged_view("rq").count == 2
        assert EstimationService.load(exit_path).merged_view("rq").count == 2

    def test_save_without_path_fails(self):
        service = EstimationService(num_shards=2)
        replies = _run_lines(service, [json.dumps({"op": "snapshot"}),
                                       json.dumps({"op": "quit"})])
        assert replies[0]["ok"] is False

    def test_save_refuses_the_retired_json_format(self, tmp_path):
        service = EstimationService(num_shards=2)
        path = tmp_path / "svc.json"
        replies = _run_lines(service, [
            json.dumps({"op": "snapshot", "path": str(path), "format": "json"}),
            json.dumps({"op": "snapshot", "path": str(path), "format": "binary"}),
            json.dumps({"op": "quit"}),
        ])
        assert [r["ok"] for r in replies] == [False, True, True]
        assert "SnapshotError" in replies[0]["error"]
        assert EstimationService.load(path).names() == []

    def test_save_to_bad_path_keeps_server_alive(self):
        service = EstimationService(num_shards=2)
        replies = _run_lines(service, [
            json.dumps({"op": "snapshot", "path": "/no/such/dir/x.json"}),
            json.dumps({"op": "quit"}),
        ])
        assert replies[0]["ok"] is False
        assert replies[1]["ok"] is True  # the loop survived the OSError


class TestIngestEstimateCommands:
    def test_full_cycle(self, tmp_path, capsys):
        snapshot = str(tmp_path / "svc.json")
        assert main(["ingest", "--snapshot", snapshot, "--name", "join",
                     "--family", "rectangle", "--sizes", "256x256",
                     "--instances", "32", "--seed", "7", "--count", "500",
                     "--side", "left", "--data-seed", "1"]) == 0
        created = json.loads(capsys.readouterr().out)
        assert created["created"] is True and created["boxes"] == 500

        assert main(["ingest", "--snapshot", snapshot, "--name", "join",
                     "--side", "right", "--count", "500",
                     "--data-seed", "2"]) == 0
        capsys.readouterr()

        assert main(["estimate", "--snapshot", snapshot, "--name", "join"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["left_count"] == 500 and result["right_count"] == 500

    def test_binary_snapshot_whatever_the_suffix(self, tmp_path, capsys):
        """Every path is written binary v2 — a ``.json`` suffix selects
        nothing — and both files answer identically."""
        from repro.service.snapshot import BINARY_MAGIC

        results = []
        for filename in ("svc.snap", "svc.json"):
            snapshot = str(tmp_path / filename)
            assert main(["ingest", "--snapshot", snapshot, "--name", "join",
                         "--family", "rectangle", "--sizes", "256x256",
                         "--instances", "16", "--count", "300",
                         "--side", "left"]) == 0
            capsys.readouterr()
            with open(snapshot, "rb") as handle:
                assert handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC
            assert main(["estimate", "--snapshot", snapshot,
                         "--name", "join"]) == 0
            results.append(json.loads(capsys.readouterr().out))
        assert results[0] == results[1]

    def test_boxes_file_and_range_query(self, tmp_path, capsys):
        snapshot = str(tmp_path / "svc.json")
        boxes_file = tmp_path / "boxes.json"
        boxes_file.write_text(json.dumps([[0, 0, 20, 20], [10, 10, 99, 99],
                                          [200, 200, 255, 255]]))
        assert main(["ingest", "--snapshot", snapshot, "--name", "rq",
                     "--family", "range", "--sizes", "256,256",
                     "--instances", "16", "--side", "data",
                     "--boxes", str(boxes_file)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--snapshot", snapshot, "--name", "rq",
                     "--query", "0,0,128,128"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["left_count"] == 3

    def test_estimate_explain_prints_compiled_program(self, tmp_path, capsys):
        """Satellite: --explain shows the program a query compiles to."""
        snapshot = str(tmp_path / "svc.json")
        assert main(["ingest", "--snapshot", snapshot, "--name", "rq",
                     "--family", "range", "--sizes", "256,256",
                     "--instances", "16", "--side", "data",
                     "--count", "20"]) == 0
        capsys.readouterr()
        assert main(["estimate", "--snapshot", snapshot, "--name", "rq",
                     "--query", "0,0,128,128", "--explain"]) == 0
        explained = json.loads(capsys.readouterr().out)
        assert explained["name"] == "rq" and explained["family"] == "range"
        program = explained["program"]
        assert program["num_instances"] == 16
        assert len(program["terms"]) == 4  # {I, U}^2 counter words
        assert all(request["cover_size"] >= 1
                   for request in program["letter_sum_requests"])
        reduction = program["reduction"]
        assert reduction["group_size"] * reduction["num_groups"] == \
            reduction["total_instances"]

    def test_explain_queryless_family_and_query_rejection(self, tmp_path,
                                                          capsys):
        snapshot = str(tmp_path / "svc.json")
        assert main(["ingest", "--snapshot", snapshot, "--name", "join",
                     "--family", "rectangle", "--sizes", "256x256",
                     "--instances", "16", "--count", "10"]) == 0
        capsys.readouterr()
        assert main(["estimate", "--snapshot", snapshot, "--name", "join",
                     "--explain"]) == 0
        explained = json.loads(capsys.readouterr().out)
        assert explained["program"]["letter_sum_requests"] == []
        assert len(explained["program"]["terms"]) == 4  # {I, E}^2 pairs
        # A queryable family needs a query to compile.
        assert main(["ingest", "--snapshot", snapshot, "--name", "rq",
                     "--family", "range", "--sizes", "256x256",
                     "--instances", "16", "--side", "data",
                     "--count", "10"]) == 0
        capsys.readouterr()
        assert main(["estimate", "--snapshot", snapshot, "--name", "rq",
                     "--explain"]) == 1
        assert "pass --query" in capsys.readouterr().err

    def test_unregistered_name_needs_family(self, tmp_path, capsys):
        snapshot = str(tmp_path / "svc.json")
        assert main(["ingest", "--snapshot", snapshot, "--name", "ghost",
                     "--count", "10"]) == 1
        assert "error" in capsys.readouterr().err

    def test_conflicting_flags_for_existing_name_rejected(self, tmp_path, capsys):
        snapshot = str(tmp_path / "svc.json")
        assert main(["ingest", "--snapshot", snapshot, "--name", "join",
                     "--family", "rectangle", "--sizes", "256x256",
                     "--instances", "16", "--count", "10"]) == 0
        capsys.readouterr()
        assert main(["ingest", "--snapshot", snapshot, "--name", "join",
                     "--family", "epsilon", "--sizes", "128x128",
                     "--epsilon", "3", "--count", "10"]) == 1
        err = capsys.readouterr().err
        assert "already registered with a different configuration" in err
        # Matching flags (or none) are still accepted.
        assert main(["ingest", "--snapshot", snapshot, "--name", "join",
                     "--family", "rectangle", "--instances", "16",
                     "--count", "10", "--side", "right"]) == 0

    def test_missing_snapshot_is_a_clean_error(self, tmp_path, capsys):
        assert main(["estimate", "--snapshot", str(tmp_path / "nope.json"),
                     "--name", "x"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_offline_delete_retracts_an_earlier_insert(self, tmp_path, capsys):
        """``ingest --kind delete`` on a ``--snapshot`` file applies the
        deletion and writes the file back: the box count falls by what was
        deleted, back to 0 once every insert is retracted."""
        snapshot = str(tmp_path / "svc.snap")
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps([[0, 0, 20, 20]]))
        second.write_text(json.dumps([[10, 10, 99, 99]]))
        assert main(["ingest", "--snapshot", snapshot, "--name", "rq",
                     "--family", "range", "--sizes", "256,256",
                     "--instances", "16", "--side", "data",
                     "--boxes", str(first)]) == 0
        assert main(["ingest", "--snapshot", snapshot, "--name", "rq",
                     "--side", "data", "--boxes", str(second)]) == 0
        capsys.readouterr()

        def delete(boxes) -> dict:
            assert main(["ingest", "--snapshot", snapshot, "--name", "rq",
                         "--side", "data", "--kind", "delete",
                         "--boxes", str(boxes)]) == 0
            return json.loads(capsys.readouterr().out)

        reply = delete(first)
        assert (reply["created"], reply["kind"], reply["boxes"]) == (False, "delete", 1)
        assert main(["estimate", "--snapshot", snapshot, "--name", "rq",
                     "--query", "0,0,128,128"]) == 0
        assert json.loads(capsys.readouterr().out)["left_count"] == 1
        delete(second)
        assert EstimationService.load(snapshot).merged_view("rq").count == 0

    def test_estimate_after_every_insert_is_deleted_names_the_deletion(self, tmp_path,
                                                                       capsys):
        snapshot = str(tmp_path / "svc.snap")
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([[0, 0, 20, 20], [10, 10, 99, 99]]))
        common = ["ingest", "--snapshot", snapshot, "--name", "rq", "--side", "data",
                  "--boxes", str(boxes)]
        assert main(common + ["--family", "range", "--sizes", "256,256",
                              "--instances", "16"]) == 0
        assert main(common + ["--kind", "delete"]) == 0
        capsys.readouterr()
        assert main(["estimate", "--snapshot", snapshot, "--name", "rq",
                     "--query", "0,0,128,128"]) == 1
        assert ("estimate requested before any data was inserted, "
                "or after all of it was deleted") in capsys.readouterr().err

    def test_epsilon_family_generates_points(self, tmp_path, capsys):
        snapshot = str(tmp_path / "svc.json")
        assert main(["ingest", "--snapshot", snapshot, "--name", "eps",
                     "--family", "epsilon", "--sizes", "256x256",
                     "--instances", "16", "--epsilon", "4",
                     "--count", "100", "--side", "left"]) == 0
        capsys.readouterr()
        assert main(["ingest", "--snapshot", snapshot, "--name", "eps",
                     "--side", "right", "--count", "100",
                     "--data-seed", "3"]) == 0
        capsys.readouterr()
        assert main(["estimate", "--snapshot", snapshot, "--name", "eps"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["left_count"] == 100


class TestWalCommand:
    TORN = b"\xde\xad\xbe\xef torn record"

    def _log(self, wal_dir) -> list[int]:
        """register, insert 3, delete 1 — then a torn tail, as a crash
        mid-append leaves it."""
        from repro.service import EstimatorSpec
        from repro.wal import WalWriter
        from repro.wal.reader import list_segments

        rows = np.array([[0, 0, 9, 9], [5, 5, 20, 20], [30, 30, 40, 40]])
        with WalWriter(wal_dir, sync="none") as writer:
            seqnos = [
                writer.append_register("rq", EstimatorSpec.create(
                    "range", (64, 64), 8).to_dict()),
                writer.append_update("rq", "data", "insert", rows),
                writer.append_update("rq", "data", "delete", rows[:1]),
            ]
        with open(list_segments(wal_dir)[-1], "ab") as handle:
            handle.write(self.TORN)
        return seqnos

    def _report(self, capsys, *args) -> tuple[list[dict], dict]:
        """The one-line ``--events`` records, then the indented report."""
        assert main(["wal", *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("{")
        return ([json.loads(line) for line in lines[:start]],
                json.loads("\n".join(lines[start:])))

    def test_reports_records_boxes_and_the_torn_tail(self, tmp_path, capsys):
        wal_dir = str(tmp_path / "wal")
        seqnos = self._log(wal_dir)
        events, report = self._report(capsys, "--dir", wal_dir)
        assert events == []
        assert (report["records"], report["boxes"], report["last_seqno"],
                report["torn_bytes"]) == (3, 4, seqnos[-1], len(self.TORN))
        assert sum(segment["truncated_bytes"]
                   for segment in report["segments"]) == len(self.TORN)

    def test_since_and_events(self, tmp_path, capsys):
        wal_dir = str(tmp_path / "wal")
        register, insert, delete = self._log(wal_dir)
        events, report = self._report(capsys, "--dir", wal_dir,
                                      "--since", str(register), "--events")
        assert events == [
            {"seqno": insert, "type": "update", "name": "rq", "side": "data",
             "kind": "insert", "rows": 3},
            {"seqno": delete, "type": "update", "name": "rq", "side": "data",
             "kind": "delete", "rows": 1},
        ]
        assert (report["since"], report["records"], report["boxes"],
                report["last_seqno"]) == (register, 2, 4, delete)
        _, past_the_end = self._report(capsys, "--dir", wal_dir,
                                       "--since", str(delete))
        assert (past_the_end["records"], past_the_end["boxes"],
                past_the_end["torn_bytes"]) == (0, 0, len(self.TORN))
