"""CLI smoke tests."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig1" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available commands" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "Ice Lake" in out
        assert "295" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth" in out

    def test_landscape(self, capsys):
        assert main(["landscape", "--dataset", "flickr", "--platform", "sapphire"]) == 0
        out = capsys.readouterr().out
        assert "opt=" in out

    def test_bad_command(self):
        with pytest.raises(SystemExit):
            main(["nonexistent"])


class TestBackendValidation:
    def test_unknown_backend_fails_fast(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--backend", "thread"])
        err = capsys.readouterr().err
        assert "--backend" in err and "'thread'" in err
        assert "inline" in err and "process" in err

    def test_backend_case_insensitive(self, capsys):
        assert main(
            ["train", "--backend", "INLINE", "--processes", "1", "--epochs", "1",
             "--scale", "9", "--batch", "64"]
        ) == 0
        assert "backend=inline" in capsys.readouterr().out


class TestTrainPrefetch:
    def test_prefetch_flag_smoke(self, capsys):
        assert main(
            ["train", "--processes", "2", "--epochs", "1", "--scale", "9",
             "--batch", "64", "--prefetch", "--samplers", "2", "--queue-depth", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "prefetch(s=2, q=4)" in out
        assert "sample wait s" in out


class TestTrainPersistent:
    def test_persistent_smoke_reports_launch_column(self, capsys):
        assert main(
            ["train", "--backend", "process", "--processes", "2", "--epochs", "2",
             "--scale", "9", "--batch", "64", "--persistent"]
        ) == 0
        out = capsys.readouterr().out
        assert "persistent" in out
        assert "launch s" in out

    def test_no_persistent_selects_respawn(self, capsys):
        assert main(
            ["train", "--backend", "process", "--processes", "2", "--epochs", "1",
             "--scale", "9", "--batch", "64", "--no-persistent"]
        ) == 0
        assert "respawn" in capsys.readouterr().out

    def test_persistent_rejected_off_process_backend(self):
        with pytest.raises(SystemExit, match="process backend only"):
            main(
                ["train", "--backend", "inline", "--processes", "1", "--epochs", "1",
                 "--scale", "9", "--batch", "64", "--persistent"]
            )

    def test_no_persistent_rejected_off_process_backend(self):
        with pytest.raises(SystemExit, match="process backend only"):
            main(
                ["train", "--backend", "inline", "--processes", "1", "--epochs", "1",
                 "--scale", "9", "--batch", "64", "--no-persistent"]
            )


class TestServeBench:
    def test_inline_smoke_reports_latency_and_cache(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "48", "--rate", "2000",
             "--max-batch", "4", "--max-wait-ms", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput req/s" in out
        assert "latency p50 ms" in out and "latency p99 ms" in out
        assert "cache hit rate" in out
        assert "mode=inline" in out

    def test_pool_smoke_reports_pool_and_arena_stats(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "32", "--mode", "pool",
             "--serve-workers", "2", "--timeout", "30", "--max-batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "mode=pool" in out
        assert "launches=1" in out
        assert "slot hits=" in out and "pickle fallbacks=" in out

    def test_slo_verdict_rendered(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "24", "--slo-ms", "1e9"]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO" in out and "MET" in out and "objective" in out

    def test_closed_loop_flag(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "24", "--closed",
             "--concurrency", "4"]
        ) == 0
        assert "closed(c=4)" in capsys.readouterr().out

    def test_frontier_batch_mode_smoke(self, capsys):
        """Micro-batches of up to 8 run the one frontier forward."""
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "32", "--rate", "5000",
             "--max-batch", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "mode=inline, " in out
        assert "service sample/merge/forward/cache ms" in out

    def test_queue_limit_reports_shed(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "24",
             "--queue-limit", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "shed (queue limit)" in out and "max queue" in out

    def test_swaps_report_flat_launches(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "30", "--mode", "pool",
             "--serve-workers", "2", "--timeout", "30", "--swaps", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "swap 1: generation=1, launches=1" in out
        assert "swap 2: generation=2, launches=1" in out

    def test_bad_mode_fails_in_parser(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--mode", "thread"])

    def test_bad_batch_mode_fails_in_parser(self, capsys):
        """The retired --batch-mode flag is rejected whatever its value."""
        for value in ("mega", "frontier"):
            with pytest.raises(SystemExit):
                main(["serve-bench", "--batch-mode", value])
            assert "unrecognized arguments: --batch-mode" in capsys.readouterr().err

    def test_zero_queue_limit_fails_in_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--queue-limit", "0"])
        assert "positive" in capsys.readouterr().err

    def test_negative_cache_fails_in_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--cache-entries", "-1"])
        assert "non-negative" in capsys.readouterr().err


class TestTrainPoolDiagnostics:
    def test_persistent_report_has_launches_and_parked_columns(self, capsys):
        assert main(
            ["train", "--backend", "process", "--processes", "2", "--epochs", "2",
             "--scale", "9", "--batch", "64", "--persistent"]
        ) == 0
        out = capsys.readouterr().out
        assert "launches" in out and "parked" in out

    def test_respawn_report_omits_pool_columns(self, capsys):
        assert main(
            ["train", "--backend", "process", "--processes", "2", "--epochs", "1",
             "--scale", "9", "--batch", "64", "--no-persistent"]
        ) == 0
        out = capsys.readouterr().out
        assert "launches" not in out and "parked" not in out


class TestServeBenchStreaming:
    def test_deltas_report_applied_and_flat_launches_inline(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "32", "--deltas", "3",
             "--delta-rate", "500", "--max-batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "deltas: applied=3/3" in out
        assert "generation=3" in out
        assert "invalidation=scoped" in out

    def test_deltas_into_live_pool_keep_launches_flat(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "32", "--mode", "pool",
             "--serve-workers", "2", "--timeout", "30", "--deltas", "2",
             "--delta-rate", "500", "--max-batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "deltas: applied=2/2" in out
        assert "launches=1" in out  # streaming never re-forked the pool

    def test_flush_invalidation_flag(self, capsys):
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "24", "--deltas", "1",
             "--delta-rate", "500", "--delta-invalidation", "flush"]
        ) == 0
        assert "invalidation=flush" in capsys.readouterr().out

    def test_report_json_is_one_full_document(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        assert main(
            ["serve-bench", "--scale", "9", "--requests", "24", "--deltas", "2",
             "--delta-rate", "500", "--staleness-budget", "1",
             "--slo-ms", "1e9", "--report-json", str(path)]
        ) == 0
        assert f"report-json: wrote {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        # one document carrying the whole ServingReport
        for section in ("latency_ms", "batching", "phases_ms", "cache",
                        "transport", "freshness", "slo", "bench"):
            assert section in doc
        assert doc["requests"] == 24
        assert doc["freshness"]["updates_applied"] == 2
        assert doc["freshness"]["graph_generation"] == 2
        assert doc["bench"]["staleness_budget"] == 1
        assert "batch_mode" not in doc["bench"]
        assert "scenario" not in doc["bench"]
        assert doc["slo"]["attainment"] == 1.0

    def test_bad_delta_invalidation_fails_in_parser(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--delta-invalidation", "psychic"])
