"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestInfoCommands:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in ("v-lora", "s-lora", "punica", "dlora"):
            assert name in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Qwen-VL-7B" in out and "LLaVA-1.5-13B" in out


class TestServe:
    def test_serve_prints_summary(self, capsys):
        rc = main(["serve", "--system", "v-lora", "--rate", "3",
                   "--duration", "6", "--adapters", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg_token_latency_ms" in out

    def test_serve_json_output(self, capsys):
        rc = main(["serve", "--rate", "2", "--duration", "5",
                   "--adapters", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] > 0

    def test_serve_video_workload(self, capsys):
        rc = main(["serve", "--workload", "video", "--rate", "2",
                   "--duration", "5", "--adapters", "2"])
        assert rc == 0
        assert "avg_token_latency_ms" in capsys.readouterr().out

    def test_serve_trace_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(["serve", "--rate", "2", "--duration", "5",
                   "--adapters", "2", "--trace-out", str(trace)])
        assert rc == 0
        assert trace.exists()
        capsys.readouterr()
        rc = main(["serve", "--rate", "2", "--duration", "5",
                   "--adapters", "2", "--trace-in", str(trace)])
        assert rc == 0
        assert "avg_token_latency_ms" in capsys.readouterr().out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--system", "vllm"])

    def test_missing_trace_file_is_an_error_not_a_traceback(self, capsys):
        rc = main(["serve", "--trace-in", "/nonexistent/trace.jsonl"])
        assert rc == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_malformed_trace_is_an_error_not_a_traceback(self, tmp_path,
                                                         capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"adapter_id": "lora-0"}\n')  # missing fields
        rc = main(["serve", "--trace-in", str(trace)])
        assert rc == 2
        assert "malformed trace" in capsys.readouterr().err

    def test_negative_fault_rate_rejected(self, capsys):
        rc = main(["serve", "--rate", "2", "--duration", "4",
                   "--swap-fail-rate", "-1"])
        assert rc == 2
        assert "fault rates" in capsys.readouterr().err

    def test_negative_scale_stall_rate_rejected(self, capsys):
        rc = main(["serve", "--rate", "2", "--duration", "4",
                   "--scale-stall-rate", "-1"])
        assert rc == 2
        assert "fault rates" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--adapters", "0"],
        ["--rate", "-3"],
        ["--duration", "-1"],
        ["--skew", "1.5"],
        ["--workload", "diurnal", "--trough", "-2"],
        ["--workload", "diurnal", "--period", "0"],
    ], ids=["adapters", "rate", "duration", "skew", "trough", "period"])
    def test_bad_workload_or_builder_flag_is_an_error_not_a_traceback(
            self, flags, capsys):
        rc = main(["serve", "--rate", "2", "--duration", "4", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err

    def test_give_up_after_bounds_single_gpu_run(self, capsys):
        rc = main(["serve", "--rate", "8", "--duration", "3",
                   "--adapters", "2", "--json", "--give-up-after", "0.05"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aborted_deadline_exceeded"] > 0
        assert payload["aborted"] == payload["aborted_deadline_exceeded"]
        assert payload["completed"] + payload["aborted"] == 24

    def test_soa_core_rejects_give_up_after(self, capsys):
        rc = main(["serve", "--core", "soa", "--rate", "2", "--duration",
                   "2", "--adapters", "2", "--give-up-after", "0.05"])
        assert rc == 2
        assert "--give-up-after" in capsys.readouterr().err

    def test_bad_deadline_factor_rejected(self, capsys):
        rc = main(["serve", "--deadline-factor", "0"])
        assert rc == 2
        assert "deadline-factor" in capsys.readouterr().err


class TestServeWithFaults:
    def test_serve_under_faults_reports_degradation(self, capsys):
        rc = main(["serve", "--rate", "4", "--duration", "5",
                   "--adapters", "4", "--json",
                   "--swap-fail-rate", "0.5",
                   "--kv-pressure-rate", "0.3",
                   "--engine-slow-rate", "0.2",
                   "--fault-seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] + payload["aborted"] > 0
        assert "goodput_rps" in payload

    def test_fault_runs_are_seed_reproducible(self, capsys):
        argv = ["serve", "--rate", "3", "--duration", "4", "--adapters", "3",
                "--json", "--swap-fail-rate", "1.0", "--fault-seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestFuse:
    def test_fusion_plan(self, capsys):
        rc = main(["fuse", "--items",
                   "image_classification:4:0.9,video_classification:2:0.9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 adapters" in out

    def test_bad_spec_exit_code(self, capsys):
        assert main(["fuse", "--items", "garbage"]) == 2
        assert "bad item spec" in capsys.readouterr().err


class TestCompare:
    def test_compare_renders_chart_and_summary(self, capsys):
        rc = main(["compare", "--rates", "3,6", "--duration", "6",
                   "--adapters", "3", "--systems", "v-lora,dlora"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "V-LoRA reduction" in out
        assert "dlora" in out

    @pytest.mark.parametrize("rates", ["3,oops", "", "4;8", "2,-4", "0"])
    def test_malformed_rates_rejected(self, rates, capsys):
        rc = main(["compare", "--rates", rates, "--duration", "4"])
        assert rc == 2
        assert "malformed --rates" in capsys.readouterr().err

    def test_unknown_systems_rejected(self, capsys):
        rc = main(["compare", "--rates", "4", "--systems", "v-lora,vllm"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "vllm" in err
        assert "v-lora" in err  # lists the valid names


class TestTilingSearchCommand:
    def test_summary_printed(self, capsys):
        rc = main(["tiling-search", "--dim", "4096", "--rank", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winners=" in out
        assert "m=16" in out


class TestKernelsCommands:
    ARGS = ["--dims", "4096", "--ranks", "16", "--max-m", "256"]

    def test_search_then_hit_store(self, tmp_path, capsys):
        argv = ["kernels", "search", "--store-dir", str(tmp_path)] + self.ARGS
        rc = main(argv)
        assert rc == 0
        assert "source=search" in capsys.readouterr().out
        rc = main(argv)
        assert rc == 0
        assert "source=store" in capsys.readouterr().out

    def test_force_researches(self, tmp_path, capsys):
        argv = ["kernels", "search", "--store-dir", str(tmp_path)] + self.ARGS
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--force"]) == 0
        assert "source=search" in capsys.readouterr().out

    def test_json_summary(self, tmp_path, capsys):
        rc = main(["kernels", "search", "--store-dir", str(tmp_path),
                   "--json"] + self.ARGS)
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["source"] == "search"
        assert summary["entries"] > 0
        assert (tmp_path / f"table-{summary['fingerprint']}.json").exists()

    def test_inspect_lists_tables(self, tmp_path, capsys):
        assert main(["kernels", "search", "--store-dir", str(tmp_path)]
                    + self.ARGS) == 0
        capsys.readouterr()
        rc = main(["kernels", "inspect", "--store-dir", str(tmp_path),
                   "--json"])
        assert rc == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["tables"]) == 1
        assert listing["tables"][0]["stale"] is False

    def test_inspect_empty_store(self, tmp_path, capsys):
        rc = main(["kernels", "inspect", "--store-dir", str(tmp_path)])
        assert rc == 0
        assert "0 table(s)" in capsys.readouterr().out


class TestTraceCommands:
    def test_generate_then_stats(self, tmp_path, capsys):
        trace = tmp_path / "wl.jsonl"
        rc = main(["trace", "generate", "--out", str(trace),
                   "--rate", "4", "--duration", "8", "--adapters", "3"])
        assert rc == 0
        rc = main(["trace", "stats", "--path", str(trace)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out.split("wrote")[-1]
                           .split("\n", 1)[-1])
        assert stats["requests"] > 0
        assert "top_adapter_share" in stats

    def test_stats_on_missing_file_is_an_error(self, capsys):
        rc = main(["trace", "stats", "--path", "/nonexistent/wl.jsonl"])
        assert rc == 2
        assert "trace file not found" in capsys.readouterr().err
