"""End-to-end tests for the command-line interface.

Commands run through ``main(argv)`` with captured stdout/stderr, so these
tests cover argument parsing, dispatch, exit codes, and output formatting
exactly the way a shell user sees them.  Report serialisation is pinned to
byte identity: the same verification run must always produce the same file.
"""

import csv
import io
import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from primebounds import bounds, sieve, verify
from primebounds.bounds import lookup, registry_list
from primebounds.cli import (
    ENV_CHECKPOINT_DIR,
    RunConfig,
    _checkpoint_path,
    _gate_extended,
    config_from_args,
    emit_report,
    main,
)
from primebounds.errors import InvalidRangeError


def _scan_one(spec, lo, hi):
    """The report of one claim scanned alone over [lo, hi]."""
    (claim,) = verify.scan_claims([spec], lo, hi, resolve_crossings=False)
    return claim.report


@pytest.fixture(scope="module")
def failing_report():
    """A small run with counterexamples: 15 failures of thm3.2.upper below 49."""
    return _scan_one(lookup("thm3.2.upper"), 2, 10_000)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(command="registry")
        assert cfg.segment_odds == sieve.DEFAULT_SEGMENT_ODDS
        assert cfg.report_format == "json"
        assert not cfg.extended

    @pytest.mark.parametrize("every", [-5, 0])
    def test_checkpoint_every_must_be_positive(self, every):
        with pytest.raises(InvalidRangeError):
            RunConfig(command="sieve", checkpoint_every=every)

    @pytest.mark.parametrize("size", [1, 3, 4, 512, 1000, 2**20 + 1])
    def test_segment_size_must_be_power_of_two(self, size):
        with pytest.raises(InvalidRangeError):
            RunConfig(command="sieve", segment_odds=size)

    def test_range_must_be_ordered(self):
        with pytest.raises(InvalidRangeError):
            RunConfig(command="verify", range_lo=9, range_hi=2)
        RunConfig(command="verify", range_lo=2, range_hi=2)  # equal is fine

    def test_format_whitelist(self):
        with pytest.raises(InvalidRangeError):
            RunConfig(command="verify", report_format="xml")


class TestReportFormats:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_counterexample_appears_in_every_format(self, failing_report, fmt):
        assert failing_report.counterexamples
        cx = failing_report.counterexamples[-1]
        out = emit_report(failing_report, fmt).decode("utf-8")
        assert str(cx.x) in out
        # the exact decimal endpoint strings are shared across formats
        lo_str, _ = cx.lhs.decimal_pair()
        assert lo_str in out

    def test_text_includes_anchor(self, failing_report):
        out = emit_report(failing_report, "text").decode("utf-8")
        assert lookup(failing_report.bound_id).anchor in out
        assert verify.TOOL_VERSION in out

    def test_csv_layout(self, failing_report):
        rows = list(csv.reader(io.StringIO(emit_report(failing_report, "csv").decode("utf-8"))))
        assert rows[0][:4] == ["bound_id", "range_lo", "range_hi", "checked"]
        assert rows[1][0] == failing_report.bound_id
        assert int(rows[1][3]) == failing_report.checked
        assert rows[2] == ["counterexample_x", "lhs_lo", "lhs_hi", "rhs_lo", "rhs_hi"]
        assert len(rows) == 3 + len(failing_report.counterexamples)

    def test_unknown_format_rejected(self, failing_report):
        with pytest.raises(InvalidRangeError):
            emit_report(failing_report, "xml")


class TestReproducibility:
    def test_written_reports_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(
                ["verify", "--bound", "prop3.10.lower", "--from", "2",
                 "--to", "19423", "--report", str(p)]
            )
            assert code == 1
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_merged_shards_serialize_like_the_whole(self, failing_report):
        spec = lookup(failing_report.bound_id)
        cut = sieve.next_prime(5000)  # prime-aligned split keeps cells intact
        parts = [
            _scan_one(spec, 2, cut - 1),
            _scan_one(spec, cut, 10_000),
        ]
        merged = verify.merge_reports(parts[0], parts[1])
        freeze = lambda r: emit_report(replace(r, wall_time=0.0), "json")
        assert freeze(merged) == freeze(failing_report)


class TestVerifyCommand:
    def test_below_threshold_exits_one(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code = main(
            ["verify", "--bound", "prop3.10.lower", "--from", "2",
             "--to", "19423", "--report", str(path)]
        )
        assert code == 1
        report = json.loads(path.read_text())
        assert report["failures"] == 310
        assert report["checked"] == 2200
        assert report["indeterminates"] == 0
        assert report["wall_time_s"] == 0.0  # zeroed for reproducible files
        assert "prop3.10.lower: 2200 checked, 310 fail" in capsys.readouterr().err

    def test_clean_range_exits_zero(self, capsys):
        code = main(
            ["verify", "--bound", "thm4.1.gap3", "--from", "6034393",
             "--to", "100000000"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0
        assert report["indeterminates"] == 0
        assert report["checked"] == 5_346_386

    def test_multiple_bounds_share_one_pass(self, tmp_path, capsys):
        path = tmp_path / "multi.json"
        code = main(
            ["verify", "--bound", "cor3.3.a.upper", "--bound", "cor3.3.b.upper",
             "--from", "2", "--to", "1000", "--report", str(path)]
        )
        assert code == 1
        text = path.read_text()
        decoder = json.JSONDecoder()
        docs, pos = [], 0
        while pos < len(text):
            doc, end = decoder.raw_decode(text, pos)
            docs.append(doc)
            pos = end + 1  # skip the newline between concatenated reports
        assert [d["bound_id"] for d in docs] == ["cor3.3.a.upper", "cor3.3.b.upper"]
        assert all(d["checked"] == 168 for d in docs)
        err = capsys.readouterr().err
        assert "cor3.3.a.upper:" in err and "cor3.3.b.upper:" in err


    def test_resumed_report_names_its_checkpoint(self, tmp_path, capsys):
        ck, resumed = tmp_path / "ck.jsonl", tmp_path / "resumed.json"
        assert main(["sieve", "--to", "10000", "--checkpoint-out", str(ck)]) == 0
        argv = ["verify", "--bound", "prop3.10.lower", "--from", "10001", "--to", "20000"]
        assert main(argv + ["--resume", str(ck), "--report", str(resumed)]) == 1
        assert json.loads(resumed.read_text())["checkpoint_ref"] == str(ck)
        capsys.readouterr()
        assert main(argv) == 1
        direct = json.loads(capsys.readouterr().out)
        assert "checkpoint_ref" not in direct
        doc = json.loads(resumed.read_text())
        del doc["checkpoint_ref"]
        assert doc == direct

    def test_resume_from_the_checkpoints_own_x(self, tmp_path, capsys):
        # the checkpoint's last line is at x = 100000, and --from may be x
        ck, resumed = tmp_path / "ck.jsonl", tmp_path / "resumed.json"
        assert main(["sieve", "--to", "100000", "--checkpoint-out", str(ck)]) == 0
        argv = ["verify", "--bound", "prop5.1.upper", "--from", "100000", "--to", "200000"]
        assert main(argv + ["--resume", str(ck), "--report", str(resumed)]) == 1
        capsys.readouterr()
        assert main(argv) == 1
        direct = json.loads(capsys.readouterr().out)
        doc = json.loads(resumed.read_text())
        del doc["checkpoint_ref"]
        assert doc == direct


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["verify"],
            ["verify", "--bound", "thm3.2.upper"],
            ["sieve"],
            ["eval", "--bound", "nosuch", "--x", "10"],
            ["eval", "--bound", "thm3.2.upper"],
            ["eval", "--bound", "thm3.2.upper", "--x", "abc"],
            ["crossing", "--bound", "a.l", "--bound", "b.l", "--to", "100"],
            ["verify", "--bound", "thm3.2.upper", "--from", "9", "--to", "2"],
            ["verify", "--bound", "thm3.2.upper", "--from", "2", "--to", "100",
             "--segment-size", "1000"],
            # one segment-size rule for claims with and without a summed lane
            ["verify", "--bound", "thm3.2.upper", "--from", "2", "--to", "100",
             "--segment-size", "4"],
            ["verify", "--bound", "thm4.1.gap4", "--from", "2", "--to", "100",
             "--segment-size", "4"],
            ["sieve", "--to", "100000", "--checkpoint-out", "ck.jsonl",
             "--checkpoint-every", "-5"],
            ["sieve", "--to", "100000", "--checkpoint-out", "ck.jsonl",
             "--checkpoint-every", "0"],
            # each subcommand takes only the options it reads
            ["sieve", "--from", "500", "--to", "1000"],
            ["eval", "--bound", "thm3.2.upper", "--x", "10", "--extended"],
            ["proof", "--bound", "thm3.8.lower", "--segment-size", "4096"],
            ["reproduce", "--from", "5", "--to", "1000"],
            ["reproduce", "--bound", "x", "--to", "1000"],
        ],
    )
    def test_exit_three(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # a refused run must not write a checkpoint here
        assert main(argv) == 3
        capsys.readouterr()  # drain usage noise
        assert not (tmp_path / "ck.jsonl").exists()

    @pytest.mark.parametrize(
        "bad", ["missing_fields", "not_json", "x_as_text", "theta_reversed", "pi_negative"]
    )
    @pytest.mark.parametrize("command", ["sieve", "verify"])
    def test_malformed_last_checkpoint_line_exits_three(self, command, bad, tmp_path, capsys):
        # a valid line followed by a malformed one: the last line is the one read
        ck = tmp_path / "ck.jsonl"
        assert main(["sieve", "--to", "10000", "--checkpoint-out", str(ck)]) == 0
        rec = json.loads(ck.read_text())
        line = {
            "missing_fields": json.dumps({k: rec[k] for k in ("version", "config_digest")}),
            "not_json": "not json",
            "x_as_text": json.dumps(dict(rec, x=str(rec["x"]))),
            "theta_reversed": json.dumps(dict(rec, theta=rec["theta"][::-1])),
            "pi_negative": json.dumps(dict(rec, pi=-3)),
        }[bad]
        with open(ck, "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        argv = {
            "sieve": ["sieve", "--to", "20000"],
            "verify": ["verify", "--bound", "prop3.10.lower", "--from", "10001", "--to", "20000"],
        }[command]
        assert main(argv + ["--resume", str(ck)]) == 3
        assert "checkpoint" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as ei:
            main(["--help"])
        assert ei.value.code == 0


class TestExtendedGate:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve"],
            ["verify", "--bound", "thm4.1.gap3", "--from", "1999000000"],
            ["crossing", "--bound", "thm4.1.gap3"],
            ["reproduce"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refused_without_flag(self, argv, capsys, monkeypatch):
        # refused before anything is sieved
        def no_sieving(*args, **kwargs):
            raise AssertionError("sieved past the gate")

        monkeypatch.setattr(sieve, "pi_theta_at", no_sieving)
        monkeypatch.setattr(verify, "scan_claims", no_sieving)
        assert main(argv + ["--to", "2000000000"]) == 3
        assert "--extended" in capsys.readouterr().err

    def test_runs_without_a_terminal(self, capsys, monkeypatch):
        # --extended alone opens the gate; nothing asks for confirmation
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        argv = ["verify", "--bound", "thm4.1.gap3", "--from", "1000000000000",
                "--to", "1000000100000", "--extended"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["checked"], report["failures"]) == (3615, 0)

    def test_yes_is_a_usage_error(self, capsys):
        assert main(["sieve", "--to", "2000000000", "--extended", "--yes"]) == 3
        assert "--yes" in capsys.readouterr().err

    def test_gate_opens_with_extended(self):
        cfg = RunConfig(command="sieve", range_lo=2, range_hi=2 * 10**9, extended=True)
        assert _gate_extended(cfg) is None

    def test_gate_inactive_at_desk_scale(self):
        cfg = RunConfig(command="sieve", range_lo=2, range_hi=10**9)
        assert _gate_extended(cfg) is None


class TestEnvOverrides:
    def test_segment_size_is_not_read_from_the_environment(self, monkeypatch, capsys):
        # --segment-size is the one way to set it
        monkeypatch.setenv("PRIMEBOUNDS_SEGMENT_ODDS", "abc")
        assert main(["registry", "--prefix", "thm3.2"]) == 0
        assert "thm3.2.upper" in capsys.readouterr().out
        assert config_from_args(["sieve", "--to", "1000"]).segment_odds == sieve.DEFAULT_SEGMENT_ODDS

    def test_checkpoint_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CHECKPOINT_DIR, str(tmp_path))
        assert _checkpoint_path("ck.jsonl") == str(tmp_path / "ck.jsonl")
        assert _checkpoint_path("/abs/ck.jsonl") == "/abs/ck.jsonl"
        assert _checkpoint_path(None) is None

    def test_checkpoint_dir_end_to_end(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(ENV_CHECKPOINT_DIR, str(tmp_path))
        assert main(["sieve", "--to", "100000", "--checkpoint-out", "ck.jsonl"]) == 0
        capsys.readouterr()
        assert (tmp_path / "ck.jsonl").exists()


class TestSieveCommand:
    def test_counts_to_one_million(self, capsys):
        assert main(["sieve", "--to", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "x 1000000" in out
        assert "pi 78498" in out
        assert "theta [" in out

    def test_full_adds_prime_sums(self, capsys):
        assert main(["sieve", "--to", "10000", "--full"]) == 0
        out = capsys.readouterr().out
        for label in ("psi [", "sum_recip [", "sum_logp [", "sum_log1m ["):
            assert label in out
        # psi adds the logs of the prime powers, 4 among them, to theta
        (theta_hi,) = re.findall(r"^theta \[\S+, (\S+)\]$", out, re.M)
        (psi_lo,) = re.findall(r"^psi \[(\S+), \S+\]$", out, re.M)
        assert Fraction(psi_lo) > Fraction(theta_hi)

    def test_checkpoint_resume_matches_direct_run(self, tmp_path, capsys):
        ck = tmp_path / "state.jsonl"
        assert main(["sieve", "--to", "2000000", "--checkpoint-out", str(ck)]) == 0
        capsys.readouterr()
        assert main(["sieve", "--to", "3000000", "--resume", str(ck), "--full"]) == 0
        resumed = capsys.readouterr().out
        assert main(["sieve", "--to", "3000000", "--full"]) == 0
        direct = capsys.readouterr().out
        assert resumed == direct  # exact accumulators are split-invariant
        psi = [line for line in direct.splitlines() if line.startswith("psi [")]
        assert len(psi) == 1 and psi[0] in resumed.splitlines()

    def test_checkpoint_lines_fall_at_span_ends(self, tmp_path, capsys):
        # a line goes at the first span end at or past each mark; the first
        # default span, 2 * --segment-size integers from 2, ends at 8,388,609
        ck = tmp_path / "ck.jsonl"
        argv = ["sieve", "--to", "10000000", "--checkpoint-every", "1000000"]
        assert main(argv + ["--checkpoint-out", str(ck)]) == 0
        xs = [json.loads(line)["x"] for line in ck.read_text().splitlines()]
        assert 2 + 2 * sieve.DEFAULT_SEGMENT_ODDS - 1 == 8_388_609
        assert xs == [8_388_609, 10_000_000]


class TestEvalCommand:
    def test_point_enclosure(self, capsys):
        assert main(["eval", "--bound", "thm3.2.upper", "--x", "1e15"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("thm3.2.upper(1e15) in [")
        lo, hi = out.splitlines()[0].split("[")[1].rstrip("]").split(", ")
        assert float(lo) <= float(hi)
        assert float(lo) == pytest.approx(29844680438628.4, rel=1e-9)

    def test_multiple_bounds(self, capsys):
        code = main(
            ["eval", "--bound", "thm3.2.upper", "--bound", "cor3.3.a.upper",
             "--x", "1000000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "thm3.2.upper(1000000)" in out
        assert "cor3.3.a.upper(1000000)" in out

    @pytest.mark.parametrize("x", ["nan", "inf", "1e400"])
    def test_non_finite_x_is_refused(self, x, capsys):
        assert main(["eval", "--bound", "thm3.2.upper", "--x", x]) == 3
        assert "--x must be a finite number" in capsys.readouterr().err

    def test_negative_below_the_denominator_root(self, capsys):
        # x/D as it stands: the six-term denominator is negative at 3
        assert main(["eval", "--bound", "thm3.2.upper", "--x", "3"]) == 0
        out = capsys.readouterr().out
        hi = out.splitlines()[0].split("[")[1].rstrip("]").split(", ")[1]
        assert float(hi) < 0


class TestCrossingCommand:
    def test_implied_threshold(self, capsys):
        assert main(["crossing", "--bound", "prop3.10.lower", "--to", "100000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "bound_id": "prop3.10.lower",
            "search": [2, 100000],
            "largest_failing_x": 19421,
            "implied_threshold": 19423,
            "failures": 310,
            "checked": 9592,
        }
        # the bisected threshold: the binding endpoint of an upper bound's
        # failing cell is its base
        assert main(["crossing", "--bound", "thm3.2.upper", "--to", "1000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["largest_failing_x"], doc["implied_threshold"]) == (47, 49)

    def test_no_violation_reports_null(self, capsys):
        code = main(
            ["crossing", "--bound", "prop3.10.lower", "--from", "19423",
             "--to", "100000"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["crossing"] is None


class TestReproduceCommand:
    def _run(self, argv, capsys):
        code = main(["reproduce"] + argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_thresholds_to_one_million_are_consistent(self, capsys):
        code, out, err = self._run(["--to", "1000000"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ceiling"] == 1_000_000
        assert len(doc["claims"]) == 17
        assert all(row["consistent"] for row in doc["claims"])
        row = {r["bound_id"]: r for r in doc["claims"]}["prop3.10.lower"]
        assert (row["implied_threshold"], row["failures"], row["tight"]) == (19423, 310, True)
        # the table goes to stderr, one line per claim
        assert "ALL CONSISTENT: True" in err
        assert sum(" x0=" in line for line in err.splitlines()) == 17

    def test_segment_size_does_not_change_the_record(self, capsys):
        _, default, _ = self._run(["--to", "1000000"], capsys)
        _, tiny, _ = self._run(["--to", "1000000", "--segment-size", "1024"], capsys)
        assert tiny == default

    def test_threshold_printed_too_low_exits_one(self, capsys, monkeypatch):
        # prop3.10.lower fails at 19421, above a printed 19000
        spec = lookup("prop3.10.lower")
        monkeypatch.setitem(bounds._REGISTRY, spec.id, replace(spec, threshold_x0=19000))
        code, out, err = self._run(["--to", "1000000"], capsys)
        assert code == 1
        row = {r["bound_id"]: r for r in json.loads(out)["claims"]}[spec.id]
        assert (row["printed_threshold"], row["consistent"]) == (19000, False)
        assert "MISMATCH" in err

    def test_ceiling_below_two_exits_three(self, capsys):
        assert self._run(["--to", "1"], capsys)[0] == 3


class TestProofCommand:
    def test_certificate_emitted(self, capsys):
        assert main(["proof", "--bound", "thm3.8.lower"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True
        assert doc["basis"] == "sturm-ray"
        assert doc["sense"] in ("increasing", "decreasing")
        for coeff in doc["certificate"]["polynomial"]:
            Fraction(coeff)  # exact rational strings

    def test_refuted_shape_exits_one(self, capsys):
        assert main(["proof", "--bound", "thm3.2.upper", "--x-start", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is False


class TestRegistryCommand:
    def test_json_lists_catalogue(self, capsys):
        assert main(["registry", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == len(registry_list())
        by_id = {d["id"]: d for d in docs}
        spec = lookup("thm3.2.upper")
        assert by_id["thm3.2.upper"]["coefficients"] == [str(c) for c in spec.coefficients]
        for doc in docs:
            for coeff in doc["coefficients"]:
                Fraction(coeff)

    def test_csv_format(self, capsys):
        assert main(["registry", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "id"
        assert len(rows) == 1 + len(registry_list())

    def test_prefix_filter(self, capsys):
        assert main(["registry", "--prefix", "thm4.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("thm4.1.") for line in lines)
