"""Command line behaviour: exit codes, config validation, report contents,
byte-identical reruns and report bytes frozen in ``data/report_digests.json``.

The report digests were written by the version whose figures path ran on
its own scenario and histogram types."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfq import cli
from dfq.cli import (
    ENV_SEED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    main,
    parse_run_config,
)
from dfq.figures import DEFAULT_SHOTS

NAN = float("nan")
REPORT_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
# case -> (argv, config file contents or None, the files whose sha256 is frozen).
# --out is relative: run_report.json echoes it.
REPORT_CASES = {
    "repro-figures-10000": (["repro-figures", "--shots", "10000", "--seed", "3", "--out", "out"],
                            None, ["summary.txt"]),
    "repro-figures-50": (["repro-figures", "--shots", "50", "--seed", "4", "--out", "out"],
                         None, ["summary.txt"]),
    "efficiency": (["efficiency", "--runs", "50", "--seed", "5", "--out", "out"],
                   None, ["efficiency.json"]),
    "run": (["run", "--trials", "3", "--seed", "6", "--out", "out"],
            {"write_transcripts": True}, ["run_report.json", "transcript_0002.jsonl"]),
    "attack-sweep": (["attack-sweep", "--model", "measure-resend", "--trials", "2000",
                      "--m-values", "0,1,5", "--seed", "7", "--out", "out"],
                     None, ["attack_sweep.csv", "attack_sweep.json"]),
}


def read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_run_config({})
        assert cfg["family"] == "dephasing"
        assert cfg["n"] == 3 and cfg["l"] == 8
        assert cfg["theta_policy"] == {"kind": "random"}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            parse_run_config({"familly": "dephasing"})

    def test_type_errors(self):
        with pytest.raises(ValueError):
            parse_run_config({"n": "three"})
        with pytest.raises(ValueError):
            parse_run_config({"delta": True})
        with pytest.raises(ValueError):
            parse_run_config({"trials": 0})
        with pytest.raises(ValueError):
            parse_run_config({"attack": {"kind": "nope"}})

    def test_secret_validation(self):
        with pytest.raises(ValueError):
            parse_run_config({"secrets": ["0101"]})  # wrong length for l=8
        cfg = parse_run_config({"l": 4, "secrets": ["0101", "0101", "0110"]})
        assert cfg["secrets"] == ["0101", "0101", "0110"]

    def test_secret_message_names_the_bit_count(self):
        with pytest.raises(ValueError) as caught:
            parse_run_config({"l": 3, "secrets": ["1a1", "101", "101"]})
        assert str(caught.value) == "secret '1a1' is not a string of 3 bits"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mostly(valid):
    """A well-formed value half the time, any JSON value otherwise."""
    return valid | _JSON


def _kind_object(kinds, fields):
    return st.fixed_dictionaries(
        {"kind": _mostly(st.sampled_from(kinds))}, optional={name: _JSON for name in fields}
    )


_CONFIGS = st.fixed_dictionaries({}, optional={
    "family": _mostly(st.sampled_from(["dephasing", "rotation"])),
    "n": _mostly(st.integers()),
    "l": _mostly(st.integers()),
    "delta": _mostly(st.floats()),
    "tolerable_error_rate": _mostly(st.floats()),
    "theta_policy": _mostly(_kind_object(["fixed", "random"], ["value"])),
    "attack": _mostly(_kind_object(
        ["none", "intercept-resend", "measure-resend", "entangle"],
        ["fake_family", "fake_value", "family", "basis", "unitary"],
    )),
})


class TestConfigFuzz:
    @settings(derandomize=True, max_examples=100, database=None, deadline=None)
    @given(_CONFIGS)
    def test_parse_returns_or_raises_value_error(self, data):
        try:
            parse_run_config(data)
        except ValueError:
            pass


class TestExitCodes:
    def test_unknown_field_is_config_error(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"bogus": 1}')
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_malformed_json_is_config_error(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{oops")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ["run", "--trials", "1"],
        ["attack-sweep", "--model", "intercept-resend", "--trials", "10", "--m-values", "1"],
        ["repro-figures", "--shots", "100"],
        ["efficiency", "--runs", "2"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_io_error(self, argv, tmp_path, capsys):
        (tmp_path / "file").write_text("")  # --out under a regular file cannot be created
        assert main([*argv, "--out", str(tmp_path / "file" / "out")]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_bad_m_values(self, tmp_path):
        code = main([
            "attack-sweep", "--model", "intercept-resend",
            "--m-values", "1,x", "--trials", "10", "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, config, env, mentions", [
        pytest.param(["run", "--n", "1"], None, None, (), id="run-n-1"),
        pytest.param(["run", "--l", "0"], None, None, (), id="run-l-0"),
        pytest.param(["run", "--delta", "-1"], None, None, (), id="run-delta-negative"),
        pytest.param(["repro-figures", "--shots", "0"], None, None, (), id="repro-figures-shots-0"),
        pytest.param(["attack-sweep", "--model", "intercept-resend", "--trials", "0"], None,
                     None, (), id="attack-sweep-trials-0"),
        # an attack sweep draws --trials * (1 + m) pair rows for each m; the bound
        # is on the largest m, refused before the first m runs
        pytest.param(["attack-sweep", "--model", "intercept-resend", "--trials", "5",
                      "--m-values", "99999999999999999999"], None, None,
                     ("--trials * (1 + the largest --m-values) = 5 * 1.00e20", "too large"),
                     id="attack-sweep-m-past-c-long"),
        pytest.param(["attack-sweep", "--model", "intercept-resend", "--trials", "5",
                      "--m-values", "1000000000000000000"], None, None,
                     ("--m-values", "5 * 1000000000000000001", "too large"), id="attack-sweep-m-1e18"),
        # the per-group rows count too: m = 0 still draws one row per trial
        pytest.param(["attack-sweep", "--model", "intercept-resend", "--trials", "5000000000",
                      "--m-values", "0"], None, None, ("--trials", "5000000000 * 1", "too large"),
                     id="attack-sweep-trials-5e9-m-0"),
        pytest.param(["attack-sweep", "--model", "intercept-resend", "--trials", "500000001",
                      "--m-values", "0,1"], None, None,
                     ("--trials", "500000001 * 2 = 1000000002", "too large"),
                     id="attack-sweep-trials-past-half-limit-m-1"),
        pytest.param(["repro-figures", "--shots", "99999999999999999999"], None, None,
                     ("too large",), id="repro-figures-shots-past-c-long"),
        pytest.param(["repro-figures", "--shots", "10000000000000000000"], None, None,
                     ("--shots is too large", "10000000000000000000"), id="repro-figures-shots-1e19"),
        # every other count is bound by the pair rows its command simulates: the
        # line names each factor with its value, and a pair budget names l and delta
        pytest.param(["run", "--trials", "10000000000000000000"], None, None,
                     ("trials * n * pairs per participant = 10000000000000000000 * 3 * 80", "too large"),
                     id="run-trials-1e19"),
        pytest.param(["run", "--trials", "100000000000"], None, None,
                     ("trials * n * pairs per participant = 100000000000 * 3 * 80",),
                     id="run-trials-1e11"),
        pytest.param(["efficiency", "--runs", "10000000000000000000"], None, None,
                     ("runs * n * pairs per participant (delta=0) = 10000000000000000000 * 3 * 40",),
                     id="efficiency-runs-1e19"),
        pytest.param(["efficiency", "--runs", "100000000000"], None, None,
                     ("runs * n * pairs per participant (delta=0) = 100000000000 * 3 * 40",),
                     id="efficiency-runs-1e11"),
        pytest.param(["run", "--n", "10000000000000000000", "--trials", "1"], None, None,
                     ("n * pairs per participant (l=8, delta=1.0) = 10000000000000000000 * 80",),
                     id="run-n-1e19"),
        pytest.param(["run", "--n", "9223372036854775807", "--trials", "1"], None, None,
                     ("n * pairs per participant (l=8, delta=1.0) = 9223372036854775807 * 80",),
                     id="run-n-c-long-max"),
        pytest.param(["run", "--n", "100000000", "--trials", "1"], None, None,
                     ("n * pairs per participant (l=8, delta=1.0) = 100000000 * 80",), id="run-n-1e8"),
        pytest.param(["run", "--l", "100000000", "--trials", "1"], None, None,
                     ("n * pairs per participant (l=100000000, delta=1.0) = 3 * 1000000000",),
                     id="run-l-1e8"),
        pytest.param(["run", "--trials", "1"], {"n": 10000000000000000000}, None,
                     ("n * pairs per participant (l=8, delta=1.0) = 10000000000000000000 * 80",),
                     id="run-config-n-1e19"),
        pytest.param(["efficiency", "--n", "10000000000000000000", "--runs", "1"], None, None,
                     ("n * pairs per participant (l=8, delta=0.0) = 10000000000000000000 * 40",),
                     id="efficiency-n-1e19"),
        pytest.param(["efficiency", "--n", "100000000", "--runs", "1"], None, None,
                     ("n * pairs per participant (l=8, delta=0.0) = 100000000 * 40",),
                     id="efficiency-n-1e8"),
        pytest.param(["efficiency", "--l", "10000000000000000000", "--runs", "1"], None, None,
                     ("(l=10000000000000000000, delta=0.0) = 3 * 50000000000000000000",),
                     id="efficiency-l-1e19"),
        pytest.param(["efficiency", "--l", "100000000", "--runs", "1"], None, None,
                     ("(l=100000000, delta=0.0) = 3 * 500000000",), id="efficiency-l-1e8"),
        pytest.param(["run"], {"tolerable_error_rate": 2.0}, None, (), id="tolerance-2"),
        pytest.param(["run"], {"delta": 1e308}, None, ("(l=8, delta=1e+308) = 3 * inf",),
                     id="delta-1e308"),
        *(pytest.param(["run", "--delta", delta], None, None, (f"(l=8, delta={float(delta)})", "too large"),
                       id=f"delta-{delta}") for delta in ("1e17", "1e18", "1e300")),
        pytest.param(["run"], {"delta": NAN}, None, (), id="delta-nan"),
        pytest.param(["run"], {"delta": float("inf")}, None, (), id="delta-inf"),
        pytest.param(["run"], {"theta_policy": {"kind": "fixed", "value": NAN}}, None, (),
                     id="theta-nan"),
        pytest.param(["run"], {"theta_policy": {"kind": "random", "value": "abc"}}, None,
                     ("random theta policy", "value"), id="theta-random-value"),
        pytest.param(["run"], {"attack": {"kind": "entangle", "unitary": [[1, 0], [0, 1]]}},
                     None, (), id="unitary-list"),
        pytest.param(["run"], {"attack": {"kind": "measure-resend", "fake_family": "rotation"}},
                     None, (), id="measure-resend-fake-family"),
        pytest.param(["run"], {"attack": {"kind": "none", "fake_value": "one", "basis": "X"}},
                     None, (), id="none-with-fields"),
        pytest.param(["run", "--seed", "-1", "--trials", "1"], None, None, ("seed", "-1", "--seed"),
                     id="seed-flag-negative"),
        pytest.param(["efficiency", "--runs", "5"], None, "-1", ("seed", "-1", ENV_SEED),
                     id="seed-env-negative"),
        pytest.param(["run", "--trials", "1"], {"seed": -1}, None, ("seed", "-1", "config"),
                     id="seed-config-negative"),
        pytest.param(["run"], {"write_transcripts": "yes"}, None, ("write_transcripts",),
                     id="write-transcripts-not-bool"),
        # with no --out flag, which would override it
        pytest.param(["run"], {"out": 5}, None, ("out must be a path string",), id="out-not-string"),
        pytest.param(["run"], {"secrets": "0101"}, None, ("secrets must be",), id="secrets-not-list"),
        pytest.param(["run"], {"l": 2, "secrets": ["01", "10"]}, None, ("need 3 secrets, got 2",),
                     id="secrets-wrong-count"),
        pytest.param(["run"], [{"n": 3}], None, ("config must be a JSON object",),
                     id="config-top-level-array"),
        pytest.param(["attack-sweep", "--model", "intercept-resend", "--m-values=-1"], None, None,
                     ("--m-values", "non-negative"), id="m-values-negative"),
    ])
    def test_bad_input_is_one_line_config_error(
        self, argv, config, env, mentions, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_SEED, raising=False)
        if env is not None:
            monkeypatch.setenv(ENV_SEED, env)
        if config is not None:
            Path("c.json").write_text(json.dumps(config))
            argv = [*argv, "--config", "c.json"]
        assert main(argv) == EXIT_CONFIG
        assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["c.json"])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert all(word in lines[0] for word in mentions), lines[0]

    def test_number_past_a_float_is_one_line_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(json.dumps({"delta": 10**400}))
        assert main(["run", "--config", "c.json", "--out", "o"]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: int too large to convert to float"
        ]

    def test_sweep_sizes_are_checked_before_the_first_estimate(self, tmp_path, monkeypatch, capsys):
        def monte_carlo_detection(*args, **kwargs):
            raise AssertionError("a Monte Carlo estimate ran")

        monkeypatch.setattr(cli, "monte_carlo_detection", monte_carlo_detection)
        argv = ["attack-sweep", "--model", "intercept-resend", "--trials", "5",
                "--m-values", "1,1000000000000000000", "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("error", [
        MemoryError(),
        MemoryError("Unable to allocate 1.86 TiB for an array with shape (256000000008,)"),
    ], ids=["bare", "numpy-message"])
    def test_out_of_memory_is_one_line_resource_error(self, error, tmp_path, monkeypatch, capsys):
        # the command the module holds raises, as numpy does when an input under
        # the row bound needs more memory than there is: one session of
        # 5 * 10**8 pairs, at about 280 bytes each
        def cmd_run(args):
            raise error

        monkeypatch.setattr(cli, "cmd_run", cmd_run)
        argv = ["run", "--n", "2", "--l", "100000000", "--delta", "0", "--trials", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"resource error: {str(error) or 'out of memory'}"
        ]

    def test_flag_defaults(self):
        parser = cli.build_parser()
        assert parser.parse_args(["repro-figures"]).shots == DEFAULT_SHOTS == 10**4
        assert parser.parse_args(["efficiency"]).runs == 200

    def test_readme_states_the_run_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("dfq run --config run.json", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert list(json.loads(block).items()) == list(cli._RUN_DEFAULTS.items())

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "ten")
        code = main(["efficiency", "--runs", "5", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestSeedPrecedence:
    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "111")
        assert main(["efficiency", "--runs", "5", "--seed", "222", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "efficiency.json").read_text())
        assert payload["seed"] == 222

    def test_env_beats_config_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "111")
        assert main(["efficiency", "--runs", "5", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "efficiency.json").read_text())
        assert payload["seed"] == 111

    def test_config_seed_used_when_no_flag_or_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 777, "trials": 2, "l": 2}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "run_report.json").read_text())
        assert payload["config"]["seed"] == 777


class TestRunCommand:
    def test_report_shape(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        out = tmp_path / "reports"
        code = main([
            "run", "--trials", "4", "--l", "4", "--seed", "31", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "run_report.json").read_text())
        assert payload["schema_version"] == 1
        assert sum(payload["verdicts"].values()) == 4
        assert list(payload["verdicts"]) == [
            "AllEqual", "NotAllEqual", "AbortedInsecureChannel",
            "AbortedInsufficientParticles", "AbortedDishonestTP",
        ]
        assert payload["efficiency"]["xi"] == "1/15"
        assert payload["measured"]["tp_qubits_prepared"] > 0

    def test_fixed_secrets_all_equal(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "l": 4, "trials": 3, "seed": 5,
            "secrets": ["0110", "0110", "0110"],
        }))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "run_report.json").read_text())
        assert payload["verdicts"]["AllEqual"] == 3

    def test_transcripts_on_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"l": 2, "trials": 2, "write_transcripts": True}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert (out / "transcript_0000.jsonl").exists()
        assert (out / "transcript_0001.jsonl").exists()

    def test_report_does_not_depend_on_writing_transcripts(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        base = {
            "l": 4, "trials": 6, "seed": 17, "tolerable_error_rate": 0.3,
            "attack": {"kind": "measure-resend", "family": "dephasing", "basis": "X"},
        }
        reports = {}
        for write in (False, True):
            config = tmp_path / f"c{write}.json"
            config.write_text(json.dumps({**base, "write_transcripts": write}))
            out = tmp_path / f"o{write}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
            reports[write] = json.loads((out / "run_report.json").read_text())
        assert len(list((tmp_path / "oFalse").glob("transcript_*.jsonl"))) == 0
        for block in ("verdicts", "measured"):
            assert reports[True][block] == reports[False][block]
        transcripts = [tmp_path / "oTrue" / f"transcript_{i:04d}.jsonl" for i in range(6)]
        summaries = [json.loads(path.read_text().splitlines()[-1]) for path in transcripts]
        assert all(summary["event"] == "run_summary" for summary in summaries)
        verdicts = {verdict: 0 for verdict in reports[True]["verdicts"]}
        for summary in summaries:
            verdicts[summary["verdict"]] += 1
        assert verdicts == reports[True]["verdicts"]
        assert len([v for v in verdicts.values() if v]) > 1  # aborted and completed runs
        for name, total in reports[True]["measured"].items():
            assert sum(summary[name] for summary in summaries) == total

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        out = tmp_path / "o"
        args = ["run", "--trials", "3", "--l", "4", "--seed", "8", "--out", str(out)]
        assert main(args) == EXIT_OK
        first = read_all(out)
        assert main(args) == EXIT_OK
        assert read_all(out) == first


class TestOtherCommands:
    def test_attack_sweep_products(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        args = [
            "attack-sweep", "--model", "measure-resend", "--m-values", "1,2",
            "--trials", "400", "--seed", "6", "--out", str(tmp_path),
        ]
        assert main(args) == EXIT_OK
        csv_text = (tmp_path / "attack_sweep.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == (
            "m,trials,family,model,per_group_estimate,per_group_stderr,"
            "overall_estimate,overall_stderr,closed_form_per_group,"
            "closed_form_overall,overall_within_4_sigma,"
            "sift_inclusive_estimate,sift_inclusive_stderr"
        )
        assert len(csv_text.splitlines()) == 3
        payload = json.loads((tmp_path / "attack_sweep.json").read_text())
        assert len(payload["reports"]) == 2
        first = read_all(tmp_path)
        assert main(args) == EXIT_OK
        assert read_all(tmp_path) == first

    def test_entangle_cnot_sweep_has_no_closed_form(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        assert main([
            "attack-sweep", "--model", "entangle-cnot", "--m-values", "1",
            "--trials", "300", "--seed", "7", "--out", str(tmp_path),
        ]) == EXIT_OK
        rows = (tmp_path / "attack_sweep.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "entangle:cnot-probe"
        closed_form_cols = rows[1].split(",")[8:10]
        assert closed_form_cols == ["", ""]

    def test_repro_figures_products(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        args = ["repro-figures", "--shots", "500", "--seed", "9", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert summary[0].startswith("conventions: |-_dp>")
        fig_lines = summary[1:]
        assert [line.split()[0] for line in fig_lines] == [f"fig{k}" for k in range(1, 7)]
        assert all(line.split()[1] == "PASS" for line in fig_lines)
        fig1 = (tmp_path / "fig1.csv").read_text().splitlines()
        assert fig1[0] == "outcome,count"
        assert fig1[1] == "11,500"
        assert len(fig1) == 2  # zero rows are left out
        first = read_all(tmp_path)
        assert main(args) == EXIT_OK
        assert read_all(tmp_path) == first

    def test_tiny_shot_counts_are_skipped(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        assert main([
            "repro-figures", "--shots", "50", "--seed", "10", "--out", str(tmp_path),
        ]) == EXIT_OK
        summary = (tmp_path / "summary.txt").read_text()
        assert "SKIPPED" in summary

    def test_efficiency_product(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        args = ["efficiency", "--n", "2", "--l", "4", "--runs", "40",
                "--seed", "11", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        payload = json.loads((tmp_path / "efficiency.json").read_text())
        assert payload["xi"] == "1/15"
        assert payload["qubits_prepared_by_tp"] == 80
        assert payload["measured"]["expected_participant_qubits"] == 40.0
        first = read_all(tmp_path)
        assert main(args) == EXIT_OK
        assert read_all(tmp_path) == first

    def test_efficiency_accepts_one_participant(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        args = ["efficiency", "--n", "1", "--l", "2", "--runs", "5", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        assert json.loads((tmp_path / "efficiency.json").read_text())["compared_bits"] == 2

    def test_main_runs_the_command_the_module_holds_now(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        assert main(["efficiency", "--runs", "1", "--out", str(tmp_path)]) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_efficiency", lambda args: seen.append(args.runs) or EXIT_OK)
        assert main(["efficiency", "--runs", "2", "--out", str(tmp_path)]) == EXIT_OK
        assert seen == [2]


def report_digests(case: str) -> dict[str, str]:
    """Run a report case in the working directory; the sha256 of each frozen file."""
    argv, config, files = REPORT_CASES[case]
    if config is not None:
        Path("c.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "c.json"]
    assert main(argv) == EXIT_OK
    return {name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest() for name in files}


def test_report_digest_file_covers_every_case():
    assert sorted(json.loads(REPORT_DIGESTS.read_text())) == sorted(REPORT_CASES)


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_bytes_are_frozen(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_SEED, raising=False)
    assert report_digests(case) == json.loads(REPORT_DIGESTS.read_text())[case]
