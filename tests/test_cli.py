"""Command line behaviour: exit codes, config validation, canonical
serialization and byte-identical reruns."""

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
    canonical_config_text,
    main,
    parse_run_config,
)

NAN = float("nan")


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

    def test_canonical_text_round_trips(self):
        cfg = parse_run_config({"family": "rotation", "seed": 9, "l": 4})
        text = canonical_config_text(cfg)
        again = canonical_config_text(parse_run_config(json.loads(text)))
        assert text == again
        assert text.endswith("\n")


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
        pytest.param(["run"], {"tolerable_error_rate": 2.0}, None, (), id="tolerance-2"),
        pytest.param(["run"], {"delta": 1e308}, None, (), id="delta-1e308"),
        pytest.param(["run"], {"delta": NAN}, None, (), id="delta-nan"),
        pytest.param(["run"], {"delta": float("inf")}, None, (), id="delta-inf"),
        pytest.param(["run"], {"theta_policy": {"kind": "fixed", "value": NAN}}, None, (),
                     id="theta-nan"),
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
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert all(word in lines[0] for word in mentions), lines[0]

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
