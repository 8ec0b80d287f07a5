"""Command line front end: ``dfq run|attack-sweep|repro-figures|efficiency``.

All randomness hangs off one ``--seed`` (falling back to the DFQ_SEED
environment variable, then to the config file, then to 0), so repeating a
command with the same seed rewrites byte-identical report files. Exit
codes: 0 on success, 2 for configuration problems, 3 for I/O failures.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import _check_rows, attack_from_dict, monte_carlo_detection
from .efficiency import ideal_report, measure_preparation
from .encoding import PAIR_NAMES, EncodingFamily
from .figures import DEFAULT_SHOTS, EXPECTED, FIGURE_IDS, check_histogram, run_scenario
from .protocol import ProtocolConfig, Secret, ThetaPolicy, Verdict, run_protocol

SCHEMA_VERSION = 1
ENV_SEED = "DFQ_SEED"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
# the largest --shots, one multinomial draw; other counts are bound by attacks.MAX_ROWS
MAX_COUNT = int(np.iinfo(np.intp).max)


# Field order here is the canonical order in serialized config files.
_RUN_DEFAULTS: dict = {
    "family": "dephasing",
    "n": 3,
    "l": 8,
    "delta": 1.0,
    "theta_policy": {"kind": "random"},
    "seed": 0,
    "attack": {"kind": "none"},
    "tolerable_error_rate": 0.0,
    "trials": 100,
    "secrets": "random",
    "out": "reports",
    "write_transcripts": False,
}


def parse_run_config(data: dict) -> dict:
    """Validate a config document, a dict; unknown fields are rejected outright.

    Raises ValueError, or OverflowError for an integer past a float."""
    unknown = set(data) - set(_RUN_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    merged = copy.deepcopy(_RUN_DEFAULTS)
    merged.update(copy.deepcopy(data))
    for name in ("n", "l", "seed", "trials"):
        if not isinstance(merged[name], int) or isinstance(merged[name], bool):
            raise ValueError(f"{name} must be an integer")
    for name in ("delta", "tolerable_error_rate"):
        if not isinstance(merged[name], (int, float)) or isinstance(merged[name], bool):
            raise ValueError(f"{name} must be a number")
        merged[name] = float(merged[name])
    _protocol_config(merged)
    if merged["trials"] < 1:
        raise ValueError("trials must be positive")
    if not isinstance(merged["write_transcripts"], bool):
        raise ValueError("write_transcripts must be true or false")
    if not isinstance(merged["out"], str):
        raise ValueError("out must be a path string")
    secrets = merged["secrets"]
    if secrets != "random":
        if not isinstance(secrets, list) or not all(isinstance(s, str) for s in secrets):
            raise ValueError("secrets must be 'random' or a list of bit strings")
        for s in secrets:
            if len(s) != merged["l"] or any(c not in "01" for c in s):
                raise ValueError(f"secret {s!r} is not a string of {merged['l']} bits")
        if len(secrets) != merged["n"]:
            raise ValueError(f"need {merged['n']} secrets, got {len(secrets)}")
    return merged


def _protocol_config(cfg: dict) -> ProtocolConfig:
    """The protocol settings of a parsed config; raises ValueError on bad values."""
    family = EncodingFamily(cfg["family"])
    return ProtocolConfig(
        family=family,
        n=cfg["n"],
        l=cfg["l"],
        delta=cfg["delta"],
        theta_policy=ThetaPolicy.from_dict(cfg["theta_policy"]),
        seed=cfg["seed"],
        attack=attack_from_dict(cfg["attack"], family),
        tolerable_error_rate=cfg["tolerable_error_rate"],
    )


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def _resolve_seed(flag_seed: int | None, config_seed: int | None) -> int:
    """The seed from --seed, else DFQ_SEED, else the config file, else 0."""
    env = os.environ.get(ENV_SEED)
    if flag_seed is not None:
        seed, source = flag_seed, "--seed"
    elif env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        source = ENV_SEED
    elif config_seed is not None:
        seed, source = config_seed, "the config file"
    else:
        return 0
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed} from {source}")
    return seed


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = {} if args.config is None else _load_config_file(args.config)
    for name in ("family", "n", "l", "delta", "trials", "out"):
        value = getattr(args, name)
        if value is not None:
            cfg[name] = value
    cfg = parse_run_config(cfg)
    seed = _resolve_seed(args.seed, cfg["seed"])
    cfg["seed"] = seed
    base = _protocol_config(cfg)
    _check_rows(("trials", cfg["trials"]), ("n", base.n),
                ("pairs per participant", base.pairs_per_participant))

    trial_seeds = np.random.SeedSequence(seed).generate_state(cfg["trials"])
    secrets_rng = np.random.default_rng(seed)
    fixed_secrets = None
    if cfg["secrets"] != "random":
        fixed_secrets = [Secret.from_string(s) for s in cfg["secrets"]]

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = {verdict.value: 0 for verdict in Verdict}
    tp_qubits = 0
    participant_qubits = 0
    for index, trial_seed in enumerate(trial_seeds):
        if fixed_secrets is not None:
            secrets = fixed_secrets
        else:
            secrets = [Secret.random(cfg["l"], secrets_rng) for _ in range(cfg["n"])]
        result, transcript = run_protocol(replace(base, seed=int(trial_seed)), secrets)
        tally[result.verdict.value] += 1
        tp_qubits += sum(s.tp_qubits for s in transcript.sessions)
        participant_qubits += sum(s.participant_qubits for s in transcript.sessions)
        if cfg["write_transcripts"]:
            (out_dir / f"transcript_{index:04d}.jsonl").write_text(transcript.to_jsonl())

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {key: cfg[key] for key in _RUN_DEFAULTS},
        "verdicts": tally,
        "measured": {
            "tp_qubits_prepared": tp_qubits,
            "participant_qubits_prepared": participant_qubits,
        },
        "efficiency": ideal_report(cfg["n"], cfg["l"]).to_dict(),
    }
    _write_json(out_dir / "run_report.json", report)
    for verdict, count in tally.items():
        if count:
            print(f"{verdict}: {count}")
    print(f"wrote {out_dir / 'run_report.json'}")
    return EXIT_OK


_SWEEP_COLUMNS = [
    "m",
    "trials",
    "family",
    "model",
    "per_group_estimate",
    "per_group_stderr",
    "overall_estimate",
    "overall_stderr",
    "closed_form_per_group",
    "closed_form_overall",
    "overall_within_4_sigma",
    "sift_inclusive_estimate",
    "sift_inclusive_stderr",
]


def _parse_m_values(text: str) -> list[int]:
    try:
        values = [int(chunk) for chunk in text.split(",") if chunk.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--m-values must be comma-separated integers, got {text!r}") from exc
    if not values or any(v < 0 for v in values):
        raise ValueError("--m-values needs at least one non-negative integer")
    return values


def cmd_attack_sweep(args: argparse.Namespace) -> int:
    family = EncodingFamily(args.family)
    model = attack_from_dict({"kind": args.model} if args.model != "entangle-cnot"
                             else {"kind": "entangle", "unitary": "cnot-probe"}, family)
    m_values = _parse_m_values(args.m_values)
    # a call draws trials * (1 + m) rows; refused before the first call draws
    _check_rows(("--trials", args.trials), ("(1 + the largest --m-values)", 1 + max(m_values)))
    seed = _resolve_seed(args.seed, None)
    rng = np.random.default_rng(seed)
    config = ProtocolConfig(family=family, seed=seed)

    rows = []
    reports = []
    for m in m_values:
        report = monte_carlo_detection(config, model, args.trials, rng, m=m)
        within = ""
        if report.closed_form_overall is not None:
            sigma = math.sqrt(
                max(report.closed_form_overall * (1.0 - report.closed_form_overall), 1e-12)
                / report.trials
            )
            within = "yes" if abs(report.overall_estimate - report.closed_form_overall) <= 4 * sigma else "no"
        reports.append(report.to_dict())
        rows.append({**report.to_dict(), "overall_within_4_sigma": within})
        closed = "" if report.closed_form_overall is None else f"{report.closed_form_overall:.6f}"
        print(
            f"m={m}: overall={report.overall_estimate:.6f}"
            f" closed_form={closed or 'n/a'} within_4_sigma={within or 'n/a'}"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_SWEEP_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: "" if value is None else value for key, value in row.items()})
    (out_dir / "attack_sweep.csv").write_text(buffer.getvalue())
    _write_json(
        out_dir / "attack_sweep.json",
        {"schema_version": SCHEMA_VERSION, "seed": seed, "reports": reports},
    )
    print(f"wrote {out_dir / 'attack_sweep.csv'}")
    return EXIT_OK


def cmd_repro_figures(args: argparse.Namespace) -> int:
    if args.shots > MAX_COUNT:
        raise ValueError(f"--shots is too large: {args.shots} (the limit is {MAX_COUNT})")
    seed = _resolve_seed(args.seed, None)
    rng = np.random.default_rng(seed)
    out_dir = Path(args.out)
    lines = [
        "conventions: |-_dp> = (|01> - |10>)/sqrt(2); "
        "|-_r> = (|00> - |01> + |10> + |11>)/2"
    ]
    histograms = [run_scenario(fig_id, args.shots, rng) for fig_id in FIGURE_IDS]
    out_dir.mkdir(parents=True, exist_ok=True)
    for fig_id, counts in zip(FIGURE_IDS, histograms):
        status, detail = check_histogram(counts, EXPECTED[fig_id])
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{fig_id} {status}{suffix}")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["outcome", "count"])
        for k in np.flatnonzero(counts):
            writer.writerow([PAIR_NAMES[k], counts[k]])
        (out_dir / f"{fig_id}.csv").write_text(buffer.getvalue())
    summary = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(summary)
    print(summary, end="")
    print(f"wrote {out_dir / 'summary.txt'}")
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed, None)
    report = ideal_report(args.n, args.l)
    measured = measure_preparation(args.n, args.l, args.runs, seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        **report.to_dict(),
        "measured": measured.to_dict(),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "efficiency.json", payload)
    print(
        f"xi = {payload['xi']} ({payload['xi_float']:.6f}); measured participant qubits/run"
        f" = {measured.mean_participant_qubits:.2f} (expected {measured.expected_participant_qubits:.0f})"
    )
    print(f"wrote {out_dir / 'efficiency.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfq",
        description="Simulate the collective-noise-immune private comparison protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run full protocol trials and tally verdicts")
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--family", choices=["dephasing", "rotation"])
    run.add_argument("--n", type=int, help="number of participants")
    run.add_argument("--l", type=int, help="secret length in bits")
    run.add_argument("--delta", type=float, help="oversampling fraction")
    run.add_argument("--trials", type=int, help="number of protocol runs")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="report directory")
    run.set_defaults(func="cmd_run")

    sweep = sub.add_parser("attack-sweep", help="Monte Carlo detection rates against closed forms")
    sweep.add_argument("--model", required=True,
                       choices=["intercept-resend", "measure-resend", "entangle-cnot"])
    sweep.add_argument("--family", default="dephasing", choices=["dephasing", "rotation"])
    sweep.add_argument("--m-values", default="1,5,10", help="comma-separated attacked group counts")
    sweep.add_argument("--trials", type=int, default=100_000)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out", default="reports")
    sweep.set_defaults(func="cmd_attack_sweep")

    repro = sub.add_parser("repro-figures", help="sample the six reference circuit scenarios")
    repro.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    repro.add_argument("--seed", type=int)
    repro.add_argument("--out", default="reports")
    repro.set_defaults(func="cmd_repro_figures")

    eff = sub.add_parser("efficiency", help="ideal qubit budget plus measured preparation counts")
    eff.add_argument("--n", type=int, default=3)
    eff.add_argument("--l", type=int, default=8)
    eff.add_argument("--runs", type=int, default=200)
    eff.add_argument("--seed", type=int)
    eff.add_argument("--out", default="reports")
    eff.set_defaults(func="cmd_efficiency")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # The parser names each command's function and main looks it up here, so a
    # function swapped onto this module after the parser was built (such as a
    # tracing wrapper) is the one called.
    command = globals()[args.func]
    try:
        return command(args)
    # a bad config or flag, the domain checks of the inputs a command builds,
    # the refusal of an integer past a float (a config "delta" of 10**400) and
    # numpy's refusal of an integer past a C long that no check refuses first
    except (ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # an input under the row bound can outgrow memory: ~280 B a session pair
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
