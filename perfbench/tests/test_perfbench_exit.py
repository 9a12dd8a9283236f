"""A wrong answer fails the run: non-zero exit, ``correct`` false."""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
if str(HERE) not in sys.path:
    sys.path.append(str(HERE))

import instances  # noqa: E402
import run  # noqa: E402


def test_wrong_expected_answer_exits_non_zero(monkeypatch, capsys):
    real = instances.api_instance

    def expecting_a_missing_answer(seed):
        instance = real(seed)
        return dataclasses.replace(
            instance, clean_answers=instance.clean_answers | {("no-such-key",)}
        )

    monkeypatch.setattr(instances, "api_instance", expecting_a_missing_answer)
    monkeypatch.setattr(run, "SETUPS", 1)
    status = run.main(
        ["--workload", "api_campaign", "--seed", "1", "--seconds", "0.5"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1


def test_missing_program_source_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    status = run.main(
        ["--workload", "serve_cached", "--seed", "1", "--seconds", "1"]
    )
    assert status == 2
    assert capsys.readouterr().out == ""
