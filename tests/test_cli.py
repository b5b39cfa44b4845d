import json

import pytest

from lottalora.cli import run

from conftest import requires_mnist


def test_cost_command_prints_table_and_json(capsys):
    assert run(["cost", "--arch", "900M", "--rank", "8"]) == 0
    out = capsys.readouterr().out
    assert "dist lottalora" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["dist_mib"]["fp16"] == pytest.approx(2312, abs=1.0)
    assert payload["dist_mib"]["int4_grouped"] == pytest.approx(650, abs=1.0)
    assert payload["dist_mib"]["lottalora"] == pytest.approx(109, abs=1.0)


def test_cost_unknown_arch_exits_config(capsys):
    assert run(["cost", "--arch", "9T"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_rankstar_command(tmp_path, capsys):
    losses = tmp_path / "losses.json"
    losses.write_text(json.dumps({"1": 0.50, "2": 0.30, "4": 0.21, "8": 0.20}))
    assert run(["rankstar", "--losses", str(losses), "--full", "0.20", "--eps", "0.02"]) == 0
    assert json.loads(capsys.readouterr().out)["rank_star"] == 4


def test_rankstar_negative_eps_is_config_error(tmp_path, capsys):
    losses = tmp_path / "losses.json"
    losses.write_text(json.dumps({"1": 0.5}))
    assert run(["rankstar", "--losses", str(losses), "--full", "0.2", "--eps", "-1"]) == 3


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cost", "--archh", "900M"])
    assert exc.value.code == 2


def test_missing_data_dir_is_data_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LOTTALORA_DATA_DIR", raising=False)
    assert run(["train", "--out-dir", str(tmp_path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"


def test_pack_unpack_round_trip(tmp_path, capsys):
    path = tmp_path / "fresh.ltlr"
    assert run([
        "pack", "--preset", "tiny", "--rank", "2", "--seed", "7", "--output", str(path),
    ]) == 0
    capsys.readouterr()
    assert run(["unpack", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["header"]["backbone"]["seed"] == 7
    assert payload["tensors"]["layer0.A"] == [2, 784]
    assert payload["header"]["algorithm_id"] == "splitmix64-boxmuller-v1"


def test_unpack_corrupt_artifact_exit_code(tmp_path, capsys):
    path = tmp_path / "fresh.ltlr"
    run(["pack", "--preset", "tiny", "--output", str(path)])
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x01
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run(["unpack", str(path)]) == 6  # integrity


def test_betastats_command(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"final_betas": [0.9, 1.1]}))
    assert run(["betastats", str(summary)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["mean"] == pytest.approx(1.0)
    assert stats["count"] == 2


def test_scaling_flag_maps_to_rank_stabilized(tmp_path, capsys):
    path = tmp_path / "rs.ltlr"
    assert run(["pack", "--preset", "tiny", "--rank", "4", "--scaling", "rslora",
                "--output", str(path)]) == 0
    capsys.readouterr()
    run(["unpack", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["header"]["model"]["scaling_mode"] == "rank_stabilized"


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"rank": 4, "family.sigma": 0.5}))
    path = tmp_path / "m.ltlr"
    assert run([
        "pack", "--preset", "tiny", "--config", str(config),
        "--family-scaling", "explicit", "--output", str(path),
    ]) == 0
    capsys.readouterr()
    run(["unpack", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["header"]["model"]["rank"] == 4  # from config file
    assert payload["header"]["backbone"]["family"]["params"]["sigma"] == 0.5


@pytest.mark.parametrize("text", [
    '{"rank": 4',  # not JSON
    '[{"rank": 4}]',  # not an object
    '{"rank": "x"}',  # rejected by the flag's type
    '{"scaling": "wide"}',  # not one of the flag's choices
])
def test_malformed_config_file_is_config_error(tmp_path, capsys, text):
    config = tmp_path / "conf.json"
    config.write_text(text)
    code = run(["pack", "--preset", "tiny", "--config", str(config), "--output", str(tmp_path / "m.ltlr")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "m.ltlr").exists()


@requires_mnist
def test_metalora_command_short(tmp_path, capsys, mnist_dir):
    out = tmp_path / "meta"
    code = run([
        "metalora", "--preset", "tiny", "--ranks", "2", "--seeds", "1",
        "--schedules", "static,epoch", "--epochs", "1",
        "--data-dir", mnist_dir, "--out-dir", str(out),
    ])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    assert set(table) == {"static_r2", "per_epoch_r2"}
    assert (out / "metalora_summary.json").exists()
    assert (out / "manifest.json").exists()


@requires_mnist
def test_seedgate_command_short(tmp_path, capsys, mnist_dir):
    out = tmp_path / "gate"
    code = run([
        "seedgate", "--preset", "tiny", "--rank", "2", "--epochs", "1",
        "--groups", "1,2;3,4", "--seeds", "5,6", "--ooc",
        "--data-dir", mnist_dir, "--out-dir", str(out),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["assigned_accuracy"]) == 2
    assert len(payload["ooc_digit0_rate"]) == 2
    assert (out / "seedgate.json").exists()


@requires_mnist
def test_train_verify_cycle_short(tmp_path, capsys, mnist_dir):
    out = tmp_path / "run"
    code = run([
        "train", "--preset", "tiny", "--rank", "2", "--seed", "1",
        "--epochs", "2", "--data-dir", mnist_dir, "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    assert (out / "model.ltlr").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["seed"] == 1
    capsys.readouterr()
    assert run(["verify", str(out / "model.ltlr"), "--data-dir", mnist_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
