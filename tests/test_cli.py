import json
import math
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import lottalora
import lottalora.artifact as artifact_mod
from lottalora.artifact import load, pack, read, save, unpack
from lottalora.cli import (
    EXIT_CODES, _model_config, _parse_resample, _resolve_family, _train_config, build_parser, run, run_grid,
)
from lottalora.errors import LottaError
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.train import TrainConfig

from conftest import requires_mnist, spoil_as_gz, swap_train_files, write_fake_idx
from test_artifact import V2_FIXTURE, V3_FIXTURE, V4_FIXTURE, reheader, round_to_f16


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


@pytest.mark.parametrize("flags", [
    ["--rank", "0"], ["--rank", "1665"], ["--tokens", "-5"], ["--tokens", "nan"], ["--tokens", "inf"],
    pytest.param(["--rank", "1" + "0" * 400], id="401-digit-rank"),
])
def test_cost_bad_numbers_exit_config(capsys, flags):
    assert run(["cost", "--arch", "900M", *flags]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "config"
    assert captured.out == ""


def test_every_error_category_has_a_documented_exit_code():
    categories, todo = set(), [LottaError]
    while todo:
        cls = todo.pop()
        categories.add(cls.category)
        todo += cls.__subclasses__()
    assert categories <= set(EXIT_CODES)
    assert EXIT_CODES["dimension"] not in {code for name, code in EXIT_CODES.items() if name != "dimension"}
    doc = lottalora.cli.__doc__
    assert all(f"{name} {code}" in doc for name, code in EXIT_CODES.items())


def test_rankstar_command(tmp_path, capsys):
    losses = tmp_path / "losses.json"
    losses.write_text(json.dumps({"1": 0.50, "2": 0.30, "4": 0.21, "8": 0.20}))
    assert run(["rankstar", "--losses", str(losses), "--full", "0.20", "--eps", "0.02"]) == 0
    assert json.loads(capsys.readouterr().out)["rank_star"] == 4


def test_rankstar_negative_eps_is_config_error(tmp_path, capsys):
    losses = tmp_path / "losses.json"
    losses.write_text(json.dumps({"1": 0.5}))
    assert run(["rankstar", "--losses", str(losses), "--full", "0.2", "--eps", "-1"]) == 3


@pytest.mark.parametrize("flags", [["--full", "0.2", "--eps", "nan"], ["--full", "nan", "--eps", "0.01"]])
def test_rankstar_non_finite_flag_is_config_error(tmp_path, capsys, flags):
    # a NaN compares false against every bound; unchecked, it prints {"rank_star": null}
    losses = tmp_path / "losses.json"
    losses.write_text(json.dumps({"1": 0.5}))
    assert run(["rankstar", "--losses", str(losses), *flags]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("text", [
    '{"1": 0.5',  # not JSON
    '[0.5, 0.3]',  # not an object
    '{"x": 0.5}',  # a rank that is not an integer
    '{"0": 0.1, "2": 0.5}',  # a rank below 1
    '{"1": "x"}',  # a loss that is not a number
    '{"1": null}',
    '{"1": [0.5]}',
    '{"1": 0.5, "2": NaN}',  # a loss that is not finite
    # an integer that parses but has no float value
    pytest.param('{"1": 0.5, "2": 1%s}' % ("0" * 400), id="401-digit-loss"),
])
def test_malformed_loss_table_is_config_error(tmp_path, capsys, text):
    losses = tmp_path / "losses.json"
    losses.write_text(text)
    assert run(["rankstar", "--losses", str(losses), "--full", "0.2", "--eps", "0.01"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("text", ['{"1": 0.5, "01": 0.21, "4": 0.3}', '{"4": 0.3, "1": 0.5, "01": 0.21}'])
def test_a_rank_named_twice_is_config_error(tmp_path, capsys, text):
    # "1" and "01" name one rank; the last one used to win, so the answer hung on key order
    losses = tmp_path / "losses.json"
    losses.write_text(text)
    assert run(["rankstar", "--losses", str(losses), "--full", "0.2", "--eps", "0.02"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "config" and "rank 1" in err["message"]


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


def test_unpack_reports_the_format_version_and_where_the_bytes_go(tmp_path, capsys):
    fresh, trained = tmp_path / "fresh.ltlr", tmp_path / "trained.ltlr"
    assert run(["pack", "--preset", "tiny", "--rank", "2", "--seed", "7", "--output", str(fresh)]) == 0
    # the committed fixtures' model, rounded to f16, packs as version 4
    cfg = ModelConfig(preset="tiny", rank=2)
    snapped = round_to_f16(build_model(cfg, BackboneSpec.from_config(cfg, 7)))
    save(str(trained), pack(snapped))
    values = snapped.params.size
    header_len = len(json.dumps(unpack(load(V2_FIXTURE))[0], sort_keys=True, separators=(",", ":")))
    cases = ((fresh, 1, 4), (V2_FIXTURE, 2, 2), (V3_FIXTURE, 3, 2), (V4_FIXTURE, 4, 2), (trained, 4, 2))
    outs = {}
    for path, version, value_bytes in cases:
        capsys.readouterr()
        assert run(["unpack", str(path)]) == 0
        out = outs[path] = json.loads(capsys.readouterr().out)
        assert out["format_version"] == version
        assert out["bytes"] == os.path.getsize(path)
        assert out["decoded_payload_bytes"] == value_bytes * values
        # magic, version and header length, then the header, table and payload as stored, then the CRC
        assert out["bytes"] == 10 + out["stored_header_bytes"] + out["table_bytes"] + out["stored_payload_bytes"] + 4
    # versions 1 to 3 share one raw header and one table layout; version 4
    # deflates the header, has no table and keeps version 3's planes stream
    for path in (fresh, V2_FIXTURE, V3_FIXTURE):
        assert outs[path]["stored_header_bytes"] == header_len
        assert outs[path]["table_bytes"] == outs[V2_FIXTURE]["table_bytes"] > 0
    assert outs[V4_FIXTURE] == outs[trained]
    assert outs[trained]["table_bytes"] == 0 and outs[trained]["stored_header_bytes"] < header_len
    stored = {path: out["stored_payload_bytes"] for path, out in outs.items()}
    assert stored[fresh] == 4 * values and stored[V2_FIXTURE] == 2 * values
    assert stored[trained] < stored[V3_FIXTURE] < stored[V2_FIXTURE]


@pytest.mark.parametrize("path", [V2_FIXTURE, V3_FIXTURE, V4_FIXTURE])
def test_unpack_parses_the_artifact_once(path, capsys, monkeypatch):
    blob = load(path)
    header, tensors = unpack(blob)
    expected = json.dumps({"header": header, "tensors": {k: list(v.shape) for k, v in tensors.items()},
                           **artifact_mod.read(blob)[2]}, indent=2, sort_keys=True) + "\n"
    parses = []

    def counting_read(data):
        parses.append(len(data))
        return read(data)

    monkeypatch.setattr(artifact_mod, "read", counting_read)
    capsys.readouterr()
    assert run(["unpack", str(path)]) == 0
    assert parses == [len(blob)]
    assert capsys.readouterr().out == expected


def test_pack_of_a_rank_above_every_layer_width_is_config_error(tmp_path, capsys):
    path = tmp_path / "wide.ltlr"
    assert run(["pack", "--preset", "tiny", "--rank", "129", "--output", str(path)]) == EXIT_CODES["config"]
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "128" in err["message"]
    assert not path.exists()


def test_unpack_corrupt_artifact_exit_code(tmp_path, capsys):
    path = tmp_path / "fresh.ltlr"
    run(["pack", "--preset", "tiny", "--output", str(path)])
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x01
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run(["unpack", str(path)]) == 6  # integrity


def test_unpack_of_a_missing_file_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "missing.ltlr"
    assert run(["unpack", str(path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and str(path) in err["message"]


def test_betastats_command(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"final_betas": [0.9, 1.1]}))
    assert run(["betastats", str(summary)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["mean"] == pytest.approx(1.0)
    assert stats["count"] == 2


@pytest.mark.parametrize("text", [
    '{"final_betas": [0.9',  # not JSON
    '[1]',  # a run that is not an object
    '"summary"',  # neither an object nor a list
    '{"final_betas": 0.9}',  # betas that are not a list
    '{"final_betas": [0.9, "x"]}',
    '{"final_betas": [0.9, NaN]}',  # printed as NaN, which is not JSON
    '[{"final_betas": [0.9]}, {"final_betas": [Infinity]}]',
    pytest.param('{"final_betas": [0.9, 1%s]}' % ("0" * 400), id="401-digit-beta"),
])
def test_malformed_summary_is_config_error(tmp_path, capsys, text):
    summary = tmp_path / "summary.json"
    summary.write_text(text)
    assert run(["betastats", str(summary)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_commands_parsed_with_no_flags_give_the_library_defaults():
    # the CLI restates no default: an unset flag reads the config's field
    parser = build_parser()
    parsed = {name: parser.parse_args([name]) for name in ("train", "pack", "seedgate", "sweep")}
    for name in ("train", "pack", "seedgate"):
        assert _model_config(parsed[name], parsed[name].rank) == ModelConfig(), name
    for name in ("train", "seedgate", "sweep"):
        assert _train_config(parsed[name]) == TrainConfig(), name
    # the default schedules parse to the config's resample and resample_k
    for schedule in (parsed["train"].resample, parsed["sweep"].schedules):
        assert _train_config(parsed["train"], *_parse_resample(schedule)) == TrainConfig(), schedule
    default_family = BackboneSpec(seed=0).family
    assert BackboneSpec.from_config(ModelConfig(), 0).family == default_family
    for name, args in parsed.items():
        assert _resolve_family(args, args.family) == default_family, name


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


def test_explicit_flag_beats_config_file(tmp_path, capsys):
    # the flag equals its default, so only "was it given" can tell them apart
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"rank": 4, "preset": "small"}))
    path = tmp_path / "m.ltlr"
    assert run(["pack", "--preset", "tiny", "--rank", "8", "--config", str(config),
                "--output", str(path)]) == 0
    capsys.readouterr()
    run(["unpack", str(path)])
    model = json.loads(capsys.readouterr().out)["header"]["model"]
    assert (model["rank"], model["preset"]) == (8, "tiny")


@pytest.mark.parametrize("text", [
    '{"rank": 4',  # not JSON
    '[{"rank": 4}]',  # not an object
    '{"rank": "x"}',  # rejected by the flag's type
    '{"scaling": "wide"}',  # not one of the flag's choices
    '{"config": "other.json"}',  # a config file never loads a second one
    '{"help": true}',  # no setting
])
def test_malformed_config_file_is_config_error(tmp_path, capsys, text):
    config = tmp_path / "conf.json"
    config.write_text(text)
    code = run(["pack", "--preset", "tiny", "--config", str(config), "--output", str(tmp_path / "m.ltlr")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "m.ltlr").exists()


@pytest.mark.parametrize("command,config", [
    ("pack", {"output": 5}),
    ("pack", {"family": ["normal"]}),
    ("pack", {"full": "false"}),
    ("pack", {"layernorm": 1}),
    ("pack", {"family_param": "sigma=0.5"}),
    ("seedgate", {"ooc": "false"}),
    ("seedgate", {"data_dir": None}),
])
def test_a_config_value_of_another_json_kind_than_its_flags_is_config_error(command, config, tmp_path, capsys,
                                                                            monkeypatch):
    # a string "false" is truthy, and a number is no path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LOTTALORA_DATA_DIR", raising=False)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    assert run([command, "--preset", "tiny", "--config", str(path)]) == EXIT_CODES["config"]
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and repr(next(iter(config))) in err["message"]
    assert os.listdir(tmp_path) == ["conf.json"]


@pytest.mark.parametrize("params", [
    {"family_param": ["sigma1=0.07"], "family.sigma2": 0.4},
    {"family.sigma2": 0.4, "family_param": ["sigma1=0.07"]},  # a later list keeps the dotted key
])
def test_a_config_file_sets_a_switch_a_path_and_family_params(params, tmp_path, capsys):
    path = tmp_path / "m.ltlr"
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"layernorm": True, "full": False, "output": str(path),
                                  "family": "gaussian_mixture", **params}))
    assert run(["pack", "--preset", "tiny", "--config", str(config)]) == 0
    capsys.readouterr()
    run(["unpack", str(path)])
    header = json.loads(capsys.readouterr().out)["header"]
    assert (header["model"]["layernorm"], header["model"]["mode"]) == (True, "lottalora")
    family_params = header["backbone"]["family"]["params"]
    assert (family_params["sigma1"], family_params["sigma2"]) == (0.07, 0.4)


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
    assert set(table) == {"static_r2", "epoch_r2"}
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


# -- data commands on a fake IDX set (tests/conftest.py:write_fake_idx) -------------


def _summaries(path):
    """A grid summary without the fields that name the run or its duration."""
    cells = json.loads(path.read_text())
    for cell in cells:
        del cell["wall_time"], cell["task"]["out_dir"]
    return cells


def test_train_verify_cycle_on_fake_idx(tmp_path, capsys, fake_mnist_dir):
    out = tmp_path / "run"
    assert run(["train", "--preset", "tiny", "--rank", "2", "--seed", "1", "--epochs", "2",
                "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == json.loads((out / "manifest.json").read_text())["resolved"]
    assert (out / "metrics.csv").read_text().splitlines()[-1].startswith("1,val,")
    capsys.readouterr()
    # a trained model ships on the int8 grid, as format version 4
    assert load(str(out / "model.ltlr"))[4:6] == b"\x04\x00"
    assert run(["verify", str(out / "model.ltlr"), "--data-dir", fake_mnist_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["test_accuracy"] == summary["final_test_accuracy"]
    # a recorded accuracy one ulp off the reconstruction's fails the check
    off = str(tmp_path / "off.ltlr")
    nudged = math.nextafter(summary["final_test_accuracy"], 2.0)
    trained = artifact_mod.reconstruct(*unpack(load(str(out / "model.ltlr"))))
    save(off, pack(trained, extra={"final_test_accuracy": nudged}))
    assert run(["verify", off, "--data-dir", fake_mnist_dir]) == 6
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "integrity" and repr(nudged) in err["message"]


@pytest.mark.parametrize("schedule", ["epoch", "micro:2"])
def test_resampled_train_records_no_accuracy_to_verify(tmp_path, capsys, fake_mnist_dir, schedule):
    # the artifact carries the build-time scaffold, not the run's last
    # redraw, so a resampled run's test accuracy is not reproducible from it
    out = tmp_path / "run"
    assert run(["train", "--preset", "tiny", "--rank", "2", "--seed", "1", "--epochs", "2",
                "--resample", schedule, "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 0
    header, _ = unpack(load(str(out / "model.ltlr")))
    assert header["extra"] == {}
    capsys.readouterr()
    assert run(["verify", str(out / "model.ltlr"), "--data-dir", fake_mnist_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False
    assert payload["recorded"] is None


def test_sweep_summary_does_not_depend_on_jobs(tmp_path, capsys, fake_mnist_dir):
    for jobs in ("1", "2"):
        assert run(["sweep", "--preset", "tiny", "--ranks", "2,4", "--seeds", "1,2", "--epochs", "1",
                    "--jobs", jobs, "--data-dir", fake_mnist_dir, "--out-dir", str(tmp_path / jobs)]) == 0
    one, two = _summaries(tmp_path / "1" / "sweep_summary.json"), _summaries(tmp_path / "2" / "sweep_summary.json")
    assert one == two
    assert [cell["status"] for cell in one] == ["ok"] * 4


def test_metalora_run_dirs_and_table_keys(tmp_path, capsys, fake_mnist_dir):
    out = tmp_path / "meta"
    assert run(["metalora", "--preset", "tiny", "--ranks", "2,4", "--seeds", "1", "--epochs", "1",
                "--schedules", "static,micro:2", "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"static_r2", "static_r4", "micro2_r2", "micro2_r4"}
    assert sorted(p.name for p in (out / "runs").iterdir()) == [
        "tiny_normal_r2_s1_micro2", "tiny_normal_r2_s1_static",
        "tiny_normal_r4_s1_micro2", "tiny_normal_r4_s1_static",
    ]
    assert json.loads((out / "manifest.json").read_text())["command"] == "metalora"
    assert len(json.loads((out / "metalora_summary.json").read_text())) == 4


def test_schedules_of_one_kind_keep_their_own_table_rows(tmp_path, capsys, fake_mnist_dir):
    assert run(["metalora", "--preset", "tiny", "--ranks", "2", "--seeds", "1", "--epochs", "1",
                "--schedules", "batch:2,batch:3", "--data-dir", fake_mnist_dir,
                "--out-dir", str(tmp_path / "meta")]) == 0
    table = json.loads(capsys.readouterr().out)
    assert set(table) == {"batch2_r2", "batch3_r2"}
    cells = json.loads((tmp_path / "meta" / "metalora_summary.json").read_text())
    assert [table[f"batch{cell['task']['train']['resample_k']}_r2"] for cell in cells] == [
        cell["final_test_accuracy"] for cell in cells]


@pytest.mark.parametrize("argv", [
    ["train", "--resample", "batch:x"],
    ["train", "--resample", "micro:x"],
    ["train", "--resample", "weekly"],
    ["metalora", "--schedules", "static,micro:"],
    ["metalora", "--schedules", "static,weekly"],
    ["seedgate", "--groups", "1,a"],
])
@pytest.mark.parametrize("with_data", [True, False])
def test_non_integer_schedule_or_group_is_config_error(argv, with_data, tmp_path, capsys, fake_mnist_dir,
                                                       monkeypatch):
    # a bad flag is a config error whether or not the data is there
    monkeypatch.delenv("LOTTALORA_DATA_DIR", raising=False)
    data = ["--data-dir", fake_mnist_dir] if with_data else []
    code = run(argv + ["--preset", "tiny", "--epochs", "1", "--out-dir", str(tmp_path / "out")] + data)
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_families_take_family_params(tmp_path, capsys, fake_mnist_dir):
    out = tmp_path / "fams"
    assert run(["sweep", "--preset", "tiny", "--families", "normal,binary", "--ranks", "2", "--epochs", "1",
                "--family-param", "sigma=0.5", "--family-scaling", "explicit",
                "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"normal_static_r2", "binary_static_r2"}
    families = [cell["task"]["family"] for cell in json.loads((out / "sweep_summary.json").read_text())]
    assert families == [
        {"name": "normal", "params": {"sigma": 0.5}, "scaling": "explicit"},
        {"name": "binary", "params": {"sigma": 0.5}, "scaling": "explicit"},
    ]


def test_seedgate_on_fake_idx(tmp_path, capsys, fake_mnist_dir):
    out = tmp_path / "gate"
    assert run(["seedgate", "--preset", "tiny", "--rank", "2", "--epochs", "1", "--groups", "1,2;3,4",
                "--seeds", "5,6", "--ooc", "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["assigned_accuracy"]) == 2
    assert json.loads((out / "seedgate.json").read_text())["seeds"] == [5, 6]


def _cell(rank, resample="static", lr=1e-3):
    return {
        "model": {**asdict(ModelConfig(preset="tiny")), "rank": rank},
        "family": asdict(InitFamily("normal")),
        "seed": 1,
        "train": asdict(TrainConfig(epochs=1, lr=lr, resample=resample)),
        "out_dir": None,
    }


def test_run_grid_survives_a_failing_cell(fake_mnist_dir):
    # rank 500 is past tiny's widths, so that cell's model cannot be built
    tasks = [_cell(2, lr=1e30), _cell(2), _cell(500), _cell(2, "per_epoch")]
    results = run_grid(tasks, 2, fake_mnist_dir)
    assert [result["task"] for result in results] == tasks
    assert [result["status"] for result in results] == ["failed:run", "ok", "failed:config", "ok"]
    diverging, fine, unbuildable, resampled = results
    assert "diverged at epoch 0, step 1" in diverging["message"]
    assert "rank must lie in" in unbuildable["message"]
    for result in (fine, resampled):
        assert 0.0 <= result["final_test_accuracy"] <= 1.0


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, fake_mnist_dir, jobs):
    out = tmp_path / "grid"
    assert run(["sweep", "--preset", "tiny", "--ranks", "2", "--epochs", "1", "--jobs", jobs,
                "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "--jobs" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--seeds", "1,1"], ["--ranks", "2,02"], ["--families", "normal,normal"], ["--schedules", "static,static"],
])
def test_a_grid_that_repeats_a_cell_is_config_error(tmp_path, capsys, fake_mnist_dir, flags):
    # two tasks with one run dir would write into it at once, and the table
    # would average the cell twice as if it were two seeds; a flag given
    # twice takes its last value, so ``flags`` overrides the one-cell grid
    out = tmp_path / "grid"
    assert run(["sweep", "--preset", "tiny", "--ranks", "2", "--seeds", "1", "--epochs", "1", *flags,
                "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert os.path.join(str(out), "runs", "tiny_normal_r2_s1_static") in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("schedules,name", [
    ("batch:2,batch:02", "batch2"), ("micro:4,micro:+4", "micro4"), ("batch:2,batch: 2", "batch2"),
])
def test_two_spellings_of_one_schedule_repeat_a_cell(tmp_path, capsys, fake_mnist_dir, schedules, name):
    # a run dir and table key are named from the parsed schedule, not its text
    out = tmp_path / "grid"
    assert run(["metalora", "--preset", "tiny", "--ranks", "2", "--seeds", "1", "--epochs", "1",
                "--schedules", schedules, "--data-dir", fake_mnist_dir, "--out-dir", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert os.path.join(str(out), "runs", f"tiny_normal_r2_s1_{name}") in err["message"]
    assert not out.exists()


def test_failed_cells_are_summarized_then_exit_run(tmp_path, capsys, fake_mnist_dir):
    out = tmp_path / "bad"
    code = run(["sweep", "--preset", "tiny", "--ranks", "2", "--seeds", "1,2", "--epochs", "1", "--lr", "1e30",
                "--data-dir", fake_mnist_dir, "--out-dir", str(out)])
    assert code == 8
    assert json.loads(capsys.readouterr().err)["error"] == "run"
    cells = json.loads((out / "sweep_summary.json").read_text())
    assert [cell["status"] for cell in cells] == ["failed:run", "failed:run"]


def test_grid_data_error_is_not_a_cell_failure(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run(["sweep", "--preset", "tiny", "--ranks", "2,4", "--epochs", "1", "--jobs", "2",
                "--data-dir", str(empty), "--out-dir", str(tmp_path / "out")])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "data"


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1"],
    ["sweep", "--rank", "4"],
    ["sweep", "--resample", "epoch"],
    ["metalora", "--seed", "1"],
    ["metalora", "--resample", "epoch"],
    ["seedgate", "--seed", "1"],
    ["seedgate", "--resample", "epoch"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, fake_mnist_dir):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--data-dir", fake_mnist_dir])
    assert exc.value.code == 2


def test_train_on_five_images_is_a_data_error(tmp_path, capsys):
    # a 10% validation split of 5 rows rounds to none; the run must fail
    # as bad data, not with a ZeroDivisionError from evaluating it
    data_dir = write_fake_idx(tmp_path / "idx", n_train=5, n_test=5)
    code = run(["train", "--preset", "tiny", "--rank", "2", "--epochs", "1",
                "--data-dir", data_dir, "--out-dir", str(tmp_path / "run")])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "data"


def test_train_on_a_truncated_gz_idx_file_is_a_parse_error(tmp_path, capsys):
    data_dir = write_fake_idx(tmp_path / "idx", n_train=20, n_test=10)
    path = spoil_as_gz(data_dir, "test_labels", lambda gz: gz[:-10])
    code = run(["train", "--preset", "tiny", "--rank", "2", "--epochs", "1",
                "--data-dir", data_dir, "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_CODES["parse"] == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse" and path in err["message"]


def test_train_on_swapped_idx_files_is_a_parse_error(tmp_path, capsys):
    data_dir = write_fake_idx(tmp_path / "idx", n_train=40, n_test=10)
    images, _ = swap_train_files(data_dir)
    code = run(["train", "--preset", "tiny", "--rank", "2", "--epochs", "1",
                "--data-dir", data_dir, "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_CODES["parse"] == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse" and images in err["message"]


@pytest.mark.parametrize("flag,value", [("--lr", "-1"), ("--lr", "nan"), ("--weight-decay", "-5")])
def test_bad_lr_or_weight_decay_is_config_error(tmp_path, capsys, fake_mnist_dir, flag, value):
    code = run(["train", "--preset", "tiny", "--rank", "2", "--epochs", "1", flag, value,
                "--data-dir", fake_mnist_dir, "--out-dir", str(tmp_path / "run")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["pack", "--preset", "tiny", "--seed", "-1"],
    ["pack", "--preset", "tiny", "--seed", str(2**64)],
    ["pack", "--preset", "tiny", "--alpha", "nan"],
    ["pack", "--preset", "tiny", "--alpha", "0"],
    ["sweep", "--preset", "tiny", "--ranks", "2", "--seeds", "1,-1", "--epochs", "1"],
    ["seedgate", "--preset", "tiny", "--rank", "2", "--seeds", "5,-6", "--groups", "1;2", "--epochs", "1"],
])
def test_out_of_range_seed_or_alpha_is_config_error(argv, tmp_path, capsys, fake_mnist_dir):
    extra = ["--output", str(tmp_path / "m.ltlr")] if argv[0] == "pack" else [
        "--data-dir", fake_mnist_dir, "--out-dir", str(tmp_path / "out")]
    assert run(argv + extra) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "m.ltlr").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--rank", "2", "--seed", "1"],
    ["sweep", "--ranks", "2", "--seeds", "1"],
    ["seedgate", "--rank", "2", "--groups", "1;2", "--seeds", "5,6"],
])
def test_images_of_the_wrong_width_are_a_data_error(argv, tmp_path, capsys):
    # 20x20-pixel images for a 784-input model: refused before any model is built
    data_dir = write_fake_idx(tmp_path / "idx", n_train=40, n_test=20, side=20)
    out = tmp_path / "out"
    code = run(argv + ["--preset", "tiny", "--epochs", "1", "--data-dir", data_dir, "--out-dir", str(out)])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and "400" in err["message"] and "784" in err["message"]
    assert not (out / "model.ltlr").exists()


def test_verify_of_an_artifact_of_another_width_is_a_data_error(tmp_path, capsys, fake_mnist_dir):
    cfg = ModelConfig(preset="tiny", rank=2, input_dim=10)
    path = str(tmp_path / "m.ltlr")
    save(path, pack(build_model(cfg, BackboneSpec.from_config(cfg, 3))))
    assert run(["verify", path, "--data-dir", fake_mnist_dir]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and "784" in err["message"] and "10" in err["message"]


@pytest.mark.parametrize("edit,code,category", [
    (lambda h: h.update(extra=[]), 5, "format"),
    (lambda h: h.update(extra="x"), 5, "format"),
    (lambda h: h["extra"].update(final_test_accuracy="0.5"), 5, "format"),
    (lambda h: h["backbone"].update(algorithm_id="splitmix64-boxmuller-v2"), 7, "incompatibility"),
    (lambda h: h["backbone"].update(layer_shapes=[[5, 5]]), 5, "format"),
], ids=["extra-list", "extra-string", "accuracy-string", "backbone-v2", "layer-shapes"])
def test_verify_of_a_malformed_header_exits_with_its_category(edit, code, category, tmp_path, capsys,
                                                              fake_mnist_dir):
    cfg = ModelConfig(preset="tiny", rank=2)
    blob = pack(build_model(cfg, BackboneSpec.from_config(cfg, 3)), extra={"final_test_accuracy": 0.5})
    path = str(tmp_path / "m.ltlr")
    save(path, reheader(blob, edit))
    assert run(["verify", path, "--data-dir", fake_mnist_dir]) == code
    assert json.loads(capsys.readouterr().err)["error"] == category


def test_seedgate_on_a_digit_with_no_training_rows_is_a_data_error(tmp_path, capsys):
    data_dir = write_fake_idx(tmp_path / "idx", n_train=60, n_test=30, classes=3)
    code = run(["seedgate", "--preset", "tiny", "--rank", "2", "--epochs", "1", "--groups", "0,1;5",
                "--seeds", "5,6", "--data-dir", data_dir, "--out-dir", str(tmp_path / "gate")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and "[5]" in err["message"]


@pytest.mark.parametrize("params", [
    ["--family", "student_t", "--family-param", "nu=inf"],
    ["--family", "normal", "--family-param", "sigma=inf", "--family-scaling", "explicit"],
    ["--family", "gaussian_mixture", "--family-param", "w1=nan"],
])
def test_non_finite_family_params_are_config_errors(params, tmp_path, capsys):
    path = tmp_path / "m.ltlr"
    assert run(["pack", "--preset", "tiny", "--output", str(path)] + params) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and params[3].split("=")[0] in err["message"]
    assert not path.exists()


@pytest.mark.parametrize("pair,message", [("sigma", "key=value"), ("sigma=abc", "not a number")])
def test_a_malformed_family_param_is_a_config_error(pair, message, tmp_path, capsys):
    path = tmp_path / "m.ltlr"
    assert run(["pack", "--preset", "tiny", "--output", str(path), "--family-param", pair]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and message in err["message"]
    assert not path.exists()


def test_student_t_nu_over_a_draw_chunk_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "m.ltlr"
    code = run(["pack", "--preset", "tiny", "--output", str(path), "--family", "student_t",
                "--family-param", f"nu={10 ** 9}"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "draw chunk" in err["message"]
    assert not path.exists()


def run_module(*argv, cwd):
    src = os.path.dirname(os.path.dirname(lottalora.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "lottalora.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_python_dash_m_runs_the_cli(tmp_path):
    (tmp_path / "junk.ltlr").write_bytes(b"junk")
    proc = run_module("unpack", "junk.ltlr", cwd=tmp_path)
    assert proc.returncode == 5
    assert json.loads(proc.stderr)["error"] == "format"


def test_python_dash_m_sweep_runs_spawned_workers(tmp_path, fake_mnist_dir):
    proc = run_module("sweep", "--preset", "tiny", "--epochs", "1", "--ranks", "1,2", "--jobs", "2",
                      "--data-dir", fake_mnist_dir, "--out-dir", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {"static_r1", "static_r2"}
    assert len(json.loads((tmp_path / "out" / "sweep_summary.json").read_text())) == 2
