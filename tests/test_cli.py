import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import lottalora
from lottalora.artifact import load, pack, save, unpack
from lottalora.cli import EXIT_CODES, run, run_grid
from lottalora.errors import LottaError
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.train import TrainConfig

from conftest import requires_mnist, write_fake_idx
from test_artifact import reheader


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


@pytest.mark.parametrize("flags", [["--rank", "0"], ["--tokens", "-5"], ["--tokens", "nan"], ["--tokens", "inf"]])
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


@pytest.mark.parametrize("text", [
    '{"1": 0.5',  # not JSON
    '[0.5, 0.3]',  # not an object
    '{"x": 0.5}',  # a rank that is not an integer
    '{"1": "x"}',  # a loss that is not a number
    '{"1": null}',
    '{"1": [0.5]}',
])
def test_malformed_loss_table_is_config_error(tmp_path, capsys, text):
    losses = tmp_path / "losses.json"
    losses.write_text(text)
    assert run(["rankstar", "--losses", str(losses), "--full", "0.2", "--eps", "0.01"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


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


@pytest.mark.parametrize("text", [
    '{"final_betas": [0.9',  # not JSON
    '[1]',  # a run that is not an object
    '"summary"',  # neither an object nor a list
    '{"final_betas": 0.9}',  # betas that are not a list
    '{"final_betas": [0.9, "x"]}',
])
def test_malformed_summary_is_config_error(tmp_path, capsys, text):
    summary = tmp_path / "summary.json"
    summary.write_text(text)
    assert run(["betastats", str(summary)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


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
    # a trained model ships at f16, as format version 2
    assert load(str(out / "model.ltlr"))[4:6] == b"\x02\x00"
    assert run(["verify", str(out / "model.ltlr"), "--data-dir", fake_mnist_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["test_accuracy"] == summary["final_test_accuracy"]


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
    ["metalora", "--schedules", "static,micro:"],
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


def _grid_task(lr):
    return {
        "model": asdict(ModelConfig(preset="tiny", rank=2)),
        "family": asdict(InitFamily("normal")),
        "seed": 1,
        "train": asdict(TrainConfig(epochs=1, lr=lr)),
        "out_dir": None,
    }


def test_run_grid_survives_a_failing_cell(fake_mnist_dir):
    diverging, fine = run_grid([_grid_task(1e30), _grid_task(1e-3)], 2, fake_mnist_dir)
    assert diverging["status"] == "failed:run"
    assert "diverged at epoch 0, step 1" in diverging["message"]
    assert fine["status"] == "ok"
    assert fine["task"] == _grid_task(1e-3)
    assert 0.0 <= fine["final_test_accuracy"] <= 1.0


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
