"""End-to-end command-line tests; everything runs in-process via main()."""

import numpy as np
import pytest

from scaleseg import cli
from scaleseg.checkpoint import load_checkpoint, save_checkpoint
from scaleseg.io import read_cloud

FAST = ["--voxel-sizes", "0.5,0.35", "--feature-dim", "8"]


def run(argv):
    return cli.main(argv)


def test_generate_and_partition(tmp_path, capsys):
    scene = tmp_path / "scene.rspc"
    assert run(["generate", "--points", "1500", "--seed", "3",
                "--out", str(scene)]) == 0
    cloud = read_cloud(scene)
    assert cloud.n == 1500
    assert run(["partition", "--in", str(scene),
                "--voxel-sizes", "0.5,0.35"]) == 0
    out = capsys.readouterr().out
    assert "scale=1 voxel_size=0.5" in out
    assert "whole_cost=" in out


def test_generate_requires_out():
    assert run(["generate", "--points", "100"]) == 3


def test_generate_ascii_format(tmp_path):
    scene = tmp_path / "scene.xyz"
    assert run(["generate", "--points", "200", "--format", "ascii",
                "--out", str(scene)]) == 0
    assert len(scene.read_text().splitlines()) == 200


def test_gain_oracle_line(capsys):
    assert run(["gain", "--sizes", "1000,2000,3000,4000"]) == 0
    out = capsys.readouterr().out
    assert "whole_cost=100000000" in out
    assert "scalable_cost=30000000" in out
    assert "gain=70000000" in out


def test_gain_requires_input():
    assert run(["gain"]) == 3


def test_gain_rejects_garbage():
    assert run(["gain", "--sizes", "1,foo"]) == 3
    assert run(["gain", "--sizes", "0,5"]) == 3


def test_bad_voxel_sizes_is_config_error(tmp_path):
    scene = tmp_path / "s.rspc"
    run(["generate", "--points", "300", "--out", str(scene)])
    assert run(["partition", "--in", str(scene),
                "--voxel-sizes", "0.3,0.4"]) == 3


def test_missing_input_file_is_io_error(tmp_path):
    assert run(["partition", "--in", str(tmp_path / "nope.rspc")]) == 2


def test_non_finite_input_file_is_io_error(tmp_path, capsys):
    scene = tmp_path / "nan.xyz"
    scene.write_text("0 0 0 0 0 0\nnan 1 1 10 10 10\n")
    assert run(["partition", "--in", str(scene)]) == 2
    assert "nan.xyz" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    scene = tmp_path / "s.rspc"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("points=800\n")
    assert run(["generate", "--config", str(cfgfile), "--points", "500",
                "--out", str(scene)]) == 0
    assert read_cloud(scene).n == 500


def test_config_file_flow(tmp_path, capsys):
    scene = tmp_path / "s.rspc"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("points=800\nvoxel_sizes=0.5,0.35\n")
    assert run(["generate", "--config", str(cfgfile), "--out", str(scene)]) == 0
    assert read_cloud(scene).n == 800
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key=1\n")
    assert run(["generate", "--config", str(bad), "--out", str(scene)]) == 3
    dup = tmp_path / "dup.cfg"
    dup.write_text("points=1\npoints=2\n")
    assert run(["generate", "--config", str(dup), "--out", str(scene)]) == 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Two trained scales + baseline in a shared models dir."""
    root = tmp_path_factory.mktemp("models")
    models = root / "m"
    common = ["--models", str(models), "--scenes", "1", "--points", "1500",
              "--classes", "4", "--epochs", "2", "--seed", "1"] + FAST
    assert cli.main(["train", "--scale", "1"] + common) == 0
    assert cli.main(["train", "--scale", "2"] + common) == 0
    assert cli.main(["train", "--baseline"] + common) == 0
    return models


def test_train_checkpoints_exist(trained):
    assert (trained / "scale_1.ckpt").is_file()
    assert (trained / "scale_2.ckpt").is_file()
    assert (trained / "baseline.ckpt").is_file()


def test_train_requires_scale_or_baseline(tmp_path):
    assert run(["train", "--models", str(tmp_path / "m")]) == 3


def test_train_scale_out_of_order(tmp_path):
    # scale 2 without a frozen scale-1 checkpoint on disk
    assert run(["train", "--scale", "2", "--models", str(tmp_path / "m"),
                "--scenes", "1", "--points", "600", "--epochs", "1"]
               + FAST) == 2


def test_infer_round_trip(tmp_path, trained, capsys):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "1500", "--classes", "4", "--seed", "9",
         "--out", str(scene)])
    pred_path = tmp_path / "pred.xyz"
    assert run(["infer", "--in", str(scene), "--models", str(trained),
                "--voxel-sizes", "0.5,0.35", "--arrival-times", "0,5",
                "--out", str(pred_path)]) == 0
    out = capsys.readouterr().out
    assert "scale=1" in out and "pipelined_ms=" in out
    labeled = read_cloud(pred_path)
    assert labeled.labels is not None
    assert labeled.labels.max() < 4


def test_infer_bad_arrivals(tmp_path, trained):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "500", "--classes", "4", "--out", str(scene)])
    assert run(["infer", "--in", str(scene), "--models", str(trained),
                "--voxel-sizes", "0.5,0.35", "--arrival-times", "0,x"]) == 3


def test_infer_corrupt_checkpoint(tmp_path):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    (bad / "scale_1.ckpt").write_bytes(b"garbage")
    assert run(["infer", "--in", str(scene), "--models", str(bad),
                "--voxel-sizes", "0.5"]) == 2


def test_infer_checkpoint_missing_tensor(tmp_path, trained, capsys):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    for name in ("scale_1.ckpt", "scale_2.ckpt"):
        (bad / name).write_bytes((trained / name).read_bytes())
    params, bcfg, frozen, extras = load_checkpoint(bad / "scale_2.ckpt")
    del params["fuse_cw"]
    save_checkpoint(bad / "scale_2.ckpt", params, bcfg, frozen=frozen,
                    extras=extras)
    assert run(["infer", "--in", str(scene), "--models", str(bad),
                "--voxel-sizes", "0.5,0.35"]) == 2
    assert "fuse_cw" in capsys.readouterr().err


def test_infer_non_utf8_checkpoint(tmp_path, trained, capsys):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    data = (trained / "scale_1.ckpt").read_bytes()
    assert data.count(b"role=scale") == 1
    (bad / "scale_1.ckpt").write_bytes(data.replace(b"role=scale",
                                                    b"role=scal\xff"))
    assert run(["infer", "--in", str(scene), "--models", str(bad),
                "--voxel-sizes", "0.5"]) == 2
    assert "utf-8" in capsys.readouterr().err


def test_eval_reports_metrics(trained, capsys):
    assert run(["eval", "--models", str(trained), "--scenes", "1",
                "--points", "1500", "--classes", "4", "--seed", "1",
                "--voxel-sizes", "0.5,0.35"]) == 0
    out = capsys.readouterr().out
    assert "method=fusion" in out
    assert "miou=" in out
    assert run(["eval", "--models", str(trained), "--scenes", "1",
                "--points", "1500", "--classes", "4", "--seed", "1",
                "--voxel-sizes", "0.5,0.35", "--no-fusion"]) == 0
    assert "method=no-fusion" in capsys.readouterr().out


def test_bench_reports_ratios(capsys):
    assert run(["bench", "--points", "1500", "--classes", "5", "--seed", "2"]
               + ["--voxel-sizes", "0.5,0.35"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "predicted_ratio=" in out
    assert "measured_ratio=" in out


def test_internal_error_maps_to_4(monkeypatch):
    def boom(sizes):
        raise ValueError("identity violated")

    monkeypatch.setattr(cli, "estimate_gain", boom)
    assert run(["gain", "--sizes", "2,3"]) == 4


def test_output_file_writing(tmp_path):
    out = tmp_path / "gain.txt"
    assert run(["gain", "--sizes", "2,3", "--out", str(out)]) == 0
    assert "gain=12" in out.read_text()
