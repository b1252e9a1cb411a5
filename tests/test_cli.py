"""End-to-end command-line tests; everything runs in-process via main()."""

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scaleseg import cli
from scaleseg.backbone import BackboneConfig, init_params, param_shapes
from scaleseg.checkpoint import load_checkpoint, save_checkpoint
from scaleseg.cloud import PointCloud
from scaleseg.io import read_cloud, write_cloud

FAST = ["--voxel-sizes", "0.5,0.35", "--feature-dim", "8"]


def run(argv):
    return cli.main(argv)


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _records(out):
    """The JSON records of an output text, each checked to be strict JSON
    and to lead with its kind."""
    records = [json.loads(line, parse_constant=_no_constant)
               for line in out.splitlines() if line.startswith("{")]
    for rec in records:
        assert next(iter(rec)) == "record", rec
    return records


def _of_kind(out, kind):
    return [r for r in _records(out) if r["record"] == kind]


def test_generate_and_partition(tmp_path, capsys):
    scene = tmp_path / "scene.rspc"
    assert run(["generate", "--points", "1500", "--seed", "3",
                "--out", str(scene)]) == 0
    cloud = read_cloud(scene)
    assert cloud.n == 1500
    assert run(["partition", "--in", str(scene),
                "--voxel-sizes", "0.5,0.35"]) == 0
    out = capsys.readouterr().out
    partitions = _of_kind(out, "partition")
    assert [(r["scale"], r["voxel_size"]) for r in partitions] == [
        (1, 0.5), (2, 0.35)]
    [selection] = _of_kind(out, "selection")
    assert selection["total"] == 1500
    assert selection["selected"] == sum(r["size"] for r in partitions)
    [gain] = _of_kind(out, "gain")
    assert gain["sizes"] == [r["size"] for r in partitions]
    assert gain["whole_cost"] == sum(gain["sizes"]) ** 2


def test_generate_requires_out():
    assert run(["generate", "--points", "100"]) == 3


def test_generate_ascii_format(tmp_path):
    scene = tmp_path / "scene.xyz"
    assert run(["generate", "--points", "200", "--out", str(scene)]) == 0
    assert len(scene.read_text().splitlines()) == 200


def test_gain_oracle_line(capsys):
    assert run(["gain", "--sizes", "1000,2000,3000,4000"]) == 0
    out = capsys.readouterr().out
    assert _records(out) == [{
        "record": "gain", "sizes": [1000, 2000, 3000, 4000],
        "whole_cost": 100000000, "scalable_cost": 30000000,
        "gain": 70000000, "reduction_ratio": 0.3}]


def test_gain_requires_input():
    assert run(["gain"]) == 3


def test_gain_rejects_garbage():
    assert run(["gain", "--sizes", "1,foo"]) == 3
    assert run(["gain", "--sizes", "0,5"]) == 3


@pytest.mark.parametrize("argv,config,message", [
    (["generate", "--points", "0"], None, "num_points must be >= 1"),
    (["train", "--scale", "1", "--epochs", "0"], None, "epochs must be >= 1"),
    (["train", "--scale", "1", "--feature-dim", "0"], None, "feature_dim"),
    (["train", "--scale", "1", "--k-fuse", "-1"], None, "k_fuse must be >= 0"),
    (["partition", "--voxel-sizes", "nan,0.1"], None,
     "voxel sizes must be positive and finite"),
    (["partition", "--voxel-sizes", "inf,0.1"], None,
     "voxel sizes must be positive and finite"),
    (["generate", "--extents", "nan,8,3"], None,
     "extents must be three positive finite reals"),
    (["generate", "--extents", "1e308,8,3"], None, "extents out of range"),
    (["generate", "--extents", "1e200,1e200,3"], None, "extents out of range"),
    (["generate", "--extents", "1e-200,1e-200,1e-200"], None,
     "extents out of range"),
    (["generate", "--noise", "nan"], None, "noise_sigma must be finite"),
    (["train", "--scale", "1", "--learning-rate", "inf"], None,
     "learning_rate must be finite"),
    (["train", "--scale", "1"], "downsample_factor=inf\n",
     "downsample_factor must be finite"),
    (["train", "--scale", "1", "--learning-rate", "1e300", "--epochs", "2"],
     None, "learning_rate"),
    (["generate", "--seed", "-1"], None, "seed must be >= 0"),
    (["train", "--scale", "1"], "seed=-1\n", "seed must be >= 0"),
], ids=["points", "epochs", "feature-dim", "k-fuse", "voxel-nan", "voxel-inf",
        "extents-nan", "extents-overflow", "areas-overflow", "areas-underflow",
        "noise-nan", "learning-rate-inf", "downsample-inf-config",
        "learning-rate-diverges", "seed-negative", "seed-negative-config"])
def test_bad_config_value_is_config_error(tmp_path, capsys, argv, config,
                                          message):
    out = tmp_path / "out.txt"
    models = tmp_path / "m"
    if config is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        argv = argv + ["--config", str(cfgfile)]
    if argv[0] == "partition":
        scene = tmp_path / "s.rspc"
        assert run(["generate", "--points", "300", "--out", str(scene)]) == 0
        argv = argv + ["--in", str(scene)]
    elif argv[0] == "train":
        argv = argv + ["--models", str(models), "--scenes", "1",
                       "--points", "300", "--voxel-sizes", "0.5"]
    assert run(argv + ["--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists() and not models.exists()


def test_single_class_input_is_input_error(tmp_path, capsys):
    # an ascii cloud's class count is its largest label plus one
    scene = tmp_path / "one.xyz"
    scene.write_text("".join(f"{i * 0.1} 0 0 10 20 30 0\n" for i in range(50)))
    assert run(["train", "--scale", "1", "--in", str(scene), "--models",
                str(tmp_path / "m"), "--voxel-sizes", "0.5"]) == 2
    assert "at least 2 classes" in capsys.readouterr().err


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


def test_cloud_beyond_voxel_key_range_is_input_error(tmp_path, capsys):
    # a valid cloud whose second point lies 6.25M voxels out at 0.16 m
    scene = tmp_path / "far.xyz"
    scene.write_text("0 0 0 0 0 0\n1e6 0 0 10 10 10\n")
    assert run(["partition", "--in", str(scene)]) == 2
    err = capsys.readouterr().err
    assert "voxel size 0.16" in err and "2^20" in err


def test_bench_baseline_beyond_voxel_key_range_is_input_error(tmp_path, capsys):
    # the cloud spans 1.9M voxels at 0.16 m, where scale 1 claims every
    # point, but 2.5M at 0.12 m, where the baseline's second encoder
    # stage pools
    scene = tmp_path / "far.xyz"
    scene.write_text("0 0 0 0 0 0\n0.5 0 0 0 0 0\n300000 0 0 10 10 10\n")
    assert run(["partition", "--in", str(scene)]) == 0
    capsys.readouterr()
    assert run(["bench", "--in", str(scene), "--classes", "3"]) == 2
    err = capsys.readouterr().err
    assert "voxel size 0.12" in err and "2^20" in err


def test_config_table_names_existing_fields():
    for key, (cls, name, _) in cli._CONFIG_FIELDS.items():
        assert name in {f.name for f in dataclasses.fields(cls)}, key


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


def test_train_scale_and_baseline_is_config_error(tmp_path, capsys):
    assert run(["train", "--scale", "2", "--baseline",
                "--models", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "--scale" in err and "--baseline" in err
    assert not (tmp_path / "m").exists()


def test_train_scale_out_of_range_is_config_error(tmp_path, capsys, monkeypatch):
    # rejected from the partition config alone: no scene is built and no
    # --models directory is made
    def no_scenes(*args):
        raise AssertionError("scenes were loaded before the range check")

    monkeypatch.setattr(cli, "_load_scenes", no_scenes)
    models = tmp_path / "m9"
    assert run(["train", "--scale", "9", "--models", str(models),
                "--scenes", "1", "--points", "600"] + FAST) == 3
    assert "--scale must lie in 1..2" in capsys.readouterr().err
    assert not models.exists()


def test_train_scale_out_of_order(tmp_path):
    # scale 2 without a frozen scale-1 checkpoint on disk; the failed run
    # leaves no empty --models directory behind
    models = tmp_path / "m"
    assert run(["train", "--scale", "2", "--models", str(models),
                "--scenes", "1", "--points", "600", "--epochs", "1"]
               + FAST) == 2
    assert not models.exists()


def test_train_scale_without_points_is_input_error(tmp_path, capsys):
    # at 1 mm scale 1 takes every point, so scale 2 has none to train on
    common = ["--scenes", "1", "--points", "300", "--epochs", "1",
              "--voxel-sizes", "0.001,0.0005", "--models", str(tmp_path / "m")]
    assert run(["train", "--scale", "1"] + common) == 0
    capsys.readouterr()
    assert run(["train", "--scale", "2"] + common) == 2
    err = capsys.readouterr().err
    assert "scale 2" in err and "0.0005" in err


def test_train_baseline_without_points_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.rspc"
    write_cloud(PointCloud(np.zeros((0, 3)), np.zeros((0, 3)),
                           np.zeros(0, dtype=np.int64), 4), empty)
    models = tmp_path / "m"
    assert run(["train", "--baseline", "--in", str(empty), "--models",
                str(models), "--epochs", "1"] + FAST) == 2
    err = capsys.readouterr().err
    assert "baseline" in err and "scale 1" not in err
    assert not (models / "baseline.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_zero_scenes_is_config_error(tmp_path, capsys, command):
    argv = [command, "--models", str(tmp_path / "m"), "--scenes", "0"]
    if command == "train":
        argv += ["--scale", "1"]
    assert run(argv) == 3
    assert "scenes" in capsys.readouterr().err


def test_train_out_writes_records_to_file(tmp_path, capsys):
    out = tmp_path / "train.txt"
    assert run(["train", "--scale", "1", "--models", str(tmp_path / "m"),
                "--scenes", "1", "--points", "300", "--epochs", "2",
                "--out", str(out)] + FAST) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert [r["epoch"] for r in _of_kind(text, "epoch")] == [1, 2]
    assert text.splitlines()[-1] == f"saved {tmp_path / 'm' / 'scale_1.ckpt'}"


def test_train_refuses_lower_scale_of_other_config(tmp_path, trained, capsys):
    # scale 1 was trained with the default k_fuse
    models = tmp_path / "m"
    models.mkdir()
    (models / "scale_1.ckpt").write_bytes((trained / "scale_1.ckpt").read_bytes())
    assert run(["train", "--scale", "2", "--k-fuse", "4", "--models", str(models),
                "--scenes", "1", "--points", "1500", "--classes", "4",
                "--epochs", "1", "--seed", "1"] + FAST) == 2
    assert "scale_1.ckpt" in capsys.readouterr().err
    assert not (models / "scale_2.ckpt").exists()


def test_train_refuses_lower_scale_of_other_voxel_sizes(tmp_path, trained,
                                                        capsys):
    # scale 1 was trained at 0.5 m
    models = tmp_path / "m"
    models.mkdir()
    (models / "scale_1.ckpt").write_bytes((trained / "scale_1.ckpt").read_bytes())
    assert run(["train", "--scale", "2", "--models", str(models),
                "--scenes", "1", "--points", "1500", "--classes", "4",
                "--epochs", "1", "--seed", "1", "--feature-dim", "8",
                "--voxel-sizes", "0.45,0.35"]) == 2
    err = capsys.readouterr().err
    assert "scale_1.ckpt" in err
    assert "trained with voxel sizes 0.5,0.35, configured 0.45,0.35" in err
    assert not (models / "scale_2.ckpt").exists()


def test_bench_with_trained_models(trained, capsys):
    assert run(["bench", "--models", str(trained), "--points", "1500",
                "--classes", "4", "--seed", "1",
                "--voxel-sizes", "0.5,0.35"]) == 0
    out = capsys.readouterr().out
    [base] = _of_kind(out, "baseline")
    # the baseline runs on the union of every scale
    assert base["n_points"] == sum(r["n_points"] for r in _of_kind(out, "scale"))
    assert base["n_points"] > 0
    [ratio] = _of_kind(out, "ratio")
    assert ratio["measured_ratio"] > 0


def test_bench_baseline_of_other_config(tmp_path, trained, capsys):
    models = tmp_path / "m"
    models.mkdir()
    for name in ("scale_1.ckpt", "scale_2.ckpt"):
        (models / name).write_bytes((trained / name).read_bytes())
    _, bcfg, frozen, extras = load_checkpoint(trained / "baseline.ckpt")
    other = dataclasses.replace(bcfg, feature_dim=bcfg.feature_dim + 4)
    save_checkpoint(models / "baseline.ckpt", init_params(other), other,
                    frozen=frozen, extras=extras)
    assert run(["bench", "--models", str(models), "--points", "1500",
                "--classes", "4", "--voxel-sizes", "0.5,0.35"]) == 2
    assert "baseline.ckpt" in capsys.readouterr().err


def test_infer_round_trip(tmp_path, trained, capsys):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "1500", "--classes", "4", "--seed", "9",
         "--out", str(scene)])
    pred_path = tmp_path / "pred.xyz"
    assert run(["infer", "--in", str(scene), "--models", str(trained),
                "--voxel-sizes", "0.5,0.35", "--arrival-times", "0,5",
                "--out", str(pred_path)]) == 0
    out = capsys.readouterr().out
    scales = _of_kind(out, "scale")
    assert [r["scale"] for r in scales] == [1, 2]
    assert [r["arrival_ms"] for r in scales] == [0.0, 5.0]
    for rec in scales:
        assert rec["n_coarse"] > 0
        assert rec["pipelined_ms"] <= rec["cumulative_ms"] + 1e-9
        assert rec["completion_ms"] >= rec["arrival_ms"]
    assert "Pipelined(ms)" in out
    labeled = read_cloud(pred_path)
    assert labeled.labels is not None
    assert labeled.labels.max() < 4


@pytest.mark.parametrize("setting, reported", [(None, "1"), ("2", "2")],
                         ids=["unset", "openblas-2"])
def test_infer_reports_blas_threads(tmp_path, trained, setting, reported):
    # a fresh interpreter, since BLAS reads the variables once, when numpy
    # loads: the package import sets one thread unless the user set one
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "1500", "--classes", "4", "--seed", "9",
         "--out", str(scene)])
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    done = subprocess.run(
        [sys.executable, "-m", "scaleseg.cli", "infer", "--in", str(scene),
         "--models", str(trained), "--voxel-sizes", "0.5,0.35", "--threaded"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    [rec] = _of_kind(done.stdout, "run")
    assert rec == {"record": "run", "backend": "numpy",
                   "blas_threads": reported}


def test_infer_bad_arrivals(tmp_path, trained, monkeypatch):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "500", "--classes", "4", "--out", str(scene)])

    def no_load(*args):
        raise AssertionError("models loaded before the arrivals were checked")

    # garbage, wrong count, decreasing, negative, non-finite; none may
    # reach the models
    monkeypatch.setattr(cli, "_load_models", no_load)
    for arrivals in ["0,x", "0,1,2", "5,1", "-1,1", "nan,1", "0,inf"]:
        assert run(["infer", "--in", str(scene), "--models", str(trained),
                    "--voxel-sizes", "0.5,0.35",
                    f"--arrival-times={arrivals}"]) == 3, arrivals


def _with_copies(trained, models, copies, voxels, keep_role=True):
    """A models dir whose files are copies of trained ones ({target:
    source}), each recording the voxel sizes `voxels` (none when None)
    and, when `keep_role`, the role and scale id its source was trained
    as."""
    models.mkdir()
    for target, source in copies.items():
        params, bcfg, frozen, extras = load_checkpoint(trained / source)
        extras.pop("voxel_sizes")
        if voxels is not None:
            extras["voxel_sizes"] = voxels
        if not keep_role:
            extras.pop("role")
            extras.pop("scale_id", None)
        save_checkpoint(models / target, params, bcfg, frozen=frozen,
                        extras=extras)


TRAINED_SCALES = {"scale_1.ckpt": "scale_1.ckpt", "scale_2.ckpt": "scale_2.ckpt"}


@pytest.mark.parametrize("recorded, voxels, code", [
    ("0.5,0.35", "0.2,0.1", 2),
    ("0.5,0.35", "0.5,0.3", 2),
    ("0.5,0.35", "0.5", 0),  # a shorter configured prefix
    ("0.5,abc", "0.5,0.35", 2),
    (None, "0.2,0.1", 0),  # a file without the extra
], ids=["other", "other-scale-2", "prefix", "unparsed", "absent"])
def test_infer_checks_recorded_voxel_sizes(tmp_path, trained, capsys,
                                           monkeypatch, recorded, voxels, code):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
    models = tmp_path / "m"
    _with_copies(trained, models, TRAINED_SCALES, recorded)
    if code != 0:
        def no_run(*args, **kwargs):
            raise AssertionError("a scale ran before the checkpoints were checked")

        monkeypatch.setattr(cli, "run_pipeline", no_run)
    assert run(["infer", "--in", str(scene), "--models", str(models),
                "--voxel-sizes", voxels]) == code
    if code != 0:
        assert (f"trained with voxel sizes {recorded}, configured "
                f"{','.join(repr(float(v)) for v in voxels.split(','))}"
                in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["infer", "eval"])
@pytest.mark.parametrize("copies, voxels, keep_role, misplaced", [
    ({"scale_1.ckpt": "baseline.ckpt", "scale_2.ckpt": "scale_2.ckpt"},
     "0.5,0.35", True, "scale_1.ckpt"),
    ({**TRAINED_SCALES, "scale_3.ckpt": "scale_2.ckpt"}, "0.5,0.35,0.25", True,
     "scale_3.ckpt"),
    ({"scale_1.ckpt": "baseline.ckpt", "scale_2.ckpt": "scale_2.ckpt"},
     "0.5,0.35", False, None),  # files without the extras
], ids=["baseline-as-scale-1", "scale-2-as-scale-3", "absent"])
def test_misplaced_checkpoint_is_format_error(tmp_path, trained, capsys,
                                              monkeypatch, command, copies,
                                              voxels, keep_role, misplaced):
    models = tmp_path / "m"
    _with_copies(trained, models, copies, voxels, keep_role)
    if command == "infer":
        scene = tmp_path / "t.rspc"
        run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
        argv = ["infer", "--in", str(scene)]
    else:
        argv = ["eval", "--scenes", "1", "--points", "1500", "--classes", "4",
                "--seed", "1"]
    if misplaced:
        def no_run(*args, **kwargs):
            raise AssertionError("a scale ran before the checkpoints were checked")

        monkeypatch.setattr(cli, "run_pipeline", no_run)
        monkeypatch.setattr(cli, "evaluate", no_run)
    code = run(argv + ["--models", str(models), "--voxel-sizes", voxels])
    err = capsys.readouterr().err
    if misplaced:
        assert code == 2
        assert misplaced in err and "trained as" in err
    else:
        assert code == 0, err


def test_infer_checkpoint_dims_beyond_int64(tmp_path, trained, capsys):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    (bad / "scale_2.ckpt").write_bytes((trained / "scale_2.ckpt").read_bytes())
    # head_b of 4 classes claims dims (2^62, 4): 2^64 elements
    data = (trained / "scale_1.ckpt").read_bytes()
    at = data.index(b"head_b") + len(b"head_b")
    assert data[at:at + 9] == struct.pack("<BQ", 1, 4)
    (bad / "scale_1.ckpt").write_bytes(
        data[:at] + struct.pack("<B2Q", 2, 2 ** 62, 4) + data[at + 9:])
    assert run(["infer", "--in", str(scene), "--models", str(bad),
                "--voxel-sizes", "0.5,0.35"]) == 2
    err = capsys.readouterr().err
    assert "scale_1.ckpt" in err and "truncated" in err


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


def test_infer_empty_checkpoint_of_huge_config(tmp_path, capsys):
    # a tiny file that claims 100000-wide layers is checked against the
    # expected shapes alone; no model of that size is allocated
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    for scale in range(1, 5):
        save_checkpoint(bad / f"scale_{scale}.ckpt", {},
                        BackboneConfig(13, feature_dim=100000))
    assert run(["infer", "--in", str(scene), "--models", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "scale_1.ckpt" in err and "missing" in err
    assert "'embed_w1'" in err and "'head_w'" in err


def test_train_model_too_large_for_memory_exits_3(tmp_path, monkeypatch, capsys):
    # init_params stands in for a 100000-wide model that does not fit;
    # nothing of that size is allocated
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, "init_params", no_memory)
    models = tmp_path / "mm"
    assert run(["train", "--scale", "1", "--models", str(models),
                "--scenes", "1", "--points", "300", "--voxel-sizes", "0.5",
                "--feature-dim", "100000"]) == 3
    err = capsys.readouterr().err
    count = sum(math.prod(s) for s in param_shapes(
        BackboneConfig(num_classes=13, feature_dim=100000)).values())
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("configuration error: feature_dim=100000")
    assert f"{count:,}" in err
    assert not models.exists()


@pytest.mark.parametrize("k_fuse", ["abc", "0"])
def test_infer_checkpoint_bad_k_fuse(tmp_path, trained, capsys, k_fuse):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    for name in ("scale_1.ckpt", "scale_2.ckpt"):
        params, bcfg, frozen, extras = load_checkpoint(trained / name)
        save_checkpoint(bad / name, params, bcfg, frozen=frozen,
                        extras=dict(extras, k_fuse=k_fuse))
    assert run(["infer", "--in", str(scene), "--models", str(bad),
                "--voxel-sizes", "0.5,0.35"]) == 2
    assert str(bad) in capsys.readouterr().err


def test_infer_non_finite_checkpoint(tmp_path, trained, capsys):
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    (bad / "scale_2.ckpt").write_bytes((trained / "scale_2.ckpt").read_bytes())
    params, bcfg, frozen, extras = load_checkpoint(trained / "scale_1.ckpt")
    params["att0_ab1"][0] = np.nan
    save_checkpoint(bad / "scale_1.ckpt", params, bcfg, frozen=frozen,
                    extras=extras)
    assert run(["infer", "--in", str(scene), "--models", str(bad),
                "--voxel-sizes", "0.5,0.35"]) == 2
    err = capsys.readouterr().err
    assert "scale_1.ckpt" in err and "att0_ab1" in err


def test_infer_duplicate_tensor_checkpoint(tmp_path, trained, capsys):
    # a second att0_ab1 record of the right shape would load in place of
    # the first
    scene = tmp_path / "t.rspc"
    run(["generate", "--points", "400", "--classes", "4", "--out", str(scene)])
    bad = tmp_path / "m"
    bad.mkdir()
    params = load_checkpoint(trained / "scale_1.ckpt")[0]
    data = bytearray((trained / "scale_1.ckpt").read_bytes())
    (meta_len,) = struct.unpack_from("<I", data, 9)
    (count,) = struct.unpack_from("<I", data, 13 + meta_len)
    struct.pack_into("<I", data, 13 + meta_len, count + 1)
    extra = np.full(params["att0_ab1"].shape, 7.0)
    data += (struct.pack("<H", 8) + b"att0_ab1"
             + struct.pack("<BQ", 1, extra.size) + extra.tobytes())
    (bad / "scale_1.ckpt").write_bytes(bytes(data))
    assert run(["infer", "--in", str(scene), "--models", str(bad),
                "--voxel-sizes", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "scale_1.ckpt" in err and "duplicate tensor 'att0_ab1'" in err


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


def test_eval_reports_metrics(tmp_path, trained, capsys):
    scene = ["--scenes", "1", "--points", "1500", "--classes", "4",
             "--seed", "1", "--voxel-sizes", "0.5,0.35"]
    assert run(["eval", "--models", str(trained)] + scene) == 0
    out = capsys.readouterr().out
    rows = _of_kind(out, "metrics")
    assert [(r["scale"], r["method"]) for r in rows] == [(1, "fusion"),
                                                         (2, "fusion")]
    assert all(0.0 <= r["miou"] <= 1.0 for r in rows)
    assert "mIoU" in out
    # the no-fusion ablation is a model set of its own, trained with
    # k_fuse = 0
    plain = tmp_path / "plain"
    for scale in ("1", "2"):
        assert run(["train", "--scale", scale, "--models", str(plain),
                    "--epochs", "1", "--feature-dim", "8", "--k-fuse", "0"]
                   + scene) == 0
    params, _, _, extras = load_checkpoint(plain / "scale_2.ckpt")
    assert extras["k_fuse"] == "0"
    assert not [k for k in params if k.startswith("fuse_")]
    capsys.readouterr()
    assert run(["eval", "--models", str(plain)] + scene) == 0
    rows = _of_kind(capsys.readouterr().out, "metrics")
    assert [(r["scale"], r["method"]) for r in rows] == [(1, "no-fusion"),
                                                         (2, "no-fusion")]
    # a fused scale 2 over the plain scale 1 is a mixed set: refused
    (plain / "scale_2.ckpt").write_bytes((trained / "scale_2.ckpt").read_bytes())
    assert run(["eval", "--models", str(plain)] + scene) == 2
    assert "does not match" in capsys.readouterr().err


def test_eval_scale_without_points_is_input_error(tmp_path, trained, capsys,
                                                 monkeypatch):
    # at 1 mm scale 1 takes every point, so scale 2 has none to score
    def no_load(*args):
        raise AssertionError("models loaded before the scales were checked")

    monkeypatch.setattr(cli, "_load_models", no_load)
    assert run(["eval", "--models", str(trained), "--scenes", "1",
                "--points", "300", "--classes", "4",
                "--voxel-sizes", "0.001,0.0005"]) == 2
    err = capsys.readouterr().err
    assert "scale 2" in err and "0.0005" in err


def test_bench_reports_ratios(capsys):
    assert run(["bench", "--points", "1500", "--classes", "5", "--seed", "2"]
               + ["--voxel-sizes", "0.5,0.35"]) == 0
    out = capsys.readouterr().out
    [base] = _of_kind(out, "baseline")
    [scalable] = _of_kind(out, "scalable")
    [gain] = _of_kind(out, "gain")
    [ratio] = _of_kind(out, "ratio")
    assert ratio["predicted_ratio"] == gain["reduction_ratio"]
    assert ratio["measured_ratio"] == (scalable["distance_evals"]
                                       / base["distance_evals"])
    assert ratio["speedup"] == base["wall_ms"] / scalable["wall_ms"]
    assert base["distance_evals"] > base["knn_queries"] > 0
    assert 0 < base["plan_ms"] < base["wall_ms"]
    scales = _of_kind(out, "scale")
    for rec in scales:
        assert rec["distance_evals"] > rec["knn_queries"] > 0
        assert rec["plan_ms"] > 0
    assert scalable["plan_ms"] == sum(rec["plan_ms"] for rec in scales)
    assert scalable["knn_queries"] == sum(rec["knn_queries"] for rec in scales)
    assert 0 < scalable["plan_ms"] < scalable["total_ms"]
    # a wall runs from its run_pipeline call's start to its last labels
    assert scalable["wall_ms"] == max(rec["labels_ms"] for rec in scales)
    assert "Plan(ms)" in out


def test_internal_error_maps_to_4(monkeypatch):
    def boom(sizes):
        raise ValueError("identity violated")

    monkeypatch.setattr(cli, "estimate_gain", boom)
    assert run(["gain", "--sizes", "2,3"]) == 4


@pytest.mark.parametrize("error", [KeyError("att0_wq"), IndexError("scale 5")])
def test_lookup_error_maps_to_4(monkeypatch, capsys, error):
    def boom(sizes):
        raise error

    monkeypatch.setattr(cli, "estimate_gain", boom)
    assert run(["gain", "--sizes", "2,3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal invariant violation: ")
    assert type(error).__name__ in err and "Traceback" not in err


def test_output_file_writing(tmp_path):
    out = tmp_path / "gain.txt"
    assert run(["gain", "--sizes", "2,3", "--out", str(out)]) == 0
    [rec] = _records(out.read_text())
    assert rec["gain"] == 12


def test_format_table_alignment():
    lines = cli._table(["A", "Blong"], [[1, 2.0], [333, 4]])
    assert lines[0] == "A    Blong"
    assert lines[1] == "---  -----"
    assert lines[2] == "1    2"
    assert lines[3] == "333  4"


def test_format_table_empty_rows():
    lines = cli._table(["X"], [])
    assert lines == ["X", "-"]
