"""Command-line interface.

Subcommands: generate, partition, train, infer, bench, eval, gain.
Global flags (per subcommand): --config <key=value file>, --seed, --out.
Flag values override config-file values, which override defaults.

Exit codes: 0 success, 2 bad input or file, 3 configuration error,
4 internal invariant violation.
"""

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .backbone import BackboneConfig, ScaleModel, init_params
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .cloud import PartitionConfig, PartitionSet, build_partitions, gather
from .config import ConfigError
from .io import CloudFormatError, read_cloud, write_cloud
from .pipeline import (
    PipelineConfig,
    estimate_gain,
    run_baseline,
    run_pipeline,
)
from .report import format_records
from .scene import SceneSpec, generate_scene
from .training import (
    TrainConfig,
    evaluate,
    metrics_record_lines,
    metrics_table_lines,
    train_scale,
)

_SCENE_KEYS = ("points", "classes", "objects", "extents", "noise", "walls")
_MODEL_KEYS = ("feature_dim", "attention_neighbors", "encoder_stages",
               "downsample_factor", "interp_neighbors", "k_fuse")
_TRAIN_KEYS = ("epochs", "batch_size", "learning_rate", "momentum", "scenes")
_KNOWN_KEYS = _SCENE_KEYS + _MODEL_KEYS + _TRAIN_KEYS + ("voxel_sizes", "seed")

_DEFAULT_VOXELS = (0.16, 0.12, 0.08, 0.06)


def _merge_config(args):
    """defaults < config file < explicit flags, all as strings.

    A flag overrides the config key of the same name; a subcommand
    without that flag leaves the key to the file.
    """
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(cfgmod.parse_config_file(args.config))
        cfgmod.check_known(cfg, _KNOWN_KEYS, source=args.config)
    for key in _KNOWN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    return cfg


def _scene_spec(cfg, seed):
    return SceneSpec(
        extents=cfgmod.as_float_list(cfg, "extents", (8.0, 8.0, 3.0)),
        num_objects=cfgmod.as_int(cfg, "objects", 8),
        num_classes=cfgmod.as_int(cfg, "classes", 13),
        num_points=cfgmod.as_int(cfg, "points", 100_000),
        noise_sigma=cfgmod.as_float(cfg, "noise", 0.05),
        rng_seed=seed,
        include_walls=cfgmod.as_bool(cfg, "walls", True),
    )


def _backbone_config(cfg, num_classes):
    return BackboneConfig(
        num_classes=num_classes,
        feature_dim=cfgmod.as_int(cfg, "feature_dim", 32),
        attention_neighbors=cfgmod.as_int(cfg, "attention_neighbors", 8),
        encoder_stages=cfgmod.as_int(cfg, "encoder_stages", 2),
        downsample_factor=cfgmod.as_float(cfg, "downsample_factor", 2.0),
        interp_neighbors=cfgmod.as_int(cfg, "interp_neighbors", 3),
    )


def _pipeline_config(cfg, num_classes):
    return PipelineConfig(backbone=_backbone_config(cfg, num_classes),
                          k_fuse=cfgmod.as_int(cfg, "k_fuse", 8))


def _voxel_sizes(cfg):
    sizes = cfgmod.as_float_list(cfg, "voxel_sizes", _DEFAULT_VOXELS)
    if not sizes or any(v <= 0 for v in sizes) or \
            any(b >= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(
            f"voxel_sizes must be positive and strictly decreasing, "
            f"got {','.join(str(v) for v in sizes)}")
    return sizes


def _seed(cfg):
    return cfgmod.as_int(cfg, "seed", 0)


def _load_scenes(args, cfg, need_labels=True):
    """Labeled (cloud, parts) pairs from --in files or synthetic scenes."""
    seed = _seed(cfg)
    clouds = []
    if getattr(args, "infile", None):
        for path in args.infile.split(","):
            clouds.append(read_cloud(path.strip()))
    else:
        count = cfgmod.as_int(cfg, "scenes", 2)
        for i in range(count):
            clouds.append(generate_scene(_scene_spec(cfg, seed + i)))
    if need_labels and any(c.labels is None for c in clouds):
        raise CloudFormatError("input cloud has no labels")
    classes = {c.num_classes for c in clouds}
    if len(classes) != 1:
        raise CloudFormatError(f"inputs disagree on class count: {sorted(classes)}")
    pcfg = PartitionConfig(voxel_sizes=_voxel_sizes(cfg), rng_seed=seed)
    return [(c, build_partitions(c, pcfg)) for c in clouds], classes.pop()


def _model_path(models_dir, scale_id):
    name = "baseline.ckpt" if scale_id == 0 else f"scale_{scale_id}.ckpt"
    return os.path.join(models_dir, name)


def _load_checked(models_dir, scale_id):
    """load_checkpoint, and require the tensor names and shapes of a fresh
    model of the stored configuration; only scales >= 2 fuse (scale id 0
    is the whole-cloud baseline)."""
    path = _model_path(models_dir, scale_id)
    params, bcfg, frozen, extras = load_checkpoint(path)
    want = {k: v.shape for k, v in
            init_params(bcfg, with_fusion=scale_id > 1).items()}
    got = {k: v.shape for k, v in params.items()}
    if got != want:
        missing = sorted(want.keys() - got.keys())
        unexpected = sorted(got.keys() - want.keys())
        reshaped = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
        raise CheckpointFormatError(
            f"{path}: tensors do not match the stored configuration "
            f"(missing {missing}, unexpected {unexpected}, wrong shape {reshaped})")
    return params, bcfg, frozen, extras


def _load_models(models_dir, num_scales):
    models, cfgs = [], []
    for i in range(1, num_scales + 1):
        params, bcfg, frozen, extras = _load_checked(models_dir, i)
        models.append(ScaleModel(params, frozen))
        cfgs.append((bcfg, extras.get("k_fuse")))
    if len({c for c in cfgs}) != 1:
        raise CheckpointFormatError(
            f"{models_dir}: checkpoints disagree on the model configuration")
    bcfg, k_fuse = cfgs[0]
    return models, PipelineConfig(backbone=bcfg, k_fuse=int(k_fuse or 8))


def _fresh_models(pcfg: PipelineConfig, num_scales, seed):
    return [ScaleModel(init_params(pcfg.backbone, seed=seed + i,
                                   with_fusion=(i > 0)))
            for i in range(num_scales)]


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args):
    cfg = _merge_config(args)
    if args.no_walls:
        cfg["walls"] = "0"
    if not args.out:
        raise ConfigError("generate requires --out")
    cloud = generate_scene(_scene_spec(cfg, _seed(cfg)))
    write_cloud(cloud, args.out, fmt=args.format)
    print(f"wrote {cloud.n} points, {cloud.num_classes} classes -> {args.out}")
    return 0


def cmd_partition(args):
    cfg = _merge_config(args)
    cloud = read_cloud(args.infile)
    parts = build_partitions(cloud, PartitionConfig(
        voxel_sizes=_voxel_sizes(cfg), rng_seed=_seed(cfg)))
    records = [{"scale": i + 1, "voxel_size": v, "size": n}
               for i, (v, n) in enumerate(zip(parts.voxel_sizes, parts.sizes))]
    lines = format_records(records)
    selected = sum(parts.sizes)
    lines.append(f"total={cloud.n} selected={selected} "
                 f"unselected={cloud.n - selected}")
    if all(n > 0 for n in parts.sizes):
        est = estimate_gain(parts.sizes)
        lines.append(f"whole_cost={est.whole_cost} "
                     f"scalable_cost={est.scalable_cost} gain={est.gain} "
                     f"reduction_ratio={est.reduction_ratio:.6f}")
    _emit(lines, args.out)
    return 0


def cmd_train(args):
    cfg = _merge_config(args)
    if not args.baseline and args.scale is None:
        raise ConfigError("train requires --scale N or --baseline")
    scenes, num_classes = _load_scenes(args, cfg)
    pcfg = _pipeline_config(cfg, num_classes)
    seed = _seed(cfg)
    tcfg = TrainConfig(
        epochs=cfgmod.as_int(cfg, "epochs", 34),
        batch_size=cfgmod.as_int(cfg, "batch_size", 4),
        learning_rate=cfgmod.as_float(cfg, "learning_rate", 0.02),
        momentum=cfgmod.as_float(cfg, "momentum", 0.9),
        rng_seed=seed,
    )
    os.makedirs(args.models, exist_ok=True)
    extras = {"k_fuse": pcfg.k_fuse,
              "voxel_sizes": ",".join(repr(v) for v in _voxel_sizes(cfg))}

    if args.baseline:
        # whole-cloud reference: one "scale" holding the union of all
        # partitions, pooled from the finest voxel size
        union_scenes = []
        for cloud, parts in scenes:
            union = np.sort(np.concatenate(parts.partitions))
            union_scenes.append((cloud, PartitionSet(
                (union,), cloud.n, (parts.voxel_sizes[-1],))))
        model = ScaleModel(init_params(pcfg.backbone, seed=seed + 999))
        losses = train_scale([model], 1, union_scenes, pcfg, tcfg)
        path = _model_path(args.models, 0)
        save_checkpoint(path, model.params, pcfg.backbone, frozen=True,
                        extras=dict(extras, role="baseline"))
    else:
        scale_id = args.scale
        num_scales = len(_voxel_sizes(cfg))
        if not 1 <= scale_id <= num_scales:
            raise ConfigError(f"--scale must lie in 1..{num_scales}")
        models = []
        for j in range(1, scale_id):
            params, bcfg, frozen, _ = _load_checked(args.models, j)
            if bcfg != pcfg.backbone:
                raise CheckpointFormatError(
                    f"scale {j} checkpoint configuration does not match")
            if not frozen:
                raise CheckpointFormatError(
                    f"scale {j} checkpoint is not frozen; train scales in order")
            models.append(ScaleModel(params, frozen=True))
        trainee = ScaleModel(init_params(pcfg.backbone, seed=seed + scale_id,
                                         with_fusion=(scale_id > 1)))
        models.append(trainee)
        losses = train_scale(models, scale_id, scenes, pcfg, tcfg)
        path = _model_path(args.models, scale_id)
        save_checkpoint(path, trainee.params, pcfg.backbone, frozen=True,
                        extras=dict(extras, role="scale", scale_id=scale_id))

    for e, loss in enumerate(losses, start=1):
        print(f"epoch={e} loss={loss:.6f}")
    print(f"saved {path}")
    return 0


def cmd_infer(args):
    cfg = _merge_config(args)
    cloud = read_cloud(args.infile)
    sizes = _voxel_sizes(cfg)
    models, pcfg = _load_models(args.models, len(sizes))
    parts = build_partitions(cloud, PartitionConfig(
        voxel_sizes=sizes, rng_seed=_seed(cfg)))
    arrivals = None
    if args.arrival_times:
        try:
            arrivals = [float(t) for t in args.arrival_times.split(",")]
        except ValueError:
            raise ConfigError(
                f"--arrival-times: expected numbers, got {args.arrival_times!r}"
            ) from None
    preds, report = run_pipeline(models, cloud, parts, pcfg,
                                 arrival_times=arrivals,
                                 threaded=args.threaded,
                                 fusion_enabled=not args.no_fusion)
    for line in report.record_lines():
        print(line)
    for line in report.table_lines():
        print(line)
    if args.out:
        idx = np.concatenate(parts.partitions)
        labels = np.concatenate([p.labels for p in preds])
        out_cloud = gather(cloud, idx)
        out_cloud = type(out_cloud)(positions=out_cloud.positions,
                                    colors=out_cloud.colors, labels=labels,
                                    num_classes=pcfg.backbone.num_classes)
        write_cloud(out_cloud, args.out)
        print(f"wrote {out_cloud.n} predicted points -> {args.out}")
    return 0


def cmd_bench(args):
    cfg = _merge_config(args)
    seed = _seed(cfg)
    if args.infile:
        cloud = read_cloud(args.infile)
    else:
        cloud = generate_scene(_scene_spec(cfg, seed))
    sizes = _voxel_sizes(cfg)
    if args.models:
        models, pcfg = _load_models(args.models, len(sizes))
        baseline_params, bcfg, _, _ = _load_checked(args.models, 0)
        baseline = ScaleModel(baseline_params, frozen=True)
        if bcfg != pcfg.backbone:
            raise CheckpointFormatError("baseline checkpoint configuration differs")
    else:
        num_classes = cloud.num_classes if cloud.num_classes >= 2 else \
            cfgmod.as_int(cfg, "classes", 13)
        pcfg = _pipeline_config(cfg, num_classes)
        models = _fresh_models(pcfg, len(sizes), seed)
        baseline = ScaleModel(init_params(pcfg.backbone, seed=seed + 999))
    parts = build_partitions(cloud, PartitionConfig(voxel_sizes=sizes,
                                                    rng_seed=seed))
    _, report = run_pipeline(models, cloud, parts, pcfg,
                             threaded=args.threaded)
    base = run_baseline(baseline, cloud, parts, parts.num_scales, pcfg)
    lines = report.record_lines()
    lines += report.table_lines()
    lines.append(f"baseline n_points={base.n_points} wall_ms={base.wall_ms:.3f} "
                 f"distance_evals={base.distance_evals}")
    scalable_evals = report.total_distance_evals
    lines.append(f"scalable total_ms={report.total_ms:.3f} "
                 f"distance_evals={scalable_evals}")
    if all(n > 0 for n in parts.sizes):
        est = estimate_gain(parts.sizes)
        measured = scalable_evals / base.distance_evals
        lines.append(f"whole_cost={est.whole_cost} "
                     f"scalable_cost={est.scalable_cost} gain={est.gain}")
        lines.append(f"predicted_ratio={est.reduction_ratio:.6f} "
                     f"measured_ratio={measured:.6f}")
    _emit(lines, args.out)
    return 0


def cmd_eval(args):
    cfg = _merge_config(args)
    scenes, num_classes = _load_scenes(args, cfg)
    models, pcfg = _load_models(args.models, len(_voxel_sizes(cfg)))
    if pcfg.backbone.num_classes != num_classes:
        raise CloudFormatError(
            f"models expect {pcfg.backbone.num_classes} classes, "
            f"data has {num_classes}")
    rows, _ = evaluate(models, scenes, pcfg,
                       fusion_enabled=not args.no_fusion)
    lines = metrics_record_lines(rows) + metrics_table_lines(rows)
    _emit(lines, args.out)
    return 0


def cmd_gain(args):
    cfg = _merge_config(args)
    if args.sizes:
        try:
            sizes = [int(t) for t in args.sizes.split(",")]
        except ValueError:
            raise ConfigError(
                f"--sizes: expected integers, got {args.sizes!r}") from None
        if not sizes or any(s <= 0 for s in sizes):
            raise ConfigError("--sizes: partition sizes must be positive")
    elif args.infile:
        cloud = read_cloud(args.infile)
        parts = build_partitions(cloud, PartitionConfig(
            voxel_sizes=_voxel_sizes(cfg), rng_seed=_seed(cfg)))
        sizes = [n for n in parts.sizes]
    else:
        raise ConfigError("gain requires --sizes or --in")
    est = estimate_gain(sizes)
    _emit([f"sizes={','.join(str(s) for s in est.sizes)} "
           f"whole_cost={est.whole_cost} scalable_cost={est.scalable_cost} "
           f"gain={est.gain} reduction_ratio={est.reduction_ratio:.6f}"],
          args.out)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--seed", type=int, help="RNG seed (default 0)")
    common.add_argument("--out", help="output file (default: stdout)")

    p = argparse.ArgumentParser(
        prog="scaleseg",
        description="Resolution-scalable 3D point-cloud semantic segmentation")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[common],
                       help="write a synthetic labeled scene")
    g.add_argument("--points", help="points per scene")
    g.add_argument("--classes", help="number of classes")
    g.add_argument("--objects", help="number of objects (floor/walls/boxes)")
    g.add_argument("--extents", help="room extents, e.g. 8,8,3")
    g.add_argument("--noise", help="color noise sigma")
    g.add_argument("--no-walls", action="store_true")
    g.add_argument("--format", choices=("binary", "ascii"))
    g.set_defaults(fn=cmd_generate)

    q = sub.add_parser("partition", parents=[common],
                       help="partition a cloud into resolution scales")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--voxel-sizes", dest="voxel_sizes")
    q.set_defaults(fn=cmd_partition)

    t = sub.add_parser("train", parents=[common],
                       help="train one scale (lower scales stay frozen)")
    t.add_argument("--in", dest="infile",
                   help="comma-separated labeled cloud files")
    t.add_argument("--scenes", help="synthetic scene count when --in absent")
    t.add_argument("--points", help="points per synthetic scene")
    t.add_argument("--classes", help="classes per synthetic scene")
    t.add_argument("--scale", type=int, help="1-based scale to train")
    t.add_argument("--baseline", action="store_true",
                   help="train the whole-cloud baseline model instead")
    t.add_argument("--models", required=True, help="checkpoint directory")
    t.add_argument("--voxel-sizes", dest="voxel_sizes")
    t.add_argument("--epochs")
    t.add_argument("--batch-size", dest="batch_size")
    t.add_argument("--learning-rate", dest="learning_rate")
    t.add_argument("--momentum")
    t.add_argument("--feature-dim", dest="feature_dim")
    t.add_argument("--k-fuse", dest="k_fuse")
    t.set_defaults(fn=cmd_train)

    i = sub.add_parser("infer", parents=[common],
                       help="multi-scale inference with latency report")
    i.add_argument("--in", dest="infile", required=True)
    i.add_argument("--models", required=True)
    i.add_argument("--voxel-sizes", dest="voxel_sizes")
    i.add_argument("--arrival-times",
                   help="per-scale arrival times in ms, e.g. 0,15,50")
    i.add_argument("--threaded", action="store_true")
    i.add_argument("--no-fusion", action="store_true")
    i.set_defaults(fn=cmd_infer)

    b = sub.add_parser("bench", parents=[common],
                       help="scalable vs whole-cloud baseline comparison")
    b.add_argument("--in", dest="infile")
    b.add_argument("--models")
    b.add_argument("--voxel-sizes", dest="voxel_sizes")
    b.add_argument("--points")
    b.add_argument("--classes")
    b.add_argument("--threaded", action="store_true")
    b.set_defaults(fn=cmd_bench)

    e = sub.add_parser("eval", parents=[common],
                       help="per-scale metrics, optionally without fusion")
    e.add_argument("--in", dest="infile")
    e.add_argument("--scenes")
    e.add_argument("--points")
    e.add_argument("--classes")
    e.add_argument("--models", required=True)
    e.add_argument("--voxel-sizes", dest="voxel_sizes")
    e.add_argument("--no-fusion", action="store_true")
    e.set_defaults(fn=cmd_eval)

    n = sub.add_parser("gain", parents=[common],
                       help="exact complexity accounting for partition sizes")
    n.add_argument("--sizes", help="comma-separated partition sizes")
    n.add_argument("--in", dest="infile")
    n.add_argument("--voxel-sizes", dest="voxel_sizes")
    n.set_defaults(fn=cmd_gain)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (CloudFormatError, CheckpointFormatError, FileNotFoundError,
            IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
