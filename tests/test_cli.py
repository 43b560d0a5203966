"""End-to-end command-line behavior: generation determinism, the train /
eval / infer flow, the grouping benchmark, and exit codes."""

import math
import os
import shutil
import struct

import numpy as np
import pytest

from im2pc import training
from im2pc.cli import main
from im2pc.config import TrainConfig, apply_overrides, parse_kv_file
from im2pc.params import Parameter, load_checkpoint, save_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny dataset plus a checkpoint trained for one epoch."""
    root = tmp_path_factory.mktemp("flow")
    data = str(root / "data")
    ckpt = str(root / "model.ckpt")
    assert main(["gen", "--out", data, "--n", "3", "--seed", "5",
                 "--points", "96"]) == 0
    cfg = root / "train.cfg"
    cfg.write_text("epochs=1\nholdout_frac=0.34\n# comment line\n")
    assert main(["train", "--data", data, "--config", str(cfg),
                 "--out", ckpt]) == 0
    return data, ckpt, root


class TestGen:
    def test_deterministic_checksum(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            code, out, _ = run(capsys, "gen", "--out", str(tmp_path / sub),
                               "--n", "2", "--seed", "3", "--points", "64")
            assert code == 0
            outs.append(out.splitlines()[-1])
        assert outs[0] == outs[1]
        assert outs[0].startswith("manifest sha256: ")

    def test_seed_changes_checksum(self, tmp_path, capsys):
        _, out_a, _ = run(capsys, "gen", "--out", str(tmp_path / "a"),
                          "--n", "1", "--seed", "1", "--points", "64")
        _, out_b, _ = run(capsys, "gen", "--out", str(tmp_path / "b"),
                          "--n", "1", "--seed", "2", "--points", "64")
        assert out_a.splitlines()[-1] != out_b.splitlines()[-1]

    def test_mode_flag(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--out", str(tmp_path / "d"),
                         "--n", "1", "--mode", "decalib", "--points", "64")
        assert code == 0
        meta = (tmp_path / "d" / "scene_0000" / "meta.txt").read_text()
        assert "mode=decalib" in meta and "noise=" in meta


class TestTrainEval:
    def test_train_artifacts(self, trained):
        _, ckpt, _ = trained
        assert os.path.getsize(ckpt) > 0
        log = open(ckpt + ".log.csv").read().splitlines()
        assert log[0] == "epoch,split,loss,rre_deg,rte,lr"
        assert len(log) == 2

    def test_eval_reports(self, trained, capsys):
        data, ckpt, root = trained
        prefix = str(root / "report")
        code, out, _ = run(capsys, "eval", "--data", data, "--ckpt", ckpt,
                           "--out", prefix)
        assert code == 0
        metrics = open(prefix + "_metrics.csv").read().splitlines()
        assert metrics[0].split(",")[:2] == ["n_total", "n_gated"]
        assert metrics[1].split(",")[0] == "3"
        recall = open(prefix + "_recall.csv").read().splitlines()
        assert recall[0] == "metric,threshold,recall"
        assert len(recall) == 1 + 20 + 50
        hist = open(prefix + "_hist.csv").read().splitlines()
        assert hist[0] == "metric,bin_lo,bin_hi,fraction"

    def test_eval_is_bytewise_deterministic(self, trained, capsys):
        data, ckpt, root = trained
        for tag in ("r1", "r2"):
            assert main(["eval", "--data", data, "--ckpt", ckpt,
                         "--out", str(root / tag)]) == 0
        capsys.readouterr()
        for suffix in ("_metrics.csv", "_recall.csv", "_hist.csv"):
            a = open(str(root / "r1") + suffix, "rb").read()
            b = open(str(root / "r2") + suffix, "rb").read()
            assert a == b

    def test_eval_reads_each_scene_when_it_is_evaluated(self, trained, capsys,
                                                        monkeypatch):
        import im2pc.cli as cli
        data, ckpt, root = trained
        events, read, call = [], cli.read_scene, cli.RegistrationNet.__call__
        monkeypatch.setattr(cli, "read_scene", lambda d: events.append("read") or read(d))
        monkeypatch.setattr(cli.RegistrationNet, "__call__",
                            lambda *a, **k: events.append("forward") or call(*a, **k))
        assert main(["eval", "--data", data, "--ckpt", ckpt,
                     "--out", str(root / "streamed")]) == 0
        capsys.readouterr()
        assert events == ["read", "forward"] * 3

    def test_eval_scores_decalibration_only_when_every_scene_is_one(self, trained,
                                                                   tmp_path, capsys):
        _, ckpt, _ = trained
        data = tmp_path / "d"
        assert main(["gen", "--out", str(data), "--n", "2", "--mode", "decalib",
                     "--points", "64"]) == 0
        shutil.copytree(data, tmp_path / "mixed")
        assert main(["gen", "--out", str(tmp_path / "coarse"), "--n", "1",
                     "--points", "64"]) == 0
        shutil.copytree(tmp_path / "coarse" / "scene_0000", tmp_path / "mixed" / "scene_0002")
        heads = []
        for name in ("d", "mixed"):
            assert main(["eval", "--data", str(tmp_path / name), "--ckpt", ckpt,
                         "--out", str(tmp_path / name) + "_r"]) == 0
            heads.append(open(str(tmp_path / name) + "_r_metrics.csv").readline())
        capsys.readouterr()
        assert heads[0].rstrip().endswith(",msee,mrr")
        assert "msee" not in heads[1]

    def test_infer_output_format(self, trained, capsys):
        data, ckpt, root = trained
        scene = os.path.join(data, "scene_0000")
        intr = root / "intr.txt"
        meta = dict(line.split("=", 1) for line in
                    open(os.path.join(scene, "meta.txt")).read().splitlines())
        fx, fy, cx, cy = meta["intrinsics"].split(",")
        intr.write_text(f"fx={fx}\nfy={fy}\ncx={cx}\ncy={cy}\n")
        code, out, _ = run(capsys, "infer", "--ckpt", ckpt,
                           "--cloud", os.path.join(scene, "cloud.bin"),
                           "--image", os.path.join(scene, "image.ppm"),
                           "--intrinsics", str(intr))
        assert code == 0
        lines = out.splitlines()
        assert [l.split(":")[0] for l in lines] == [
            "coarse q", "coarse t", "fine q", "fine t"]
        q = np.array([float(x) for x in lines[2].split(":")[1].split()])
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9


    def test_train_with_sparse_holdout_evaluation(self, trained, tmp_path, capsys):
        # epochs without a holdout evaluation log the loss alone
        data, _, _ = trained
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=3\neval_every=2\nholdout_frac=0.34\n")
        code, out, _ = run(capsys, "train", "--data", data, "--config", str(cfg),
                           "--out", str(tmp_path / "m.ckpt"))
        assert code == 0
        epochs = [l for l in out.splitlines() if l.startswith("epoch")]
        assert [("rre=" in l) for l in epochs] == [True, False, True]


class TestBench:
    def test_bench_knn_matches(self, capsys):
        code, out, _ = run(capsys, "bench-knn", "--n", "300", "--trials", "2",
                           "--k", "8")
        assert code == 0
        assert "mismatched indices: 0" in out
        assert "backend:" in out


class TestExitCodes:
    def test_bad_arguments_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["gen", "--n", "notanint", "--out", "/tmp/x"])
        assert e.value.code == 2

    def test_missing_data_exit_3(self, trained, capsys):
        _, ckpt, _ = trained
        code, _, err = run(capsys, "eval", "--data", "/nonexistent/dir",
                           "--ckpt", ckpt, "--out", "/tmp/r")
        assert code == 3
        assert "data error" in err

    def test_bad_checkpoint_exit_3(self, trained, tmp_path, capsys):
        data, _, _ = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code, _, err = run(capsys, "eval", "--data", data,
                           "--ckpt", str(bad), "--out", str(tmp_path / "r"))
        assert code == 3


INTRINSICS = "fx=40.0\nfy=40.0\ncx=32.0\ncy=16.0\n"
BAD_INFER_INPUTS = {  # case: (intrinsics text, edit of the image bytes)
    "intrinsics_missing_fy": ("fx=40.0\ncx=32.0\ncy=16.0\n", None),
    "intrinsics_fx_not_a_number": (INTRINSICS.replace("fx=40.0", "fx=abc"), None),
    "intrinsics_non_positive_focal": (INTRINSICS.replace("fy=40.0", "fy=-1"), None),
    "intrinsics_nan_focal": (INTRINSICS.replace("fx=40.0", "fx=nan"), None),
    "ppm_header_comment": (INTRINSICS, lambda b: b.replace(b"P6\n", b"P6\n# by hand\n", 1)),
    "ppm_truncated": (INTRINSICS, lambda b: b[:100]),
}


@pytest.mark.parametrize("case", sorted(BAD_INFER_INPUTS))
def test_bad_infer_input_exit_3(trained, tmp_path, capsys, case):
    data, ckpt, _ = trained
    scene = os.path.join(data, "scene_0000")
    intrinsics, edit_image = BAD_INFER_INPUTS[case]
    intr = tmp_path / "intr.txt"
    intr.write_text(intrinsics)
    image = tmp_path / "image.ppm"
    raw = open(os.path.join(scene, "image.ppm"), "rb").read()
    image.write_bytes(edit_image(raw) if edit_image else raw)
    code, _, err = run(capsys, "infer", "--ckpt", ckpt,
                       "--cloud", os.path.join(scene, "cloud.bin"),
                       "--image", str(image), "--intrinsics", str(intr))
    assert code == 3
    assert "data error" in err


def run_on_scene_0(capsys, cmd, ckpt, data, tmp_path):
    """`infer` on the first scene, or `eval` on all of them writing to r_*."""
    scene = os.path.join(data, "scene_0000")
    intr = tmp_path / "intr.txt"
    intr.write_text(INTRINSICS)
    args = {"infer": ["--cloud", os.path.join(scene, "cloud.bin"), "--image",
                      os.path.join(scene, "image.ppm"), "--intrinsics", str(intr)],
            "eval": ["--data", data, "--out", str(tmp_path / "r")]}[cmd]
    return run(capsys, cmd, "--ckpt", str(ckpt), *args)


@pytest.mark.parametrize("cmd", ["infer", "eval"])
def test_non_finite_checkpoint_exit_3(trained, tmp_path, capsys, cmd):
    data, ckpt, _ = trained
    bad = tmp_path / "bad.ckpt"
    raw = open(ckpt, "rb").read()
    bad.write_bytes(raw[:-8] + struct.pack("<d", math.nan))   # the last record's last value
    code, out, err = run_on_scene_0(capsys, cmd, bad, data, tmp_path)
    assert code == 3
    assert "data error" in err and "non-finite" in err
    assert out == "" and not list(tmp_path.glob("r_*"))


@pytest.mark.parametrize("cmd", ["infer", "eval"])
def test_non_finite_pose_exit_4(trained, tmp_path, capsys, cmd):
    # finite weights whose activations overflow give a NaN pose, not a result
    data, ckpt, _ = trained
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(str(bad), [Parameter(name, value * 1e300 if name.startswith("pts.l1.")
                                         else value)
                               for name, value in load_checkpoint(ckpt).items()])
    with np.errstate(all="ignore"):
        code, out, err = run_on_scene_0(capsys, cmd, bad, data, tmp_path)
    assert code == 4
    assert "invariant violation" in err and "non-finite" in err
    assert out == "" and not list(tmp_path.glob("r_*"))


def test_train_on_one_point_scenes(tmp_path, capsys):
    # every feature row of a 1-point cloud is constant after the norms
    data = str(tmp_path / "data")
    assert main(["gen", "--out", data, "--n", "2", "--points", "1"]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\n")
    code, _, err = run(capsys, "train", "--data", data, "--config", str(cfg),
                       "--out", str(tmp_path / "m.ckpt"))
    assert code == 0, err
    assert (tmp_path / "m.ckpt").exists()


def as_decalib(*noise):
    """A meta.txt edit that makes the scene a decalibration one with these noise lines."""
    return lambda lines: [l for l in lines if not l.startswith(("mode=", "noise="))] + \
        ["mode=decalib", *noise]


BAD_META_EDITS = {  # case: edit of a generated scene's meta.txt lines
    "decalib_noise_missing": as_decalib(),
    "decalib_noise_nan": as_decalib("noise=nan"),
    "intrinsics_missing": lambda lines: [l for l in lines if not l.startswith("intrinsics=")],
    "q_missing": lambda lines: [l for l in lines if not l.startswith("q=")],
    "q_not_a_number": lambda lines: ["q=abc,0,0,0" if l.startswith("q=") else l
                                     for l in lines],
    "intrinsics_three_values": lambda lines: ["intrinsics=40.0,40.0,32.0"
                                              if l.startswith("intrinsics=") else l
                                              for l in lines],
}


@pytest.mark.parametrize("case", sorted(BAD_META_EDITS))
@pytest.mark.parametrize("cmd", ["eval", "train"])
def test_bad_scene_meta_exit_3(trained, tmp_path, capsys, case, cmd):
    data, ckpt, _ = trained
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    meta = bad / "scene_0001" / "meta.txt"
    meta.write_text("\n".join(BAD_META_EDITS[case](meta.read_text().splitlines())) + "\n")
    extra = ["--ckpt", ckpt] if cmd == "eval" else []
    code, _, err = run(capsys, cmd, "--data", str(bad), *extra,
                       "--out", str(tmp_path / "out"))
    assert code == 3
    assert "data error" in err and "meta.txt" in err


BAD_TRAIN_CONFIGS = {  # case: config text, or raw bytes
    "epochs_not_a_number": "epochs=abc\n",
    "unknown_key": "nosuchkey=1\n",
    "lr_decay_above_one": "lr_decay=2\n",
    "epochs_zero": "epochs=0\n",
    "batch_size_zero": "batch_size=0\n",
    "eval_every_zero": "eval_every=0\n",
    "holdout_frac_one": "holdout_frac=1\n",
    "holdout_frac_negative": "holdout_frac=-0.1\n",
    "lr_zero": "lr=0\n",
    "lr_negative": "lr=-5\n",
    "clip_norm_negative": "clip_norm=-1\n",
    "clip_norm_zero": "clip_norm=0\n",
    "dropout_one": "dropout=1\n",
    "dropout_negative": "dropout=-0.1\n",
    "seed_negative": "seed=-1\n",
    "not_utf8": b"epochs=1\n\xff\xfe=3\n",
    # keys TrainConfig no longer has: the loss's stage weights and scale inits
    # and Adam's betas are their callees' defaults, so a file naming one is
    # an unknown field, whatever its value
    "betas_one_value": "betas=0.9\n",
    "betas_first_one": "betas=1,0.999\n",
    "betas_second_negative": "betas=0.9,-0.5\n",
    "alphas_negative": "alpha3=-1\nalpha4=-1\n",
    "alpha3_negative": "alpha3=-0.5\n",
    "alpha4_nan": "alpha4=nan\n",
    "alpha4_inf": "alpha4=inf\n",
    "alphas_both_zero": "alpha3=0\nalpha4=0\n",
    "sq_init": "sq_init=-2.5\n",
    "st_init": "st_init=0\n",
}
REMOVED_KEYS = ("betas", "alpha3", "alpha4", "sq_init", "st_init")


@pytest.mark.parametrize("case", sorted(BAD_TRAIN_CONFIGS))
def test_bad_train_config_exit_3(trained, tmp_path, capsys, case):
    data, _, _ = trained
    cfg = tmp_path / "train.cfg"
    text = BAD_TRAIN_CONFIGS[case]
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run(capsys, "train", "--data", data, "--config", str(cfg),
                         "--out", str(ckpt))
    assert code == 3
    assert "data error" in err and "train.cfg" in err
    if isinstance(text, str) and text.partition("=")[0] in REMOVED_KEYS:
        assert "unknown TrainConfig field" in err
    assert not ckpt.exists() and "checkpoint" not in out


def test_non_finite_holdout_exit_4(trained, tmp_path, capsys, monkeypatch):
    data, _, _ = trained
    monkeypatch.setattr(training, "evaluate_scenes", lambda *a, **k: (math.nan, math.nan))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\n")
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run(capsys, "train", "--data", data, "--config", str(cfg),
                         "--out", str(ckpt))
    assert code == 4
    assert "invariant violation" in err
    assert not ckpt.exists() and "checkpoint" not in out


@pytest.mark.parametrize("argv", [
    ["gen", "--out", "OUT", "--n", "0"],
    ["gen", "--out", "OUT", "--n", "-1"],
    ["gen", "--out", "OUT", "--n", "2", "--points", "0"],
    ["bench-knn", "--n", "0"],
    ["bench-knn", "--k", "0"],
    ["bench-knn", "--trials", "0"],
])
def test_non_positive_counts_exit_2(tmp_path, capsys, argv):
    assert "positive count" in usage_error(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["gen", "--out", "OUT", "--n", "2", "--seed", "-1"],
    ["bench-knn", "--seed", "-3"],
])
def test_negative_seeds_exit_2(tmp_path, capsys, argv):
    assert "non-negative seed" in usage_error(tmp_path, capsys, argv)


def usage_error(tmp_path, capsys, argv):
    """stderr of an argv that must exit 2 before `gen` writes anything."""
    out_dir = tmp_path / "gen"
    with pytest.raises(SystemExit) as e:
        main([str(out_dir) if a == "OUT" else a for a in argv])
    assert e.value.code == 2
    assert not out_dir.exists()
    return capsys.readouterr().err


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("lr = 0.01  # tuned\nepochs=2\ndropout=0.25\n")
        kv = parse_kv_file(cfg_file)
        cfg = apply_overrides(TrainConfig(), kv)
        assert cfg == TrainConfig(lr=0.01, epochs=2, dropout=0.25)
        assert type(cfg.epochs) is int and type(cfg.lr) is float

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            apply_overrides(TrainConfig(), {"nope": "1"})
