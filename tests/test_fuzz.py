"""Fuzzing of the file readers: any input either loads or raises
MalformedFile, never another exception."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import im2pc.params as P
from im2pc.data import (SceneConfig, load_kitti_bin, read_ppm, read_scene,
                        synth_scene, write_scene)
from im2pc.errors import MalformedFile

FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of a valid scene's files and of a small checkpoint."""
    root = tmp_path_factory.mktemp("valid")
    write_scene(root / "scene", synth_scene(0, SceneConfig(n_points=8, height=4, width=6)))
    files = {name: (root / "scene" / name).read_bytes()
             for name in ("cloud.bin", "image.ppm", "meta.txt")}
    params = [P.Parameter("a.w", np.arange(6.0).reshape(2, 3)),
              P.Parameter("b", np.array(1.5))]
    P.save_checkpoint(root / "m.ckpt", params)
    files["ckpt"] = (root / "m.ckpt").read_bytes()
    return files


def mutated(base: bytes):
    """Truncations, byte overwrites and insertions of a valid file, plus
    arbitrary bytes."""
    edit = st.tuples(st.integers(0, len(base)), st.binary(max_size=8),
                     st.sampled_from(["cut", "overwrite", "insert"]))

    def apply(e):
        at, blob, how = e
        if how == "cut":
            return base[:at]
        if how == "overwrite":
            return base[:at] + blob + base[at + len(blob):]
        return base[:at] + blob + base[at:]

    return st.one_of(edit.map(apply), st.binary(max_size=200))


def loads_or_malformed(read, path, blob):
    with open(path, "wb") as f:
        f.write(blob)
    try:
        read(path)
    except MalformedFile:
        pass


@FUZZ
@given(data=st.data())
def test_read_ppm(valid, tmp_path, data):
    blob = data.draw(mutated(valid["image.ppm"]))
    loads_or_malformed(read_ppm, tmp_path / "x.ppm", blob)


@FUZZ
@given(data=st.data())
def test_load_kitti_bin(valid, tmp_path, data):
    blob = data.draw(mutated(valid["cloud.bin"]))
    loads_or_malformed(load_kitti_bin, tmp_path / "x.bin", blob)


@FUZZ
@given(data=st.data())
def test_load_checkpoint(valid, tmp_path, data):
    blob = data.draw(mutated(valid["ckpt"]))
    loads_or_malformed(P.load_checkpoint, tmp_path / "x.ckpt", blob)


NUMBER = st.one_of(st.floats().map(repr), st.integers().map(str),
                   st.text(alphabet="0123456789.-+eainf", max_size=6))
META_LINE = st.one_of(
    st.tuples(st.sampled_from(["q", "t", "intrinsics", "noise", "seed", "mode"]),
              st.lists(NUMBER, min_size=1, max_size=5).map(",".join))
    .map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.text(max_size=20))


@FUZZ
@given(data=st.data())
def test_read_scene_meta(valid, tmp_path, data):
    scene = tmp_path / "scene"
    os.makedirs(scene, exist_ok=True)
    for name in ("cloud.bin", "image.ppm"):
        (scene / name).write_bytes(valid[name])
    lines = valid["meta.txt"].decode().splitlines()
    # replace some lines of a valid meta.txt with fuzzed ones, or fuzz bytes
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(lines)), META_LINE),
                               max_size=4))
    for at, line in edits:
        lines[at:at + 1] = [line]
    meta = data.draw(st.one_of(st.just("\n".join(lines).encode("utf-8", "surrogatepass")),
                               mutated(valid["meta.txt"])))
    loads_or_malformed(lambda _: read_scene(scene), scene / "meta.txt", meta)
