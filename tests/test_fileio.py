import json
import re

import numpy as np
import pytest

import writers
from scalepose import fileio
from scalepose.errors import InputError
from scalepose.evaluation import DetectionRecord, GroundTruthBox
from scalepose.geometry import CameraIntrinsics, RigidPose, random_rotation
from scalepose.scale import CategoryStats


class TestPoseSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        pose = RigidPose(random_rotation(rng), rng.normal(size=3))
        restored = fileio.pose_from_dict(fileio.pose_to_dict(pose))
        assert np.array_equal(restored.rotation, pose.rotation)
        assert np.array_equal(restored.translation, pose.translation)

    def test_row_major_layout(self):
        pose = RigidPose(np.eye(3), [1.0, 2.0, 3.0])
        d = fileio.pose_to_dict(pose)
        assert d["rotation"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert d["translation"] == [1.0, 2.0, 3.0]

    def test_bad_shapes_rejected(self):
        with pytest.raises(InputError):
            fileio.pose_from_dict({"rotation": [1, 0, 0], "translation": [0, 0, 0]})

    def test_non_rotation_rejected(self):
        with pytest.raises(InputError):
            fileio.pose_from_dict({"rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]})


class TestIntrinsicsAndCorrespondences:
    def test_intrinsics_round_trip(self, tmp_path):
        k = CameraIntrinsics(577.5, 570.25, 319.5, 239.5)
        path = tmp_path / "k.json"
        writers.save_intrinsics(k, str(path))
        assert fileio.load_intrinsics(str(path)) == k

    def test_missing_intrinsics_field(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"fx": 1.0, "fy": 1.0, "cx": 0.0}')
        with pytest.raises(InputError, match="cy"):
            fileio.load_intrinsics(str(path))

    def test_correspondences_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.uniform(0, 640, size=(7, 2))
        model = rng.normal(size=(7, 3))
        path = tmp_path / "corr.json"
        writers.save_correspondences(image, model, str(path))
        img2, mdl2 = fileio.load_correspondences(str(path))
        assert np.array_equal(img2, image)
        assert np.array_equal(mdl2, model)

    def test_correspondences_without_model(self, tmp_path):
        path = tmp_path / "corr.json"
        path.write_text(json.dumps([{"image": [1.0, 2.0]}, {"image": [3.0, 4.0]}]))
        image, model = fileio.load_correspondences(str(path))
        assert image.shape == (2, 2)
        assert model is None

    def test_missing_file(self):
        with pytest.raises(InputError, match="not found"):
            fileio.load_correspondences("/nonexistent/corr.json")


class TestMatrixFormats:
    def test_dense_round_trip(self, tmp_path):
        entries = np.array([[0.25, 0.75], [1.0, 0.0]])
        path = tmp_path / "c.json"
        fileio.dump_json({"rows": 2, "cols": 2, "data": entries.ravel().tolist()}, str(path))
        cm = fileio.load_correspondence_matrix(str(path), 2, 2)
        assert np.array_equal(cm.entries, entries)

    def test_sparse_triplets(self, tmp_path):
        path = tmp_path / "c.json"
        fileio.dump_json(
            {"rows": 2, "cols": 3, "triplets": [[0, 1, 1.0], [1, 0, 0.5], [1, 2, 0.5]]}, str(path)
        )
        cm = fileio.load_correspondence_matrix(str(path), 2, 3)
        assert np.array_equal(cm.entries, [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        fileio.dump_json({"rows": 2, "cols": 2, "data": [1.0, 0.0, 1.0]}, str(path))
        with pytest.raises(InputError, match="length"):
            fileio.load_correspondence_matrix(str(path), 2, 2)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"rows": 2, "cols": 3, "triplets": [[0, 1.9, 1.0], [1.0, 2, 1.0]]}, "whole number"),
            ({"rows": 2.7, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}, "whole number"),
            ({"rows": float("inf"), "cols": 2, "data": [1.0, 0.0]}, "infinity"),
        ],
        ids=["fractional-column", "fractional-rows", "infinite-rows"],
    )
    def test_non_whole_index_rejected(self, tmp_path, data, message):
        path = tmp_path / "c.json"
        fileio.dump_json(data, str(path))
        with pytest.raises(InputError, match=re.escape(str(path)) + ": .*" + message):
            fileio.load_correspondence_matrix(str(path), 2, 3)

    def test_non_stochastic_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        fileio.dump_json({"rows": 1, "cols": 2, "data": [0.2, 0.2]}, str(path))
        with pytest.raises(InputError):
            fileio.load_correspondence_matrix(str(path), 1, 2)


class TestStatsAndRecords:
    def test_stats_round_trip(self, tmp_path):
        stats = [CategoryStats("mug", 0.14, 0.01, 25), CategoryStats("can", 0.13, 0.02, 11)]
        path = tmp_path / "stats.json"
        fileio.save_stats(stats, str(path))
        loaded = fileio.load_stats(str(path))
        assert loaded["mug"] == stats[0]
        assert loaded["can"] == stats[1]
        # serialized sorted by category
        data = json.loads(path.read_text())
        assert [d["category"] for d in data] == ["can", "mug"]

    def test_detection_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        ext = (0.6, 0.6, 0.52915026221291805)
        detections = [
            DetectionRecord("mug", 0.9, RigidPose(random_rotation(rng), rng.normal(size=3)), 0.2, ext)
        ]
        gts = [GroundTruthBox("mug", RigidPose(random_rotation(rng), rng.normal(size=3)), 0.21, ext)]
        dpath = tmp_path / "d.jsonl"
        gpath = tmp_path / "g.jsonl"
        dpath.write_text(writers.detections_jsonl(detections))
        gpath.write_text(writers.ground_truths_jsonl(gts))
        d2 = fileio.load_detections(str(dpath))
        g2 = fileio.load_ground_truths(str(gpath))
        assert d2[0].category == "mug" and d2[0].confidence == 0.9
        assert np.array_equal(d2[0].pose.rotation, detections[0].pose.rotation)
        assert g2[0].scale == 0.21

    def test_jsonl_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"category": "mug", "confidence": 1.0}\n{broken\n')
        with pytest.raises(InputError, match=":2"):
            list(fileio.iter_jsonl(str(path)))

    def test_detection_schema_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"category": "mug", "confidence": 1.0, "pose": {"rotation": [1,0,0,0,1,0,0,0,1], "translation": [0,0,1]}, "scale": 0.2, "canonical_extents": [0.6, 0.6, 0.52915026221291805]}'
        path.write_text(good + "\n" + '{"category": "mug"}\n')
        with pytest.raises(InputError, match=":2"):
            fileio.load_detections(str(path))


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        fileio.atomic_write_text(str(path), "one\n")
        fileio.atomic_write_text(str(path), "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp files left behind

    def test_failed_write_names_the_path_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()  # the rename onto a directory fails after the temp file is written
        with pytest.raises(InputError, match="out: cannot write"):
            fileio.atomic_write_text(str(target), "text\n")
        assert list(tmp_path.iterdir()) == [target]
