"""End-to-end tests of the command-line pipeline (main() called directly)."""

from __future__ import annotations

import json
import os
import re
import struct

import numpy as np
import pytest

from fuseprune.cli import (
    EXIT_EQUIVALENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    read_tensor,
    write_tensor,
)
from fuseprune.fusion import FusionReport
from fuseprune.graph import execute, load, save, validate
from fuseprune.pruning import PruneConfig, PruneMask, dynamic_prune
from fuseprune.tensor import Tensor
from fuseprune.trainer import TrainConfig, make_epoch_hook, parse_dataset_spec


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.fpm"
    assert run("build-model", "resnet8-tiny", "--seed", 1, "-o", path) == EXIT_OK
    return path


class TestBuildModel:
    def test_creates_valid_model(self, tiny):
        g = load(tiny)
        assert g.nodes[g.output_id].kind == "output"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.fpm", tmp_path / "b.fpm"
        assert run("build-model", "resnet20", "--seed", 7, "-o", a) == EXIT_OK
        assert run("build-model", "resnet20", "--seed", 7, "-o", b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_family(self, tmp_path):
        assert run("build-model", "vgg16", "--seed", 1,
                   "-o", tmp_path / "x.fpm") == EXIT_VALIDATION

    def test_classes_override(self, tmp_path):
        path = tmp_path / "m.fpm"
        assert run("build-model", "resnet8-tiny", "--seed", 1, "--classes", 3,
                   "-o", path) == EXIT_OK
        g = load(path)
        fc = next(n for n in g.nodes.values() if n.kind == "fc")
        assert fc.params["weight"].shape[0] == 3


class TestTensorFiles:
    def test_roundtrip(self, tmp_path, rng):
        t = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
        path = tmp_path / "x.bin"
        write_tensor(path, t)
        assert path.stat().st_size == 20 + t.data.nbytes
        back = read_tensor(path)
        assert back.shape == t.shape
        assert back.data.tobytes() == t.data.tobytes()
        assert back.data.base is None  # the array the data was read into, not a copy's view

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, rng, full_disk):
        path = tmp_path / "x.bin"
        path.write_bytes(b"previous tensor")
        with pytest.raises(OSError, match="No space"):
            write_tensor(path, Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32)))
        assert full_disk == [20]  # the header was written, the data was not
        assert path.read_bytes() == b"previous tensor"
        assert os.listdir(tmp_path) == ["x.bin"]

    def test_f64_roundtrip(self, tmp_path, rng):
        t = Tensor(rng.standard_normal((1, 2, 2, 2)))
        path = tmp_path / "x.bin"
        write_tensor(path, t)
        assert read_tensor(path).dtype == np.float64

    def test_truncated_rejected(self, tmp_path, rng):
        path = tmp_path / "x.bin"
        write_tensor(path, Tensor(np.ones((1, 2, 3, 3), np.float32)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            read_tensor(path)

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"\x09\x00\x00\x00" + b"\x01\x00\x00\x00" * 4)
        with pytest.raises(ValueError):
            read_tensor(path)

    @pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1, 2**32 - 1, 2, 1)])
    def test_element_count_beyond_int64_is_short(self, tmp_path, dims):
        # an int64 product wraps these counts to 0 and to a negative length
        path = tmp_path / "x.bin"
        path.write_bytes(struct.pack("<5I", 1, *dims) + b"\x00" * 64)
        with pytest.raises(ValueError, match="file is short"):
            read_tensor(path)


class TestInfer:
    def test_matches_library_execution(self, tiny, tmp_path, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        xin, yout = tmp_path / "x.bin", tmp_path / "y.bin"
        write_tensor(xin, x)
        assert run("infer", tiny, "--input", xin, "--output", yout) == EXIT_OK
        want = execute(load(tiny), x)
        got = read_tensor(yout)
        assert got.data.tobytes() == want.data.tobytes()

    def test_wrong_shape_is_validation_error(self, tiny, tmp_path):
        xin = tmp_path / "x.bin"
        write_tensor(xin, Tensor(np.zeros((1, 3, 9, 9), np.float32)))
        assert run("infer", tiny, "--input", xin,
                   "--output", tmp_path / "y.bin") == EXIT_VALIDATION

    def test_missing_input_is_io_error(self, tiny, tmp_path):
        assert run("infer", tiny, "--input", tmp_path / "nope.bin",
                   "--output", tmp_path / "y.bin") == EXIT_IO


class TestFuseAndVerify:
    def test_fuse_then_verify_equivalent(self, tiny, tmp_path):
        fused = tmp_path / "fused.fpm"
        assert run("fuse", tiny, "--option", "3/3", "-o", fused,
                   "--report", tmp_path / "f.rep") == EXIT_OK
        assert run("verify", "--lhs", tiny, "--rhs", fused,
                   "--trials", 25, "--tol", "1e-4", "--seed", 3) == EXIT_OK

    def test_noop_option_is_byte_identical(self, tiny, tmp_path):
        out = tmp_path / "same.fpm"
        assert run("fuse", tiny, "--option", "0/3", "-o", out) == EXIT_OK
        assert out.read_bytes() == tiny.read_bytes()

    @pytest.mark.parametrize("tags", [[5], "stage1.block1"], ids=["int", "string"])
    def test_tags_not_a_list_of_strings_exit_2(self, tiny, tmp_path, capsys, tags):
        # an int tag crashed fuse in its block matching; a string's
        # characters loaded as tags, and fuse left that block out
        raw = tiny.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        next(n for n in manifest["nodes"] if n["id"] == "stage1.block1.conv1")["tags"] = tags
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        bad = tmp_path / "bad.fpm"
        bad.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])
        assert run("fuse", bad, "--option", "3/3", "-o", tmp_path / "x.fpm") == EXIT_VALIDATION
        assert "'tags' must be a list of strings" in capsys.readouterr().err

    def test_bad_option_string(self, tiny, tmp_path):
        assert run("fuse", tiny, "--option", "9/9",
                   "-o", tmp_path / "x.fpm") == EXIT_VALIDATION

    def test_verify_detects_difference(self, tiny, tmp_path):
        other = tmp_path / "other.fpm"
        assert run("build-model", "resnet8-tiny", "--seed", 2, "-o", other) == EXIT_OK
        assert run("verify", "--lhs", tiny, "--rhs", other,
                   "--trials", 5, "--tol", "1e-4") == EXIT_EQUIVALENCE

    def test_verify_shape_mismatch(self, tiny, tmp_path):
        other = tmp_path / "r20.fpm"
        assert run("build-model", "resnet20", "--seed", 2, "-o", other) == EXIT_OK
        assert run("verify", "--lhs", tiny, "--rhs", other) == EXIT_VALIDATION

    def test_verify_nonneg_flag(self, tiny, tmp_path):
        fused = tmp_path / "fused.fpm"
        assert run("fuse", tiny, "--option", "3/3", "-o", fused) == EXIT_OK
        assert run("verify", "--lhs", tiny, "--rhs", fused, "--trials", 5,
                   "--tol", "1e-4", "--nonneg") == EXIT_OK

    def test_fold_bn_preserves_function(self, tiny, tmp_path, capsys):
        folded = tmp_path / "folded.fpm"
        assert run("fold-bn", tiny, "-o", folded) == EXIT_OK
        assert run("verify", "--lhs", tiny, "--rhs", folded,
                   "--trials", 10, "--tol", "1e-4") == EXIT_OK
        assert not any(n.kind == "bn" for n in load(folded).nodes.values())


class TestPipeline:
    def test_fuse_prune_materialize_verify_bit_exact(self, tiny, tmp_path):
        fused = tmp_path / "fused.fpm"
        rep = tmp_path / "fusion.rep"
        masked = tmp_path / "masked.fpm"
        masks = tmp_path / "masks.rep"
        final = tmp_path / "final.fpm"
        assert run("fuse", tiny, "--option", "3/3", "-o", fused, "--report", rep) == EXIT_OK
        assert run("prune", fused, "--mode", "conservative", "--report", rep,
                   "-o", masked, "--masks", masks) == EXIT_OK
        assert run("materialize", masked, "--masks", masks, "--report", rep,
                   "-o", final) == EXIT_OK
        # masked and materialized models are the same function, bit for bit
        assert run("verify", "--lhs", masked, "--rhs", final,
                   "--trials", 10, "--tol", "0") == EXIT_OK

    def test_continued_pipeline_with_training(self, tiny, tmp_path, capsys):
        masked = tmp_path / "masked.fpm"
        untrained = tmp_path / "untrained.fpm"
        assert run("prune", tiny, "--mode", "continued", "--rate", "0.25",
                   "--epochs", 1, "--data", "synth:seed=42,n=64",
                   "--seed", 0, "-o", masked, "--masks", tmp_path / "m.rep") == EXIT_OK
        assert run("prune", tiny, "--mode", "continued", "--rate", "0.25",
                   "--epochs", 1, "-o", untrained) == EXIT_OK
        a = load(masked)
        b = load(untrained)
        fc_a = next(n for n in a.nodes.values() if n.kind == "fc")
        fc_b = next(n for n in b.nodes.values() if n.kind == "fc")
        assert fc_a.params["weight"].data.tobytes() != fc_b.params["weight"].data.tobytes()
        out = capsys.readouterr().out
        assert "zeroized" in out

    def test_materialize_reports_blocked_and_removed(self, tiny, tmp_path, capsys):
        masked = tmp_path / "masked.fpm"
        masks = tmp_path / "masks.rep"
        assert run("prune", tiny, "--mode", "continued", "--rate", "0.25",
                   "-o", masked, "--masks", masks) == EXIT_OK
        capsys.readouterr()
        final = tmp_path / "final.fpm"
        assert run("materialize", masked, "--masks", masks, "-o", final) == EXIT_OK
        out = capsys.readouterr().out
        assert "removed" in out and "not removable" in out

    def test_diverged_training_exits_2_naming_epoch_batch_and_node(self, tiny, tmp_path,
                                                                   capsys):
        out = tmp_path / "m.fpm"
        with np.errstate(all="ignore"):
            rc = run("prune", tiny, "--mode", "continued", "--rate", "0.25", "--epochs", 1,
                     "--data", "synth:seed=42,n=128", "--lr", "1e6", "-o", out)
        assert rc == EXIT_VALIDATION == 2
        err = capsys.readouterr().err
        assert re.match(r"error: epoch 0, batch \d+: node '[\w.]+': .* is not finite", err), err
        assert not out.exists()

    def test_data_takes_the_model_classes(self, tmp_path):
        # the dataset had 10 classes whatever the model's, so a 5-class
        # model exited 2 on labels outside its classes
        model, out = tmp_path / "five.fpm", tmp_path / "m.fpm"
        assert run("build-model", "resnet8-tiny", "--seed", 1, "--classes", 5,
                   "-o", model) == EXIT_OK
        assert run("prune", model, "--mode", "continued", "--rate", "0.25", "--epochs", 1,
                   "--data", "synth:seed=1,n=64", "-o", out) == EXIT_OK
        # the zoo's fc starts at zero, so a nonzero one has been trained
        fc = load(out).node("fc")
        assert fc.params["weight"].shape[0] == 5 and fc.params["weight"].data.any()

    def test_data_takes_the_model_input_shape(self, tmp_path):
        # resnet20 takes 3x32x32 images; the data was 3x8x8, which trained
        # and saved a model that evaluation then rejected
        model, out, api = tmp_path / "r20.fpm", tmp_path / "m.fpm", tmp_path / "api.fpm"
        assert run("build-model", "resnet20", "--seed", 1, "-o", model) == EXIT_OK
        assert run("prune", model, "--mode", "conservative", "--data", "synth:seed=1,n=8",
                   "-o", out) == EXIT_OK
        hook = make_epoch_hook(parse_dataset_spec("synth:seed=1,n=8", (3, 32, 32)), TrainConfig(
            lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=32, seed=0))
        masked, _ = dynamic_prune(load(model), None, PruneConfig(mode="conservative"), hook)
        save(masked, api)
        assert out.read_bytes() == api.read_bytes()

    def test_high_rate_needs_explicit_flag(self, tiny, tmp_path):
        args = ["prune", str(tiny), "--mode", "continued", "--rate", "0.5",
                "-o", str(tmp_path / "m.fpm")]
        assert main(args) == EXIT_VALIDATION
        assert main(args + ["--allow-high-rate"]) == EXIT_OK


class TestSideFiles:
    """Mask and fusion-report files of the wrong JSON shape exit 2."""

    @pytest.fixture
    def pruned(self, tiny, tmp_path):
        masked, masks = tmp_path / "masked.fpm", tmp_path / "masks.rep"
        assert run("prune", tiny, "--mode", "continued", "--rate", "0.25",
                   "-o", masked, "--masks", masks) == EXIT_OK
        return masked, masks

    def test_well_formed_files_round_trip_byte_for_byte(self, tiny, pruned, tmp_path):
        _, masks = pruned
        rep = tmp_path / "fusion.rep"
        assert run("fuse", tiny, "--option", "3/3", "-o", tmp_path / "f.fpm",
                   "--report", rep) == EXIT_OK
        for cls, path in ((PruneMask, masks), (FusionReport, rep)):
            again = tmp_path / "again"
            cls.load(path).save(again)
            assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("obj", [
        {"keep": {"conv1": 5}}, [1, 2], {"keep": []},
        {"keep": {"conv1": [1] * 7 + ["x"]}}, {"keep": {"conv1": [1] * 7 + [2]}},
    ], ids=["flags-not-a-list", "top-level-list", "keep-a-list", "flag-x", "flag-2"])
    def test_malformed_mask_exits_2(self, pruned, tmp_path, capsys, obj):
        # the first three crashed with a traceback (exit 1); "x" and 2 read as "keep"
        masked, masks = pruned
        masks.write_text(json.dumps(obj))
        out = tmp_path / "final.fpm"
        assert run("materialize", masked, "--masks", masks, "-o", out) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: malformed mask: ")
        assert not out.exists()

    @pytest.mark.parametrize("obj", [
        {"convs": 3}, [], {"convs": {"conv1": {"m": 8, "provenance": ["original"] * 8}}},
    ], ids=["convs-a-number", "top-level-list", "entry-without-n"])
    def test_malformed_report_exits_2(self, tiny, tmp_path, capsys, obj):
        rep, out = tmp_path / "fusion.rep", tmp_path / "m.fpm"
        rep.write_text(json.dumps(obj))
        assert run("prune", tiny, "--mode", "conservative", "--report", rep,
                   "-o", out) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: malformed fusion report: ")
        assert not out.exists()

    def test_report_naming_no_conv_exits_2(self, tiny, tmp_path, capsys):
        # a well-formed report whose one entry names no node of the model
        # used to exit 0 with "0 filters currently zeroized"
        rep, out = tmp_path / "ghost.rep", tmp_path / "m.fpm"
        assert run("fuse", tiny, "--option", "1/3", "-o", tmp_path / "f.fpm",
                   "--report", rep) == EXIT_OK
        obj = json.loads(rep.read_text())
        obj["convs"] = {"ghost": next(iter(obj["convs"].values()))}
        rep.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("prune", tiny, "--mode", "conservative", "--report", rep,
                   "-o", out) == EXIT_VALIDATION
        assert "['ghost']" in capsys.readouterr().err
        assert not out.exists()


class TestReportsAndSpeedup:
    def test_flops_output(self, tiny, capsys):
        assert run("flops", tiny) == EXIT_OK
        out = capsys.readouterr().out
        assert "# total_flops" in out
        assert any(line.startswith("conv ") for line in out.splitlines())

    @pytest.mark.parametrize("argv", [("flops",), ("profile", "--runs", 3)])
    def test_json_reports_every_node(self, tiny, capsys, argv):
        assert run(argv[0], tiny, *argv[1:], "--json") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        g = load(tiny)
        assert [n["id"] for n in doc["nodes"]] == list(validate(g))
        for n in doc["nodes"]:
            assert n["kind"] == g.nodes[n["id"]].kind
            assert n["category"] in ("COP", "SOP", "other") and n["flops"] >= 0
            # a profile times every node but the input, which runs no kernel
            assert ("seconds" in n) == (argv[0] == "profile")
            assert n.get("seconds", 0.0) >= 0.0
        assert doc["total_flops"] == sum(n["flops"] for n in doc["nodes"]) > 0
        assert doc.get("runs_counted") == (2 if argv[0] == "profile" else None)

    def test_speedup_direct(self, capsys):
        assert run("speedup", "--p", "0.5", "--a", "2") == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.3333"

    def test_speedup_requires_arguments(self):
        assert run("speedup", "--p", "0.5") == EXIT_VALIDATION
        assert run("speedup", "--profile", "/nonexistent.txt",
                   "--accelerated", "conv") == EXIT_IO

    def test_speedup_domain_error(self):
        assert run("speedup", "--p", "1.5", "--a", "2") == EXIT_VALIDATION

    def test_profile_feeds_speedup(self, tiny, tmp_path, capsys):
        assert run("profile", tiny, "--runs", 3, "--seed", 0) == EXIT_OK
        prof = tmp_path / "prof.txt"
        prof.write_text(capsys.readouterr().out)
        assert run("speedup", "--profile", prof, "--accelerated", "conv",
                   "--factor", "2") == EXIT_OK
        value = float(capsys.readouterr().out.strip())
        assert 1.0 <= value <= 2.0

    def test_speedup_unknown_label(self, tmp_path):
        prof = tmp_path / "prof.txt"
        prof.write_text("conv 1.0\n")
        assert run("speedup", "--profile", prof,
                   "--accelerated", "quantum") == EXIT_VALIDATION


class TestUsageErrors:
    def test_missing_model_file(self, tmp_path):
        assert run("flops", tmp_path / "ghost.fpm") == EXIT_IO

    def test_unknown_subcommand(self):
        assert run("explode") == EXIT_VALIDATION

    def test_missing_required_flag(self, tmp_path):
        assert run("build-model", "resnet20", "-o", tmp_path / "x.fpm") == EXIT_VALIDATION

    def test_verify_bad_trials(self, tiny):
        assert run("verify", "--lhs", tiny, "--rhs", tiny,
                   "--trials", 0) == EXIT_VALIDATION

    @pytest.mark.parametrize("tol", ["nan", "-1", "-1e-9", "-inf"])
    def test_verify_bad_tol(self, tiny, capsys, tol):
        # a model against itself meets any real tolerance: a NaN or negative
        # one is a usage error, not an equivalence failure
        assert run("verify", "--lhs", tiny, "--rhs", tiny, "--trials", 1,
                   f"--tol={tol}") == EXIT_VALIDATION
        assert "--tol must be a non-negative number" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--trials=0", "--trials=-3", "--tol=nan", "--tol=-1"])
    def test_verify_checks_options_before_reading_models(self, tmp_path, capsys, option):
        ghost = tmp_path / "ghost.fpm"
        assert run("verify", "--lhs", ghost, "--rhs", ghost, option) == EXIT_VALIDATION
        assert "ghost" not in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "inf"])
    def test_verify_zero_and_infinite_tol_are_valid(self, tiny, tol):
        assert run("verify", "--lhs", tiny, "--rhs", tiny, "--trials", 1,
                   f"--tol={tol}") == EXIT_OK
