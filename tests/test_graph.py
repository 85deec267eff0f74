"""Graph IR tests: validation, execution semantics, container roundtrips."""

import dataclasses
import hashlib
import json
import os
import sys
import threading
import types

import numpy as np
import pytest

from fuseprune import graph
from fuseprune.analysis import count_flops
from fuseprune.cli import EXIT_VALIDATION, main
from fuseprune.fusion import find_residual_blocks, fuse
from fuseprune.graph import (
    CycleDetected,
    DanglingInput,
    Graph,
    GraphError,
    ModelFormatError,
    Node,
    ShapeMismatch,
    UnreachableNode,
    execute,
    load,
    save,
    validate,
)
from fuseprune.pruning import PruneConfig, PruneMask, materialize, soft_prune_epoch
from fuseprune.tensor import Tensor, TensorError
from fuseprune.trainer import forward_backward
from fuseprune.zoo import ZooSpec, build

from conftest import bn_node, conv_node, fc_node, make_graph, plain_node


def tiny_chain(rng, dtype=np.float32):
    """input -> conv(3->4) -> bn -> relu -> gavgpool -> fc(4->2) -> output."""
    w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    fw = rng.standard_normal((2, 4, 1, 1)).astype(dtype)
    nodes = [
        plain_node("in", "input", []),
        conv_node("c1", ["in"], 4, 3, weight=w, dtype=dtype),
        bn_node("b1", ["c1"], 4, gamma=rng.uniform(0.5, 1.5, 4), beta=rng.uniform(-0.2, 0.2, 4),
                mean=rng.uniform(-0.2, 0.2, 4), var=rng.uniform(0.5, 1.5, 4), dtype=dtype),
        plain_node("r1", "relu", ["b1"]),
        plain_node("gap", "gavgpool", ["r1"]),
        fc_node("fc", ["gap"], 2, 4, weight=fw, bias=np.zeros(2, dtype), dtype=dtype),
        plain_node("out", "output", ["fc"]),
    ]
    return make_graph(nodes, "in", "out", (1, 3, 8, 8))


def big_conv(rng, dtype=np.float32):
    """input -> one 512x512x3x3 conv with a bias -> output: a blob above graph._SLICE."""
    nodes = [
        plain_node("in", "input", []),
        conv_node("c", ["in"], 512, 512, weight=rng.standard_normal((512, 512, 3, 3)).astype(dtype),
                  bias=rng.standard_normal(512), dtype=dtype),
        plain_node("out", "output", ["c"]),
    ]
    return make_graph(nodes, "in", "out", (1, 512, 3, 3))


def pool_graph(window=(2, 2), stride=(2, 2), pad=(0, 0)):
    """input (1, 2, 4, 4) -> maxpool -> output."""
    nodes = [
        plain_node("in", "input", []),
        plain_node("pool", "maxpool", ["in"], window=window, stride=stride, pad=pad),
        plain_node("out", "output", ["pool"]),
    ]
    return make_graph(nodes, "in", "out", (1, 2, 4, 4))


class TestValidate:
    def test_shapes_inferred(self, rng):
        g = tiny_chain(rng)
        shapes = validate(g)
        assert shapes["c1"] == (1, 4, 8, 8)
        assert shapes["gap"] == (1, 4, 1, 1)
        assert shapes["fc"] == (1, 2, 1, 1)

    def test_conv_shape_example(self):
        # 1x3x32x32 through conv 16x3x3x3 stride 1 pad 1 -> 1x16x32x32
        nodes = [
            plain_node("in", "input", []),
            conv_node("c", ["in"], 16, 3),
            plain_node("out", "output", ["c"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, 32, 32))
        assert validate(g)["c"] == (1, 16, 32, 32)

    def test_conv_weight_and_bias_checked_against_spec(self):
        def graph_of(conv):
            return make_graph([plain_node("in", "input", []), conv,
                               plain_node("out", "output", ["c"])], "in", "out", (1, 2, 4, 4))

        assert validate(graph_of(conv_node("c", ["in"], 3, 2)))["c"] == (1, 3, 4, 4)
        wrong_weight = conv_node("c", ["in"], 3, 2)
        wrong_weight.params["weight"] = Tensor(np.zeros((3, 2, 1, 1), np.float32))
        with pytest.raises(ShapeMismatch, match="node 'c': weight shape"):
            validate(graph_of(wrong_weight))
        no_bias = conv_node("c", ["in"], 3, 2, bias=np.zeros(3))
        del no_bias.params["bias"]
        with pytest.raises(ShapeMismatch, match="node 'c': bias must be"):
            validate(graph_of(no_bias))

    def test_conv_bias_the_spec_lacks_rejected(self):
        conv = conv_node("c", ["in"], 3, 2)
        conv.params["bias"] = Tensor(np.zeros((1, 3, 1, 1), np.float32))
        g = make_graph([plain_node("in", "input", []), conv, plain_node("out", "output", ["c"])],
                       "in", "out", (1, 2, 4, 4))
        with pytest.raises(ShapeMismatch, match="node 'c': bias must be absent, as its spec"):
            validate(g)

    def test_fc_bias_of_the_wrong_length_rejected(self, rng):
        g = tiny_chain(rng)
        g.nodes["fc"].params["bias"] = Tensor(np.zeros((1, 3, 1, 1), np.float32))
        with pytest.raises(ShapeMismatch, match=r"node 'fc': bias must be \(1, 2, 1, 1\)"):
            validate(g)

    def test_add_mismatch_names_node(self, rng):
        nodes = [
            plain_node("in", "input", []),
            conv_node("c1", ["in"], 4, 3),
            conv_node("c2", ["in"], 5, 3),
            plain_node("bad_add", "add", ["c1", "c2"]),
            plain_node("out", "output", ["bad_add"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, 8, 8))
        with pytest.raises(ShapeMismatch, match="bad_add"):
            validate(g)

    def test_cycle_detected(self):
        nodes = [
            plain_node("in", "input", []),
            plain_node("a", "relu", ["b"]),
            plain_node("b", "relu", ["a"]),
            plain_node("out", "output", ["a"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 1, 2, 2))
        with pytest.raises(CycleDetected):
            validate(g)

    def test_dangling_input(self):
        nodes = [
            plain_node("in", "input", []),
            plain_node("r", "relu", ["ghost"]),
            plain_node("out", "output", ["r"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 1, 2, 2))
        with pytest.raises(DanglingInput, match="ghost"):
            validate(g)

    def test_unreachable_node(self):
        nodes = [
            plain_node("in", "input", []),
            plain_node("r", "relu", ["in"]),
            plain_node("island", "relu", ["r"]),  # never reaches output
            plain_node("out", "output", ["r"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 1, 2, 2))
        with pytest.raises(UnreachableNode, match="island"):
            validate(g)

    def test_empty_graph(self):
        g = Graph(nodes={}, input_id="in", output_id="out", input_shape=(1, 1, 1, 1))
        with pytest.raises(GraphError):
            validate(g)

    def test_arity_enforced(self):
        nodes = [
            plain_node("in", "input", []),
            plain_node("a", "add", ["in"]),
            plain_node("out", "output", ["a"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 1, 2, 2))
        with pytest.raises(GraphError):
            validate(g)


class TestExecute:
    def test_zero_conv_weights_output_equals_fc_bias(self, rng):
        g = tiny_chain(rng)
        bias = np.array([0.75, -1.25], dtype=np.float32)
        fc = g.nodes["fc"]
        fc.params = dict(fc.params)
        fc.params["weight"] = Tensor(np.zeros((2, 4, 1, 1), np.float32))
        fc.params["bias"] = Tensor(bias.reshape(1, 2, 1, 1))
        g.nodes["c1"].params["weight"] = Tensor(np.zeros((4, 3, 3, 3), np.float32))
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        y = execute(g, x)
        assert np.array_equal(y.data.reshape(2), bias)

    def test_deterministic(self, rng):
        g = tiny_chain(rng)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        y1 = execute(g, x)
        y2 = execute(g, x)
        assert np.array_equal(y1.data, y2.data)

    def test_value_read_twice_by_one_node(self, rng):
        # execute releases a value after its last reader, which here reads
        # it twice; a second input of the graph's own input reads it too
        nodes = [plain_node("in", "input", []), plain_node("r", "relu", ["in"]),
                 plain_node("a", "add", ["r", "r"]), plain_node("b", "add", ["a", "in"]),
                 plain_node("out", "output", ["b"])]
        g = make_graph(nodes, "in", "out", (1, 2, 3, 3))
        x = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        y = execute(g, Tensor(x))
        assert np.array_equal(y.data, (np.maximum(x, 0) + np.maximum(x, 0)) + x)

    def test_insertion_order_does_not_matter(self, rng):
        g = tiny_chain(rng)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        y1 = execute(g, x)
        reordered = Graph(
            nodes={nid: g.nodes[nid] for nid in reversed(list(g.nodes))},
            input_id=g.input_id, output_id=g.output_id, input_shape=g.input_shape,
        )
        y2 = execute(reordered, x)
        assert np.array_equal(y1.data, y2.data)

    def test_batch_dim_is_free(self, rng):
        g = tiny_chain(rng)
        x = Tensor(rng.standard_normal((5, 3, 8, 8)).astype(np.float32))
        assert execute(g, x).shape == (5, 2, 1, 1)
        with pytest.raises(ShapeMismatch):
            execute(g, Tensor(np.zeros((1, 3, 9, 8), np.float32)))

    def test_identity_passthrough(self):
        nodes = [
            plain_node("in", "input", []),
            plain_node("r", "relu", ["in"]),
            plain_node("out", "output", ["r"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 2, 3, 3))
        x = Tensor(np.abs(np.random.default_rng(1).standard_normal((1, 2, 3, 3))).astype(np.float32))
        assert np.array_equal(execute(g, x).data, x.data)

    def test_only_the_output_is_checked_for_finite_values(self):
        # a conv whose f32 sums overflow to inf, through a relu that keeps it
        nodes = [
            plain_node("in", "input", []),
            conv_node("c", ["in"], 1, 2, r=1, s=1, pad=(0, 0),
                      weight=np.full((1, 2, 1, 1), 3e38, np.float32)),
            plain_node("r", "relu", ["c"]),
            plain_node("out", "output", ["r"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 2, 2, 2))
        with pytest.raises(TensorError, match="NaN or Inf"), np.errstate(over="ignore"):
            execute(g, Tensor(np.ones((1, 2, 2, 2), np.float32)))

    def test_input_to_output_returns_x(self):
        g = make_graph([plain_node("in", "input", []), plain_node("out", "output", ["in"])],
                       "in", "out", (1, 2, 3, 3))
        x = Tensor(np.arange(18, dtype=np.float32).reshape(1, 2, 3, 3))
        y = execute(g, x)
        assert isinstance(y, Tensor) and not y.data.flags.writeable
        assert y.dtype == x.dtype and np.array_equal(y.data, x.data)

    def test_validate_keys_run_in_topological_order(self, rng):
        g = tiny_chain(rng)
        reordered = Graph(
            nodes={nid: g.nodes[nid] for nid in reversed(list(g.nodes))},
            input_id=g.input_id, output_id=g.output_id, input_shape=g.input_shape,
        )
        for h in (g, reordered):
            assert list(validate(h)) == h.topo_order()

    def test_execute_and_save_sort_the_graph_once(self, rng, tmp_path, monkeypatch):
        g = tiny_chain(rng)
        sorts = []
        topo_order = graph._topo_order
        monkeypatch.setattr(graph, "_topo_order", lambda h: sorts.append(h) or topo_order(h))
        execute(g, Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32)))
        assert len(sorts) == 1
        save(g, tmp_path / "g.fpm")
        assert len(sorts) == 2

    def test_flops_block_matching_and_materialize_sort_the_graph_once(self, rng, monkeypatch):
        g = tiny_chain(rng)
        sorts = []
        topo_order = graph._topo_order
        monkeypatch.setattr(graph, "_topo_order", lambda h: sorts.append(h) or topo_order(h))
        count_flops(g)
        assert len(sorts) == 1
        find_residual_blocks(g)
        assert len(sorts) == 2
        materialize(g, PruneMask())
        assert len(sorts) == 4  # the input graph, and the result once built


def add_chain(rng):
    """input -> conv(3->4) -> relu -> add(conv, relu) -> gavgpool -> fc(4->2)
    -> output: the add can be rewired to (relu, relu) and stay valid."""
    nodes = [
        plain_node("in", "input", []),
        conv_node("c1", ["in"], 4, 3, weight=rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
        plain_node("r1", "relu", ["c1"]),
        plain_node("a", "add", ["c1", "r1"]),
        plain_node("gap", "gavgpool", ["a"]),
        fc_node("fc", ["gap"], 2, 4, weight=rng.standard_normal((2, 4, 1, 1)).astype(np.float32)),
        plain_node("out", "output", ["fc"]),
    ]
    return make_graph(nodes, "in", "out", (1, 3, 8, 8))


def _replace_weight(g):
    c1 = g.nodes["c1"]
    c1.params["weight"] = Tensor(c1.params["weight"].data * 2)  # as sgd_step and _zeroize do


def _replace_spec(g):
    spec = g.nodes["c1"].attrs["spec"]
    g.nodes["c1"].attrs["spec"] = dataclasses.replace(spec, pad=(0, 0))  # as materialize does


def _reassign_inputs(g):
    g.nodes["a"].inputs = ["r1", "r1"]


def _edit_inputs_in_place(g):
    g.nodes["a"].inputs[0] = "r1"


def _delete_node(g):
    del g.nodes["r1"]  # and rewire its reader, as fold_bn and fuse_block do
    g.nodes["a"].inputs[1] = "c1"


def _change_input_shape(g):
    g.input_shape = (1, 3, 6, 6)
    return Tensor(np.random.default_rng(5).standard_normal((2, 3, 6, 6)).astype(np.float32))


def _soft_prune(g):
    soft_prune_epoch(g, None, PruneConfig(rate=0.3, mode="continued"))


class TestPlanCache:
    """execute keeps a graph's plan from its first execute on and compiles
    again after any edit the snapshot shows."""

    @pytest.mark.parametrize("edit", [
        _replace_weight, _replace_spec, _reassign_inputs, _edit_inputs_in_place, _delete_node,
        _change_input_shape, _soft_prune])
    def test_an_edit_in_place_gives_a_fresh_execute(self, rng, edit):
        g = add_chain(rng)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        before = execute(g, x)
        execute(g, x)
        x = edit(g) or x
        after = execute(g, x)
        assert after.data.tobytes() == execute(g.copy(), x).data.tobytes()
        assert after.data.tobytes() != before.data.tobytes()  # the edit changed the output

    def test_a_deleted_node_left_dangling_raises(self, rng):
        g = add_chain(rng)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        execute(g, x)
        del g.nodes["r1"]
        with pytest.raises(DanglingInput):
            execute(g, x)

    def test_validate_runs_once_per_graph_state(self, rng, monkeypatch):
        g = tiny_chain(rng)
        calls = []
        real_validate = graph.validate
        monkeypatch.setattr(graph, "validate", lambda h: calls.append(h) or real_validate(h))
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        outs = {execute(g, x).data.tobytes() for _ in range(5)}
        assert len(calls) == 1 and len(outs) == 1  # kept from the first execute on
        mask = soft_prune_epoch(g, None, PruneConfig(rate=0.3, mode="continued"))
        assert mask.zeroed("c1")
        for _ in range(3):
            execute(g, x)
        assert len(calls) == 2
        execute(g.copy(), x)  # a copy carries no plan
        assert len(calls) == 3

    def test_the_first_execute_keeps_a_plan_that_an_edit_releases(self, rng):
        g = tiny_chain(rng)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        old = g.nodes["c1"].params["weight"]
        refs = sys.getrefcount(old)
        execute(g, x)
        assert g._plan is not None and sys.getrefcount(old) > refs
        g.nodes["c1"].params["weight"] = Tensor(old.data * 2)
        execute(g, x)
        # the stale plan went, and with it the replaced weights
        assert g._plan is not None and sys.getrefcount(old) == refs - 1
        assert g._plan.snapshot == graph._snapshot(g)

    def test_the_plan_is_no_part_of_equality_or_repr(self, rng):
        g = tiny_chain(rng)
        text = repr(g)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        execute(g, x)
        assert g._plan is not None and g.copy()._plan is None
        assert g == g.copy() and repr(g) == text

    def test_a_compiled_graph_rejects_what_execute_rejected(self, rng):
        g = tiny_chain(rng)
        execute(g, Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32)))
        with pytest.raises(ShapeMismatch):
            execute(g, Tensor(np.zeros((1, 3, 9, 8), np.float32)))
        with pytest.raises(TensorError, match="mixed dtypes"):
            execute(g, Tensor(np.zeros((1, 3, 8, 8), np.float64)))
        # the fc's f32 sums overflow to inf: only the output is checked
        fc = g.nodes["fc"]
        fc.params["weight"] = Tensor(np.full((2, 4, 1, 1), 3e38, np.float32))
        with pytest.raises(TensorError, match="NaN or Inf"), np.errstate(over="ignore"):
            execute(g, Tensor(np.ones((1, 3, 8, 8), np.float32)))

    def test_a_graph_without_parameters_runs_any_dtype(self):
        g = make_graph([plain_node("in", "input", []), plain_node("r", "relu", ["in"]),
                        plain_node("out", "output", ["r"])], "in", "out", (1, 2, 3, 3))
        for dt in (np.float32, np.float64):
            x = np.arange(-9, 9, dtype=dt).reshape(1, 2, 3, 3)
            assert np.array_equal(execute(g, Tensor(x)).data, np.maximum(x, 0))

    def test_timings_get_every_node_but_the_input(self, rng):
        g = tiny_chain(rng)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        timings: dict[str, float] = {}
        execute(g, x, timings)
        once = dict(timings)
        execute(g, x, timings)
        assert set(timings) == set(g.nodes) - {g.input_id}
        assert all(timings[nid] > once[nid] > 0 for nid in timings)


class TestContainer:
    def test_roundtrip_execution_bit_exact(self, rng, tmp_path):
        g = tiny_chain(rng)
        path = tmp_path / "m.fpm"
        save(g, path)
        g2 = load(path)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        assert np.array_equal(execute(g, x).data, execute(g2, x).data)
        assert [n.kind for n in g2.nodes.values()] == [n.kind for n in g.nodes.values()]

    def test_save_is_deterministic(self, rng, tmp_path):
        g = tiny_chain(rng)
        p1, p2 = tmp_path / "a.fpm", tmp_path / "b.fpm"
        save(g, p1)
        save(g, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_file_and_leaves_no_temp(self, rng, tmp_path, full_disk):
        path = tmp_path / "m.fpm"
        path.write_bytes(b"previous model")
        with pytest.raises(OSError, match="No space"):
            save(tiny_chain(rng), path)
        with pytest.raises(OSError, match="No space"):
            save(tiny_chain(rng), tmp_path / "new.fpm")
        assert sum(full_disk) > 0  # the failures came partway through each file
        assert path.read_bytes() == b"previous model"
        assert os.listdir(tmp_path) == ["m.fpm"]

    def test_f64_roundtrip(self, rng, tmp_path):
        g = tiny_chain(rng, dtype=np.float64)
        path = tmp_path / "m64.fpm"
        save(g, path)
        g2 = load(path)
        assert g2.nodes["c1"].params["weight"].dtype == np.float64
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        assert np.array_equal(execute(g, x).data, execute(g2, x).data)

    def test_truncated_blob_rejected(self, rng, tmp_path):
        g = tiny_chain(rng)
        path = tmp_path / "m.fpm"
        save(g, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ModelFormatError, match="length"):
            load(path)

    def test_corrupt_blob_checksum_rejected(self, rng, tmp_path):
        g = tiny_chain(rng)
        path = tmp_path / "m.fpm"
        save(g, path)
        raw = bytearray(path.read_bytes())
        raw[-4] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="checksum"):
            load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fpm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelFormatError, match="magic"):
            load(path)

    def test_conv_bias_the_spec_lacks_does_not_load(self, rng, tmp_path):
        g = tiny_chain(rng)
        c1 = g.nodes["c1"]
        c1.attrs["spec"] = dataclasses.replace(c1.attrs["spec"], has_bias=True)
        c1.params["bias"] = Tensor(np.ones((1, 4, 1, 1), np.float32))
        path = tmp_path / "m.fpm"
        save(g, path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        assert manifest["nodes"][1]["attrs"]["has_bias"] is True
        manifest["nodes"][1]["attrs"]["has_bias"] = False
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])
        with pytest.raises(ShapeMismatch, match="node 'c1': bias must be absent, as its spec"):
            load(path)

    def test_fc_bias_of_the_wrong_length_does_not_load(self, rng, tmp_path, monkeypatch):
        g = tiny_chain(rng)
        g.nodes["fc"].params["bias"] = Tensor(np.zeros((1, 3, 1, 1), np.float32))
        path = tmp_path / "m.fpm"
        with monkeypatch.context() as patched:  # save validates; write the file regardless
            patched.setattr(graph, "validate", lambda g: g.topo_order())
            save(g, path)
        with pytest.raises(ShapeMismatch, match=r"node 'fc': bias must be \(1, 2, 1, 1\)"):
            load(path)

    def test_negative_bn_var_does_not_load(self, rng, tmp_path, monkeypatch, capsys):
        g = tiny_chain(rng)
        var = g.nodes["b1"].params["var"].data.copy()
        var[0, 1] = -0.5
        g.nodes["b1"].params["var"] = Tensor(var)
        path = tmp_path / "m.fpm"
        with monkeypatch.context() as patched:  # save validates; write the file regardless
            patched.setattr(graph, "validate", lambda g: g.topo_order())
            save(g, path)
        with pytest.raises(ShapeMismatch, match="node 'b1': bn var must be non-negative"):
            load(path)
        assert main(["flops", str(path)]) == EXIT_VALIDATION
        assert "bn var must be non-negative" in capsys.readouterr().err

    def test_malformed_manifest_rejected(self, tmp_path):
        payload = b"{this is not json"
        path = tmp_path / "bad.fpm"
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload)
        with pytest.raises(ModelFormatError, match="malformed manifest"):
            load(path)

    def test_unsupported_version_rejected(self, rng, tmp_path):
        g = tiny_chain(rng)
        path = tmp_path / "m.fpm"
        save(g, path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        manifest["version"] = 99
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])
        with pytest.raises(ModelFormatError, match="version"):
            load(path)

    def test_absent_tensor_name_rejected(self, rng, tmp_path):
        g = tiny_chain(rng)
        path = tmp_path / "m.fpm"
        save(g, path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        blob = raw[8 + man_len :]
        # rename one tensor table entry so a node references a missing name
        manifest["tensors"][0]["name"] = "nobody/home"
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + blob)
        with pytest.raises(ModelFormatError, match="absent tensor"):
            load(path)

    @pytest.mark.parametrize("shape", [[-1, 1, 1, 1], [-2, 1, 1, 1]])
    def test_negative_tensor_length_rejected(self, rng, tmp_path, shape):
        # a count of -1 must not read to the end of the blob, as numpy would
        g = tiny_chain(rng)
        path = tmp_path / "m.fpm"
        save(g, path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        entry = manifest["tensors"][0]
        entry["shape"], entry["length"] = shape, 4 * shape[0]
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])
        with pytest.raises(ModelFormatError, match="outside the blob"):
            load(path)

    @pytest.mark.parametrize("edit,named", [
        (lambda m: m.update(blob=[]), ""),
        (lambda m: m["nodes"][1].update(params=[]), ""),
        (lambda m: m["nodes"].__setitem__(1, ["c1"]), ""),
        (lambda m: m["nodes"][1]["attrs"].update(stride=[1]), ""),
        (lambda m: m["nodes"][1].update(inputs=[["in"]]), ""),
        (lambda m: m["nodes"][1].update(inputs="in"), ""),
        (lambda m: m["tensors"][1].update(offset=True), ""),
        (lambda m: m["tensors"][0]["shape"].__setitem__(0, 4.5), ""),
        (lambda m: m["input_shape"].__setitem__(1, 3.9), ""),
        (lambda m: m["input_shape"].__setitem__(1, "3"), ""),
        (lambda m: m["nodes"][1].update(tags=[5]), ""),
        (lambda m: m["nodes"][1].update(tags="stage1.block1"), ""),
        (lambda m: m["nodes"][1].update(kind=["conv"]), "node 'c1' field 'kind'"),
        (lambda m: m["nodes"][1].update(kind={"conv": 1}), "node 'c1' field 'kind'"),
        (lambda m: m["nodes"][1]["params"].update(weight=["c1/weight"]),
         "node 'c1' field 'params'"),
    ], ids=["blob-list", "params-list", "node-list", "stride-one-entry", "input-list",
            "inputs-string", "offset-bool", "dim-float", "input-shape-float",
            "input-shape-string", "tags-int", "tags-string", "kind-list", "kind-object",
            "params-entry-list"])
    def test_wrong_json_type_rejected(self, rng, tmp_path, capsys, edit, named):
        # a JSON value of the wrong type is a malformed file, not a crash;
        # a string's inputs were split into characters (a GraphError), and
        # the others loaded: a tensor read from byte 1 for an offset of true,
        # a dim or input_shape entry truncated or coerced to an integer, an
        # integer tag, and a string's tags split into characters; a kind or
        # params entry that is a list or an object failed as unhashable,
        # naming neither the node nor the field, which the message must now name
        path = tmp_path / "m.fpm"
        save(tiny_chain(rng), path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        assert manifest["nodes"][1]["kind"] == "conv"
        edit(manifest)
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])
        with pytest.raises(ModelFormatError, match="malformed manifest.*" + named):
            load(path)
        assert main(["flops", str(path)]) == EXIT_VALIDATION
        assert "malformed manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,extra,match", [
        (lambda m: m["tensors"][2].update(offset=432), b"",
         "tensor 'b1/beta' starts at byte 432, not 448"),
        (lambda m: m["tensors"].insert(1, m["tensors"].pop(2)), b"",
         "tensor 'b1/beta' starts at byte 448, not 432"),
        (lambda m: None, bytes(8), "the tensors cover 536 of the blob's 544 bytes"),
    ], ids=["aliased-tensor", "out-of-order-table", "trailing-bytes"])
    def test_tensors_must_tile_the_blob(self, rng, tmp_path, capsys, edit, extra, match):
        # each loaded: a tensor read twice, a table save never writes, and
        # blob bytes read by no tensor
        path = tmp_path / "m.fpm"
        save(tiny_chain(rng), path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        edit(manifest)
        blob = raw[8 + man_len :] + extra
        manifest["blob"] = {"length": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + blob)
        with pytest.raises(ModelFormatError, match=match):
            load(path)
        assert main(["flops", str(path)]) == EXIT_VALIDATION
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("nid,key,value", [
        ("c2", "has_bias", "false"),
        ("c3", "k", 2.7),
        ("c3", "r", True),
        ("c1", "stride", [1.0, 1.0]),
        ("mp", "window", [2.5, 2.5]),
        ("b1", "eps", "1e-5"),
        ("b1", "frozen", [1, 0, 0, 2]),
        ("b1", "frozen", [True, False, False, True]),
    ], ids=["has-bias-string", "k-float", "r-bool", "stride-floats", "window-floats",
            "eps-string", "frozen-2", "frozen-bools"])
    def test_wrong_attr_type_rejected(self, rng, tmp_path, capsys, nid, key, value):
        # each of these loaded, as a truncated, coerced or float value, or
        # failed later with a misleading ShapeMismatch
        path = tmp_path / "m.fpm"
        save(all_kinds_graph(rng), path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        next(n for n in manifest["nodes"] if n["id"] == nid)["attrs"][key] = value
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])
        with pytest.raises(ModelFormatError, match=f"malformed manifest: attr '{key}' must be"):
            load(path)
        assert main(["flops", str(path)]) == EXIT_VALIDATION
        assert f"attr '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("attrs", [
        {"window": (0, 0)}, {"window": (2, 0)}, {"stride": (0, 1)}, {"pad": (-1, 0)},
        {"pad": (0, 2)}, {"window": (7, 7)},
    ], ids=["window-0", "window-col-0", "stride-0", "pad-negative", "pad-fills-window",
            "collapses"])
    def test_bad_maxpool_geometry_rejected(self, tmp_path, capsys, attrs):
        # validate runs max_pool's own check, so it cannot infer a shape
        # (window 0 on a 4x4 map gave 5x5) for a pool execute would reject,
        # and a file holding one does not load; a pad as wide as the window
        # gives windows of padding alone, whose -inf execute rejected
        with pytest.raises(ShapeMismatch, match="node 'pool': max_pool"):
            validate(pool_graph(**attrs))
        path = tmp_path / "m.fpm"
        save(pool_graph(), path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        assert manifest["nodes"][1]["kind"] == "maxpool"
        manifest["nodes"][1]["attrs"].update({k: list(v) for k, v in attrs.items()})
        payload = json.dumps(manifest, separators=(",", ":")).encode()
        path.write_bytes(b"FPM1" + len(payload).to_bytes(4, "little") + payload + raw[8 + man_len :])
        with pytest.raises(ShapeMismatch, match="max_pool"):
            load(path)
        assert main(["flops", str(path)]) == EXIT_VALIDATION
        assert "node 'pool'" in capsys.readouterr().err

    @pytest.mark.parametrize("attrs", [
        {"window": (2.5, 2.5)}, {"stride": (2, 1.5)}, {"pad": (0.5, 0)},
    ], ids=["window", "stride", "pad"])
    def test_non_integer_maxpool_geometry_rejected_in_memory(self, attrs):
        # the file boundary rejects these as malformed JSON types; validate
        # must too, or it infers float dims (1.0 x 1.0 for a 2.5 window) that
        # execute does not produce
        with pytest.raises(ShapeMismatch, match="node 'pool': max_pool"):
            validate(pool_graph(**attrs))

    def test_blob_is_little_endian_ieee(self, rng, tmp_path):
        g = tiny_chain(rng)
        path = tmp_path / "m.fpm"
        save(g, path)
        raw = path.read_bytes()
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8 : 8 + man_len])
        blob = raw[8 + man_len :]
        entry = next(e for e in manifest["tensors"] if e["name"] == "c1/weight")
        arr = np.frombuffer(blob[entry["offset"] : entry["offset"] + entry["length"]], "<f4")
        assert np.array_equal(arr.reshape(entry["shape"]), g.nodes["c1"].params["weight"].data)
        assert hashlib.sha256(blob).hexdigest() == manifest["blob"]["sha256"]

    @pytest.mark.parametrize("make", [
        lambda rng: fuse(build(ZooSpec("resnet8-tiny")), "3/3")[0],
        lambda rng: fuse(build(ZooSpec("resnet20")), "3/3")[0],
        lambda rng: fuse(build(ZooSpec("resnet20", dtype="f64")), "3/3")[0],
        big_conv,
    ], ids=["resnet8-tiny-fused", "resnet20-fused", "resnet20-fused-f64", "above-a-slice"])
    def test_save_of_load_reproduces_the_file(self, rng, tmp_path, make):
        # and each loaded tensor owns its array, not a view of a file-sized buffer
        path, again = tmp_path / "m.fpm", tmp_path / "again.fpm"
        save(make(rng), path)
        g = load(path)
        save(g, again)
        assert again.read_bytes() == path.read_bytes()
        assert all(t.data.base is None for n in g.nodes.values() for t in n.params.values())

    @pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
    def test_flipped_byte_above_a_slice_fails_the_checksum(self, rng, tmp_path, which):
        path = tmp_path / "m.fpm"
        save(big_conv(rng), path)
        raw = bytearray(path.read_bytes())
        man_len = int.from_bytes(raw[4:8], "little")
        assert len(raw) - 8 - man_len > graph._SLICE
        entry = json.loads(raw[8 : 8 + man_len])["tensors"][which]
        raw[8 + man_len + entry["offset"] + entry["length"] // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        threads = threading.active_count()
        with pytest.raises(ModelFormatError, match="checksum"):
            load(path)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_load_or_save_above_a_slice(self, rng, tmp_path):
        g = big_conv(rng)
        path = tmp_path / "m.fpm"
        threads = threading.active_count()
        save(g, path)
        assert threading.active_count() == threads
        load(path)
        assert threading.active_count() == threads

    def test_failed_save_above_a_slice_leaves_no_thread(self, rng, tmp_path, full_disk):
        g = big_conv(rng)
        threads = threading.active_count()
        with pytest.raises(OSError, match="No space"):
            save(g, tmp_path / "m.fpm")
        assert threading.active_count() == threads
        assert os.listdir(tmp_path) == []

    def test_only_a_blob_of_a_slice_or_more_starts_a_thread(self, rng, tmp_path, monkeypatch):
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: (started.append(t.name), real_start(t))[1])
        small, large = tmp_path / "small.fpm", tmp_path / "large.fpm"
        save(fuse(build(ZooSpec("resnet20")), "3/3")[0], small)
        load(small)
        assert started == []
        save(big_conv(rng), large)
        load(large)
        assert started == ["fpm-sha256"] * 2

    def test_hasher_digest_is_the_sha256_of_the_arrays_in_order(self):
        sizes = [3, graph._SLICE - 1, 1, 0, graph._SLICE + 7, 5]
        arrays = [np.full(n, i, np.uint8) for i, n in enumerate(sizes)]
        with graph._Hasher() as sha:
            for arr in arrays:
                sha.update(arr)
            digest = sha.hexdigest()
        assert digest == hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    def test_file_cut_short_while_loading_rejected(self, rng, tmp_path, monkeypatch):
        # a file that shrinks after load has checked its size: the read comes up short
        path = tmp_path / "m.fpm"
        save(tiny_chain(rng), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-16])
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
        with pytest.raises(ModelFormatError, match="the file ends inside tensor 'fc/weight'"):
            load(path)


def all_kinds_graph(rng, dtype=np.float32):
    """One graph holding every kind in graph.KINDS.

    input -> conv c1 (3->4, bias) -> bn b1 (channels 0 and 3 frozen) -> relu
    -> maxpool 2x2/2 -> [conv c2 (4->4) + the pool: add] and conv c3 (4->2,
    1x1), joined by concat -> gavgpool -> fc (6->3, bias) -> output. c3's
    second filter is zero, so it is a zeroized filter that only the concat
    reads.
    """
    c3 = rng.standard_normal((2, 4, 1, 1)).astype(dtype)
    c3[1] = 0
    nodes = [
        plain_node("in", "input", []),
        conv_node("c1", ["in"], 4, 3, weight=rng.standard_normal((4, 3, 3, 3)).astype(dtype),
                  bias=rng.uniform(-0.2, 0.2, 4), dtype=dtype),
        bn_node("b1", ["c1"], 4, gamma=rng.uniform(0.5, 1.5, 4), beta=rng.uniform(-0.2, 0.2, 4),
                mean=rng.uniform(-0.2, 0.2, 4), var=rng.uniform(0.5, 1.5, 4),
                frozen=(1, 0, 0, 1), dtype=dtype),
        plain_node("r1", "relu", ["b1"]),
        plain_node("mp", "maxpool", ["r1"], window=(2, 2), stride=(2, 2), pad=(0, 0)),
        conv_node("c2", ["mp"], 4, 4, weight=rng.standard_normal((4, 4, 3, 3)).astype(dtype),
                  dtype=dtype),
        plain_node("sum", "add", ["c2", "mp"]),
        conv_node("c3", ["mp"], 2, 4, r=1, s=1, pad=(0, 0), weight=c3, dtype=dtype),
        plain_node("cat", "concat", ["sum", "c3"]),
        plain_node("gap", "gavgpool", ["cat"]),
        fc_node("fc", ["gap"], 3, 6, weight=rng.standard_normal((3, 6, 1, 1)).astype(dtype),
                bias=rng.uniform(-0.2, 0.2, 3), dtype=dtype),
        plain_node("out", "output", ["fc"]),
    ]
    return make_graph(nodes, "in", "out", (2, 3, 8, 8))


class TestAllKinds:
    """Every kind through validation, execution, cost, the file format,
    training and materialization, on one graph."""

    @pytest.fixture
    def g(self, rng):
        return all_kinds_graph(rng)

    def test_holds_every_kind(self, g):
        assert {n.kind for n in g.nodes.values()} == set(graph.KINDS) == set(graph.OPS)

    def test_validate_execute_and_count_flops(self, g, rng):
        shapes = validate(g)
        assert shapes["cat"] == (2, 6, 4, 4) and shapes["out"] == (2, 3, 1, 1)
        y = execute(g, Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert y.shape == (2, 3, 1, 1) and np.all(np.isfinite(y.data))
        report = count_flops(g)
        assert [n.node_id for n in report.nodes] == list(shapes)
        assert report.kind_flops()["concat"] == 0 and report.total_flops > 0

    def test_save_load_save_round_trip(self, g, rng, tmp_path):
        first, second = tmp_path / "a.fpm", tmp_path / "b.fpm"
        save(g, first)
        loaded = load(first)
        save(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.nodes["b1"].attrs["frozen"] == (1, 0, 0, 1)
        assert loaded.nodes["mp"].attrs == g.nodes["mp"].attrs
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        assert execute(g, x).data.tobytes() == execute(loaded, x).data.tobytes()

    def test_forward_backward_gives_finite_gradients(self, g, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        loss, grads, gx = forward_backward(g, x, np.array([0, 2]))
        assert np.isfinite(loss) and np.all(np.isfinite(gx))
        assert set(grads) == {"c1", "b1", "c2", "c3", "fc"}
        for gparams in grads.values():
            assert all(np.all(np.isfinite(a)) for a in gparams.values())

    def test_concat_blocks_materialize(self, g, rng):
        result = materialize(g, PruneMask(keep={"c3": [True, False]}))
        assert result.summary == [{
            "conv": "c3", "removed": 0, "kept": 2, "zeroized": 1,
            "blocked": "output channels are pinned by concat node 'cat'",
        }]
        assert result.graph.nodes["c3"].params["weight"].shape == (2, 4, 1, 1)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        assert execute(g, x).data.tobytes() == execute(result.graph, x).data.tobytes()
