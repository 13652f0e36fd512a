"""The inference fast path: freeze()/unfreeze(), the planned frozen
forward, its conv+BN fold and its pool, and the batch-norm precision
fixes that ride along.

Acceptance contract (mirrored by ``benchmarks/test_inference_fastpath.py``
for throughput): the default unfrozen eval path stays bit-identical to
the seed implementation; a frozen float64 model scores eval's bits,
scalar and batched; a frozen float32 model's plan folds its batch norms
into their convolutions and is decision-identical with scores allclose
at float32 tolerance; and ``unfreeze()`` restores the eval path with
trainable parameters untouched.
"""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.blackbox import NetworkClassifier
from repro.models.registry import ARCHITECTURES, build_model
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Parameter,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
)
from repro.nn.layers.shape import Concat
from repro.nn.module import Module
from repro.nn.plan import MAX_PLANS, Plan
from repro.testkit.differential import tiny_network_classifier


def _conv_bn_net(seed: int = 3) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 6, 3, padding=1, rng=rng),
        BatchNorm2d(6),
        ReLU(),
        MaxPool2d(2),
        Conv2d(6, 6, 3, padding=1, rng=rng),
        BatchNorm2d(6),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(6, 4, rng=rng),
    )


def _warmed(model: Sequential, seed: int = 4) -> Sequential:
    """Train-mode forwards so batch-norm running stats are non-trivial."""
    model.train()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        model(rng.normal(0.45, 0.25, size=(8, 3, 8, 8)))
    model.eval()
    return model


def _norm_steps(plan) -> set:
    """``(module, op)`` of every scale and shift step of ``plan``: a
    folded batch norm contributes none, an unfolded one both."""
    return {
        (step.module, step.op) for step in plan.steps if step.op in ("scale", "shift")
    }


def _both_steps(*names) -> set:
    return {(name, op) for name in names for op in ("scale", "shift")}


@pytest.fixture
def net():
    return _warmed(_conv_bn_net())


@pytest.fixture
def batch():
    return np.random.default_rng(5).random((4, 3, 8, 8))


class TestFreezeBasics:
    def test_freeze_marks_every_module(self, net):
        net.freeze()
        assert net.frozen
        assert all(module.inference for module in net.modules())
        assert not any(module.training for module in net.modules())

    def test_unfreeze_clears_every_module(self, net):
        net.freeze()
        net.unfreeze()
        assert not any(module.inference for module in net.modules())

    def test_train_auto_unfreezes(self, net):
        net.freeze()
        net.train()
        assert not net.frozen
        assert all(module.training for module in net.modules())

    def test_backward_raises_when_frozen(self, net, batch):
        net.freeze()
        out = net(batch)
        with pytest.raises(RuntimeError, match="inference mode"):
            net.backward(np.ones_like(out))

    def test_dropout_is_identity_when_frozen(self):
        dropout = Dropout(p=0.5, seed=0)
        dropout.freeze()
        x = np.random.default_rng(6).random((3, 7))
        assert dropout(x) is x


class TestFolding:
    def test_frozen_scores_allclose_and_decisions_identical(self, net, batch):
        # float64 folds nothing, so the frozen scores are eval's bits
        reference = net(batch)
        net.freeze()
        frozen = net(batch)
        assert np.array_equal(frozen, reference)

    def test_conv_bn_actually_folds(self, net, batch):
        reference = net(batch)
        net.astype(np.float32).freeze()
        x = batch.astype(np.float32)
        assert _norm_steps(net.plan(x)) == set()
        folded = net(x)
        assert np.array_equal(folded.argmax(axis=1), reference.argmax(axis=1))
        assert np.allclose(folded, reference, rtol=1e-4, atol=1e-5)

    def test_float64_folds_nothing(self, net, batch):
        net.freeze()
        assert _norm_steps(net.plan(batch)) == _both_steps("layer1", "layer5")

    def test_refreezing_at_float64_drops_float32_folds(self, net, batch):
        net.astype(np.float32).freeze()
        net.astype(np.float64)  # re-freezes at float64
        assert net.frozen
        assert _norm_steps(net.plan(batch)) == _both_steps("layer1", "layer5")
        reference = copy.deepcopy(net).unfreeze()(batch)
        assert np.array_equal(net(batch), reference)

    def test_bn_without_affine_predecessor_still_matches(self, batch):
        # a BN that follows a pool cannot fold; its plan keeps eval's
        # float64 multiply-add
        model = _warmed(
            Sequential(MaxPool2d(2), BatchNorm2d(3), GlobalAvgPool2d())
        )
        reference = model(batch)
        fast = copy.deepcopy(model).astype(np.float32).freeze()
        assert _norm_steps(fast.plan(batch.astype(np.float32))) == _both_steps("layer1")
        model.freeze()
        assert np.array_equal(model(batch), reference)

    def test_the_fold_is_the_float64_product_cast_back(self, batch):
        # a frozen float32 conv-BN-ReLU scores exactly a conv whose weight
        # is (w * scale) and whose bias is (shift + scale * b), each
        # computed in float64 and cast to float32: serve_cnn's scores
        rng = np.random.default_rng(24)
        model = _warmed(Sequential(
            Conv2d(3, 6, 3, padding=1, rng=rng), BatchNorm2d(6), ReLU()
        ))
        model.astype(np.float32)
        conv, bn = model[0], model[1]
        bn.beta.data = rng.normal(0.0, 0.5, size=6).astype(np.float32)
        conv.bias.data = rng.normal(0.0, 0.5, size=6).astype(np.float32)
        inv_std = 1.0 / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
        scale = bn.gamma.data.astype(np.float64) * inv_std
        shift = bn.beta.data.astype(np.float64) - bn.running_mean.astype(np.float64) * scale
        hand = copy.deepcopy(conv)
        hand.weight.data = (
            conv.weight.data.astype(np.float64) * scale[:, None, None, None]
        ).astype(np.float32)
        hand.bias.data = (shift + scale * conv.bias.data.astype(np.float64)).astype(np.float32)
        x = batch.astype(np.float32)
        expected = np.maximum(hand(x), 0.0)
        model.freeze()
        assert _norm_steps(model.plan(x)) == set()
        for rows in (x, x[:1]):
            assert np.array_equal(model(rows), expected[: len(rows)])

    @pytest.mark.parametrize(
        "build, norm",
        [
            (lambda rng: Sequential(
                Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(), BatchNorm2d(4),
                GlobalAvgPool2d(), Linear(4, 3, rng=rng),
            ), "layer2"),
            (lambda rng: Sequential(
                Conv2d(3, 4, 3, padding=1, rng=rng), MaxPool2d(2), BatchNorm2d(4),
                GlobalAvgPool2d(), Linear(4, 3, rng=rng),
            ), "layer2"),
            # folding this batch norm would normalize the skip too
            (lambda rng: Sequential(
                Conv2d(3, 4, 3, padding=1, rng=rng),
                Residual(Sequential(
                    BatchNorm2d(4), ReLU(), Conv2d(4, 4, 3, padding=1, rng=rng)
                )),
                GlobalAvgPool2d(), Linear(4, 3, rng=rng),
            ), "layer1.body.layer0"),
        ],
        ids=["after-a-relu", "after-a-max-pool", "pre-activation-residual"],
    )
    def test_float32_batch_norms_the_plan_cannot_fold_keep_their_steps(
        self, batch, build, norm
    ):
        model = _warmed(build(np.random.default_rng(25))).astype(np.float32)
        x = batch.astype(np.float32)
        reference = model(x)
        model.freeze()
        assert _norm_steps(model.plan(x)) == _both_steps(norm)
        scores = model(x)
        assert np.allclose(scores, reference, rtol=1e-4, atol=1e-5)
        assert np.array_equal(scores.argmax(axis=1), reference.argmax(axis=1))

    def test_unfreezing_a_folded_batch_norm_normalizes_once(self, batch):
        # the batch norm leaves the plan's fold: its tree runs its
        # modules' own forwards, the conv unfolded, the batch norm eval's
        rng = np.random.default_rng(26)
        model = _warmed(Sequential(
            Conv2d(3, 6, 3, padding=1, rng=rng), BatchNorm2d(6), ReLU()
        )).astype(np.float32)
        x = batch.astype(np.float32)
        reference = copy.deepcopy(model)(x)
        model.freeze()
        model(x)
        model[1].unfreeze()
        scores = model(x).reshape(len(x), -1)
        reference = reference.reshape(len(x), -1)
        assert np.allclose(scores, reference, rtol=1e-4, atol=1e-5)
        assert np.array_equal(scores.argmax(axis=1), reference.argmax(axis=1))

    def test_unfreeze_round_trip_is_bit_exact(self, net, batch):
        before_state = {k: v.copy() for k, v in net.state_dict().items()}
        reference = net(batch)
        net.freeze()
        net(batch)
        net.unfreeze()
        after_state = net.state_dict()
        assert before_state.keys() == after_state.keys()
        for key, value in before_state.items():
            assert np.array_equal(value, after_state[key]), key
        assert np.array_equal(net(batch), reference)

    def test_load_state_dict_refreshes_folds(self, net, batch):
        net.freeze()
        stale = net(batch)
        donor = _warmed(_conv_bn_net(seed=11), seed=12)
        net.load_state_dict(donor.state_dict())
        assert net.frozen  # loading keeps the fast path active...
        refreshed = net(batch)
        # ...and refolds from the *new* weights, not the stale ones
        donor_reference = donor(batch)
        assert np.array_equal(refreshed, donor_reference)
        assert not np.allclose(refreshed, stale, rtol=1e-9, atol=1e-12)


class TestWorkspaceReuse:
    """One grow-only pool serves every plan of a frozen model."""

    def test_repeated_same_shape_batches_are_deterministic(self, net, batch):
        net.freeze()
        first = net(batch).copy()
        for _ in range(3):
            assert np.array_equal(net(batch), first)

    def test_shape_changes_between_batches(self, net, batch):
        net.unfreeze()
        small = batch[:2]
        ref_full = net(batch)
        ref_small = net(small)
        net.freeze()
        assert np.array_equal(net(batch), ref_full)
        assert np.array_equal(net(small), ref_small)
        assert np.array_equal(net(batch), ref_full)

    def test_avgpool_frozen_matches_eval(self):
        x = np.random.default_rng(8).random((2, 3, 6, 6))
        for kernel, stride, padding in [(3, 1, 1), (3, 2, 1), (2, 2, 0), (4, 1, 2)]:
            pool = AvgPool2d(kernel, stride=stride, padding=padding)
            reference = pool(x)
            pool.freeze()
            assert np.array_equal(pool(x), reference), (kernel, stride, padding)

    def test_pickle_and_deepcopy_drop_the_arena(self, net, batch):
        net.freeze()
        net(np.random.default_rng(16).random((64, 3, 8, 8)))  # grows the pool
        assert net._pool.nbytes > 0 and net._pool._plans
        for clone in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            planned = [m for m in clone.modules() if m._lower is not None]
            assert planned and all(m._pool is clone._pool for m in planned)
            assert clone._pool is not net._pool
            assert clone._pool.nbytes == 0 and not clone._pool._plans
            assert np.array_equal(clone(batch), net(batch))

    def test_maxpool_frozen_is_bit_exact(self):
        x = np.random.default_rng(9).random((2, 3, 6, 6))
        pool = MaxPool2d(2)
        reference = pool(x)
        pool.freeze()
        assert np.array_equal(pool(x), reference)


class TestNetworkClassifierFastPath:
    def test_frozen_classifier_decision_identical(self):
        plain = tiny_network_classifier()
        frozen = tiny_network_classifier(frozen=True)
        rng = np.random.default_rng(10)
        for _ in range(10):
            image = rng.random((8, 8, 3))
            assert np.array_equal(plain(image), frozen(image))

    def test_float32_frozen_decisions_match(self):
        plain = tiny_network_classifier()
        fast = tiny_network_classifier(frozen=True, dtype=np.float32)
        rng = np.random.default_rng(11)
        images = rng.random((12, 8, 8, 3))
        a = plain.batch(images)
        b = fast.batch(images)
        assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))
        assert np.allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_freeze_and_unfreeze_methods(self):
        classifier = tiny_network_classifier()
        image = np.random.default_rng(12).random((8, 8, 3))
        reference = classifier(image)
        assert not classifier.frozen
        classifier.freeze()
        assert classifier.frozen
        classifier.unfreeze()
        assert not classifier.frozen
        assert np.array_equal(classifier(image), reference)


class TestRegistryModels:
    def _check(self, arch: str):
        rng = np.random.default_rng(0)
        model = build_model(arch, num_classes=10, seed=0)
        model.train()
        model(rng.normal(0.45, 0.25, size=(8, 3, 16, 16)))
        model.eval()
        batch = rng.random((4, 3, 16, 16))
        reference = model(batch)
        model.freeze()
        assert np.array_equal(model(batch), reference), arch
        model.unfreeze()
        assert np.array_equal(model(batch), reference), arch

    def test_vgg16bn_fast_path(self):
        self._check("vgg16bn")

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "arch", ["resnet18", "resnet50", "googlenet", "densenet121"]
    )
    def test_remaining_architectures(self, arch):
        self._check(arch)


def _warmed_model(arch: str, size: int):
    rng = np.random.default_rng(0)
    model = build_model(arch, num_classes=10, seed=0)
    model.train()
    model(rng.normal(0.45, 0.25, size=(8, 3, size, size)))
    return model.eval()


class TestFrozenFloat64IsEval:
    """The exactness contract over every zoo architecture: a frozen
    float64 classifier's scores equal the eval path's bit for bit,
    scalar and batched.  Batch sizes alternate, so the one arena of the
    frozen model regrows and is reused between forwards."""

    def _check(self, arch: str, size: int):
        model = _warmed_model(arch, size)
        plain = NetworkClassifier(copy.deepcopy(model))
        frozen = NetworkClassifier(model, freeze=True)

        @settings(max_examples=4, deadline=None)
        @given(
            st.lists(st.integers(1, 12), min_size=2, max_size=4),
            st.integers(0, 2**31 - 1),
        )
        def scores_are_eval_bits(batch_sizes, seed):
            rng = np.random.default_rng(seed)
            for batch_size in batch_sizes:
                images = rng.random((batch_size, size, size, 3))
                assert np.array_equal(frozen.batch(images), plain.batch(images))
                for image in images[:3]:
                    assert np.array_equal(frozen(image), plain(image))

        scores_are_eval_bits()

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_8x8(self, arch):
        self._check(arch, 8)

    @pytest.mark.slow
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_16x16(self, arch):
        self._check(arch, 16)

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_non_square_between_growing_and_shrinking_batches(self, arch):
        # 12x8 (rows x columns): every architecture's strides accept it
        model = _warmed_model(arch, 8)
        plain = copy.deepcopy(model)
        model.freeze()
        rng = np.random.default_rng(1)
        for batch_size in (1, 3, 1, 9, 2, 1, 16, 1):
            x = rng.random((batch_size, 3, 12, 8))
            assert np.array_equal(model(x), plain(x)), (arch, batch_size)
            assert np.array_equal(model(x[:1]), plain(x[:1])), (arch, batch_size)

    @pytest.mark.parametrize(
        "arch, pick",
        [
            ("vgg16bn", lambda model: model.features),
            ("googlenet", lambda model: model.features),
            ("googlenet", lambda model: _first(model, Concat)),
            ("resnet18", lambda model: _first(model, Residual)),
            ("resnet50", lambda model: _first(model, Residual)),
            ("densenet121", lambda model: model.features),
        ],
        ids=["vgg-features", "googlenet-features", "inception", "basic-block",
             "bottleneck", "densenet-features"],
    )
    def test_frozen_submodule_called_on_its_own(self, arch, pick):
        model = _warmed_model(arch, 8)
        plain = pick(copy.deepcopy(model))
        part = pick(model)
        model.freeze()
        rng = np.random.default_rng(2)
        x = rng.random((4, 3, 8, 8))
        if not isinstance(part, Sequential):  # a block: feed it its input
            stem = model.features[0]
            x = stem(x)
        for batch in (x, x[:1], x):
            assert np.array_equal(part(batch), plain(batch))


def _first(model, kind):
    return next(m for m in model.modules() if isinstance(m, kind))


class _Widen(Module):
    """No plan rule: its input with its body's output appended."""

    def __init__(self, body: Module):
        super().__init__()
        self.body = body

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([x, self.body(x)], axis=1)


def _nested_net(seed: int = 23) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        _Widen(Sequential(BatchNorm2d(4), ReLU(), Conv2d(4, 2, 3, padding=1, rng=rng))),
        _Widen(BatchNorm2d(6)),
        GlobalAvgPool2d(),
        Linear(12, 5, rng=rng),
    )


class TestPlans:
    """What the plan contract adds: modules without a rule run opaque,
    and nothing that changes the weights leaves a stale plan behind."""

    def test_modules_without_a_rule_run_opaque(self, batch):
        rng = np.random.default_rng(17)
        model = _warmed(Sequential(
            Conv2d(3, 4, 3, padding=1, rng=rng),
            BatchNorm2d(4),
            LeakyReLU(0.1),
            Dropout(0.5, seed=1),
            Conv2d(4, 4, 3, stride=2, padding=1, rng=rng),
            Sigmoid(),
            Flatten(),
            Linear(4 * 4 * 4, 5, rng=rng),
            ReLU(),
        ))
        reference, scalar = model(batch), model(batch[:1])
        model.freeze()
        steps = [step.op for step in model.plan(batch).steps]
        assert steps.count("forward") == 4  # LeakyReLU, Dropout, Sigmoid, Flatten
        for _ in range(2):
            assert np.array_equal(model(batch), reference)
            assert np.array_equal(model(batch[:1]), scalar)

    def test_inputs_the_planner_does_not_take_run_eval(self, net):
        # a strided slice (memory with gaps) and a 3-D input run the
        # module's own forward: eval's computation, so eval's bits
        wide = np.random.default_rng(18).random((2, 3, 10, 12))
        sliced = wide[:, :, 1:9, 2:10]
        reference = net(sliced)
        relu = ReLU()
        cube = np.random.default_rng(19).normal(size=(2, 3, 4))
        net.freeze()
        relu.freeze()
        assert np.array_equal(net(sliced), reference)
        assert "not planned" in str(net.plan(sliced))
        assert np.array_equal(relu(cube), np.maximum(cube, 0.0))

    def test_unplanned_float32_inputs_run_eval_unfolded(self, net):
        # the fold lives in the plan: a gapped input runs the tree's own
        # forward, each layer through its own plan, so nothing is folded
        wide = np.random.default_rng(22).random((2, 3, 10, 12)).astype(np.float32)
        net.astype(np.float32)
        frozen = copy.deepcopy(net).freeze()
        assert _norm_steps(frozen.plan(wide[:, :, 1:9, 2:10].copy())) == set()
        for x in (wide[:, :, 1:9, 2:10], np.flip(wide, axis=3)):
            reference = net(x)
            scores = frozen(x)
            assert "not planned" in str(frozen.plan(x))
            assert np.allclose(scores, reference, rtol=1e-4, atol=1e-5)
            assert np.array_equal(scores.argmax(axis=1), reference.argmax(axis=1))

    def test_a_planned_module_called_from_an_opaque_step_runs_its_own_plan(
        self, batch
    ):
        # a plan never runs inside a plan: a module without a rule over
        # planned children makes its tree run its modules' own forwards
        model = _warmed(_nested_net())
        plain = copy.deepcopy(model)
        model.freeze()
        for x in (batch, batch[:1], batch):
            assert np.array_equal(model(x), plain(x))
        assert "not planned" in str(model.plan(batch))
        assert "not planned" not in str(model[3].body.plan(np.zeros((1, 4, 8, 8))))

    @pytest.mark.parametrize(
        "pick",
        [
            lambda model: model[0],
            lambda model: model[1],
            lambda model: model[3].body[0],
            lambda model: model[4].body,
        ],
        ids=["conv", "batch-norm", "inside-an-opaque-step", "called-by-an-opaque-step"],
    )
    def test_an_unfrozen_part_runs_its_own_forward(self, batch, pick):
        # the tree falls back to its modules' own forwards: the unfrozen
        # part trains (running statistics, backward cache) on the call's
        # input alone, and no probe forward runs it on anything else
        model = _warmed(_nested_net())
        plain = copy.deepcopy(model)
        model.freeze()
        model(batch)
        pick(model).train()
        pick(plain).train()
        assert np.array_equal(model(batch), plain(batch))
        assert pick(model)._cache is not None
        state, expected = model.state_dict(), plain.state_dict()
        assert all(np.array_equal(state[name], expected[name]) for name in expected)

    @pytest.mark.parametrize("arch", ["vgg16bn", "densenet121"])
    def test_a_dropped_model_frees_its_arenas_at_once(self, arch):
        # nothing in a pool or a plan refers back to the model, so its
        # arena goes with it, not whenever the cycle collector next runs
        # (a benchmark that builds one model per setup round pinned one
        # arena each)
        model = build_model(arch, num_classes=10, seed=0).freeze()
        model(np.random.default_rng(20).random((8, 3, 8, 8)))
        assert model.head._pool is model.features._pool
        arena = weakref.ref(model.features._pool._arena)
        assert arena().nbytes > 0
        gc.disable()
        try:
            del model
            assert arena() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_every_zoo_model_plans_flat(self, arch, dtype):
        # an opaque module over a planned one makes its tree fall back:
        # no zoo model may ever take that path silently
        model = build_model(arch, num_classes=10, seed=0).astype(dtype).freeze()
        x = np.random.default_rng(27).random((2, 3, 8, 8)).astype(dtype)
        for part, inputs in ((model.features, x), (model.head, model.features(x))):
            plan = part.plan(inputs)
            assert isinstance(plan, Plan), (arch, str(plan))
            assert not any(step.op == "forward" for step in plan.steps), arch

    def test_plans_are_bounded_and_rebuilt_after_the_pool_grows(self, net):
        rng = np.random.default_rng(21)
        net.freeze()
        one = rng.random((1, 3, 8, 8))
        scalar = net.plan(one)
        assert net.plan(one) is scalar
        net(rng.random((16, 3, 8, 8)))  # grows the arena: plans are dropped
        assert net.plan(one) is not scalar
        net(rng.random((MAX_PLANS + 8, 3, 8, 8)))  # the arena's final size
        for size in range(1, MAX_PLANS + 9):
            net(rng.random((size, 3, 8, 8)))
        (plans,) = [entry[1] for entry in net._pool._plans.values() if entry[0]() is net]
        assert len(plans) == MAX_PLANS

    def test_plan_names_every_step(self, net, batch):
        net.freeze()
        text = str(net.plan(batch))
        for name in ("layer0", "layer1", "layer2", "layer3", "layer7", "layer8"):
            assert name in text
        assert "gather" in text and "gemm" in text and "relu" in text

    def test_load_state_dict_leaves_no_stale_plan(self, net, batch):
        head = Sequential(net)  # an outer module sharing net's pool
        head.freeze()
        stale = head(batch)
        donor = _warmed(_conv_bn_net(seed=11), seed=12)
        net.load_state_dict(donor.state_dict())  # re-freezes the inner model
        assert np.array_equal(net(batch), donor(batch))
        assert np.array_equal(head(batch), donor(batch))  # the outer replans
        assert not np.array_equal(head(batch), stale)

    def test_a_new_part_leaves_no_stale_plan(self, net, batch):
        plain = copy.deepcopy(net)
        net.freeze()
        net(batch)
        for model in (net, plain):
            model.append(ReLU())  # unfrozen: the tree runs its forwards
            model[4].weight = Parameter(model[4].weight.data * 0.5)
        assert np.array_equal(net(batch), plain(batch))
        net.freeze()
        assert "not planned" not in str(net.plan(batch))
        assert np.array_equal(net(batch), plain(batch))

    def test_new_running_statistics_leave_no_stale_plan(self, net, batch):
        # a plan holds the batch norms' eval scale and shift: assigning a
        # running statistic drops it, at every cached input shape alike
        plain = copy.deepcopy(net)
        net.freeze()
        net(batch)
        net(batch[:1])
        for model in (net, plain):
            model[1].running_mean = model[1].running_mean + 0.5
        for x in (batch[:1], batch[:2], batch):
            assert np.array_equal(net(x), plain(x))

    def test_astype_leaves_no_stale_plan(self, net, batch):
        reference = net(batch)
        net.freeze()
        net(batch)
        net.astype(np.float32)
        folded = net(batch.astype(np.float32))
        assert folded.dtype == np.float32
        assert np.allclose(folded, reference, rtol=1e-4, atol=1e-5)
        net.astype(np.float64)  # the weights keep float32's rounding
        assert np.array_equal(net(batch), copy.deepcopy(net).unfreeze()(batch))


class TestBatchNormPrecision:
    def test_momentum_zero_supported_under_freeze(self):
        # the freeze path relies on stats staying put; momentum=0 is the
        # standard way to pin them (regression for the momentum>0 check)
        bn = BatchNorm2d(2, momentum=0.0)
        bn.eval()
        x = np.random.default_rng(13).random((2, 2, 4, 4))
        reference = bn(x)
        bn.freeze()
        assert np.array_equal(bn(x), reference)

    def test_eval_float32_fold_computed_in_float64(self):
        # harsh statistics: large mean, tiny variance.  Downcasting the
        # scale/shift intermediates to float32 before the multiply-add
        # (the old eval path) loses ~all significant digits of the
        # output; folding in float64 and casting only the result keeps
        # the error at float32 epsilon scale.
        bn = BatchNorm2d(1)
        bn.running_mean = np.array([1000.0])
        bn.running_var = np.array([1e-3])
        bn.gamma.data = np.array([0.1])
        bn.beta.data = np.array([0.5])
        bn.eval()
        x64 = 1000.0 + np.random.default_rng(14).normal(
            0.0, 0.05, size=(4, 1, 3, 3)
        )
        reference = bn(x64)
        bn.gamma.data = bn.gamma.data.astype(np.float32)
        bn.beta.data = bn.beta.data.astype(np.float32)
        out32 = bn(x64.astype(np.float32))
        assert out32.dtype == np.float32
        # float32 x loses ~6e-5 of the 1000-scale input; the fold itself
        # must not add error beyond that input quantization
        assert np.allclose(out32, reference, rtol=1e-3, atol=2e-2)

    def test_eval_matches_train_normalization_within_bias_bound(self):
        # momentum=1.0 makes the running stats exactly the last batch's
        # moments (with the unbiased-variance correction), so eval and
        # train outputs on that batch may differ only by the
        # count/(count-1) variance factor -- a bounded, known divergence
        rng = np.random.default_rng(15)
        bn = BatchNorm2d(3, momentum=1.0)
        bn.gamma.data = rng.normal(1.0, 0.2, size=3)
        bn.beta.data = rng.normal(0.0, 0.2, size=3)
        x = rng.normal(2.0, 1.5, size=(8, 3, 4, 4))
        bn.train()
        out_train = bn(x)
        bn.eval()
        out_eval = bn(x)
        count = x.shape[0] * x.shape[2] * x.shape[3]
        bound = abs(np.sqrt(count / (count - 1)) - 1.0) + 1e-9
        scale = np.abs(out_train - bn.beta.data[None, :, None, None])
        assert np.all(np.abs(out_eval - out_train) <= bound * scale + 1e-9)
