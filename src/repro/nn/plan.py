"""Planned frozen forwards.

A frozen module with a plan rule (a ``_lower`` method) does not run its
layers one forward at a time.  On its first frozen call at an input
(shape, strides, dtype), a :class:`Planner` walks the module tree once
and lowers it to a :class:`Plan`: a flat list of numpy calls over views
of the model's one grow-only :class:`PlanPool`.  Every call is one of
eval's operations on eval's operands, so a frozen float64 model scores
eval's bits.

- **Layout.**  Activations are stored channels-last: a *canvas*
  ``(N, H + 2B, W + 2B, C)`` whose zero border ``B`` is the widest
  padding any consumer gathers with.  A convolution is three steps: one
  ``take`` of :func:`~repro.nn.functional.gather_index` into a column
  scratch (a 1x1, stride-1, unpadded one reads its unbordered input
  canvas as the matrix), one GEMM, and an in-place epilogue -- bias,
  then batch norm's float64 scale and then its shift, then ReLU -- that
  writes straight into the next consumer's canvas.  Batch norms and
  ReLUs are epilogues of the step before them; a max pool writes the
  maxima of strided views; a concatenation's branches write into their
  own channel slices of one output; a residual adds its two inputs into
  its output.
- **The fold.**  Below float64, a batch norm that alone reads a
  convolution's output is folded into that convolution's weight and
  bias (float64 products, cast back), so the plan has no ``scale`` or
  ``shift`` step for it.  The fold reassociates the arithmetic, so a
  float64 plan never folds.  It lives only in the plan: no layer keeps
  frozen state.
- **Reductions.**  numpy reduces in memory order, so every value carries
  the memory order eval's array would have (``perm``), and a global
  average pool reads its input in that order: contiguous NCHW after a
  max pool, channels-last after a convolution (a concatenation's or a
  sum's order is what numpy gives, probed on small arrays).  Where the
  stored order differs, the plan copies first.
- **Opaque steps.**  A module without a rule runs as one step: its own
  ``forward`` on an NCHW view in eval's memory order, its output copied
  into the plan.  If its subtree holds a module with a rule, its
  ``forward`` would run a plan inside this one, over the same arena, so
  the tree is not planned.  Such a tree, an input with gaps or of
  another rank, and a tree with an unfrozen part run the module's own
  ``forward`` instead: eval's computation, whose planned children run
  their own plans one at a time (a convolution and a batch norm that
  end up in different plans are not folded).
- **Memory.**  Buffers are shared by liveness: each is placed in the
  arena at the lowest offset no buffer alive at the same step holds, so
  a plan needs about its busiest step's bytes.  A plan holds only views
  into the arena; growing the arena drops every plan.  Nothing in a pool
  or a plan refers back to the model (weak references only), so a
  dropped model frees its arena at once.  The pool is never pickled or
  deep-copied, and a frozen model is one-forward-at-a-time.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.functional import conv_output_size, gather_index

NCHW = (0, 1, 2, 3)
NHWC = (0, 2, 3, 1)
ROWS = (0, 1)
#: Byte alignment of every buffer in an arena.
ALIGN = 64
#: Plans kept per module (one per input shape).
MAX_PLANS = 32


@functools.lru_cache(maxsize=None)
def _inverse(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _dense_perm(array: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The axes of ``array`` from outermost to innermost in memory, or
    ``None`` when its memory has gaps (a strided slice)."""
    perm = tuple(sorted(range(array.ndim), key=lambda axis: -abs(array.strides[axis])))
    expected = array.itemsize
    for axis in reversed(perm):
        if array.shape[axis] != 1 and array.strides[axis] != expected:
            return None
        expected *= array.shape[axis]
    return perm


def _dummy(shape, perm, dtype=np.float64) -> np.ndarray:
    """A small array laid out in ``perm`` with ``shape``'s unit axes."""
    small = tuple(min(size, 2) for size in shape)
    return np.empty([small[axis] for axis in perm], dtype).transpose(_inverse(perm))


class _Buffer:
    """One allocation in an arena, alive from step ``first`` to ``last``."""

    __slots__ = ("shape", "dtype", "nbytes", "border", "first", "last", "offset", "array")

    def __init__(self, shape, dtype, border: int = 0):
        self.shape = tuple(int(size) for size in shape)
        self.dtype = np.dtype(dtype)
        self.nbytes = math.prod(self.shape) * self.dtype.itemsize
        self.border = border
        self.first = self.last = None
        self.offset = 0
        self.array = None

    def use(self, position: int) -> None:
        if self.first is None:
            self.first = position
        self.last = position


class _Value:
    """An activation of the lowered graph: its eval shape, dtype and
    memory order, and (once placed) where the plan stores it."""

    __slots__ = ("shape", "dtype", "perm", "output", "buffer", "layout", "border",
                 "channel")

    def __init__(self, shape, dtype, perm):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.perm = perm
        self.output = False
        self.buffer: Optional[_Buffer] = None
        self.layout = perm
        self.border = 0
        self.channel = 0

    def place(self, layout, border: int = 0) -> None:
        shape = list(self.shape)
        if len(shape) == 4:
            shape[2] += 2 * border
            shape[3] += 2 * border
        self.buffer = _Buffer([shape[axis] for axis in layout], self.dtype, border)
        self.layout, self.border = layout, border

    def alias(self, target: "_Value", channel: int) -> None:
        """Store this value as channels ``channel:`` of ``target``."""
        self.buffer, self.layout, self.border = target.buffer, target.layout, target.border
        self.channel = target.channel + channel

    @property
    def full(self) -> bool:
        """Whether the value owns every channel of its buffer."""
        return self.channel == 0 and self.buffer.shape[self.layout.index(1)] == self.shape[1]

    @property
    def plain(self) -> bool:
        """Whether the value is its buffer: channels-last, unbordered."""
        return self.layout == NHWC and self.border == 0 and self.full

    @property
    def evaluated(self) -> bool:
        """Whether the stored memory order is eval's, without gaps."""
        return self.layout == self.perm and self.border == 0 and self.full

    def nchw(self) -> np.ndarray:
        array = self.buffer.array.transpose(_inverse(self.layout))
        if array.ndim == 2:
            return array
        _, channels, height, width = self.shape
        b, c = self.border, self.channel
        return array[:, c : c + channels, b : b + height, b : b + width]

    def act(self) -> np.ndarray:
        """The values in the axis order epilogues use: NHWC (or 2-D)."""
        array = self.nchw()
        return array.transpose(0, 2, 3, 1) if array.ndim == 4 else array


class _Node:
    __slots__ = ("op", "module", "inputs", "output", "params", "epilogue")

    def __init__(self, op, module, inputs, params):
        self.op = op
        self.module = module
        self.inputs = inputs
        self.output: Optional[_Value] = None
        self.params = params
        self.epilogue: List[_Node] = []  # fused batch norms and ReLUs

    @property
    def gathers(self) -> bool:
        """Whether this node gathers windows out of its input canvas."""
        if self.op == "avgpool":
            return True
        p = self.params
        return self.op == "conv" and (p["kernel"], p["stride"], p["padding"]) != (1, 1, 0)


class _Ref:
    """A view that exists once the plan's buffers are bound."""

    __slots__ = ("buffer", "get")

    def __init__(self, buffer: _Buffer, get):
        self.buffer, self.get = buffer, get


def _ref(value: _Value, form: str = "act") -> _Ref:
    return _Ref(value.buffer, getattr(value, form))


def _scratch_ref(buffer: _Buffer, shape) -> _Ref:
    return _Ref(buffer, lambda: buffer.array.reshape(shape))


class Step:
    """One call of a plan, named after the module it came from."""

    __slots__ = ("module", "kind", "op", "call")

    def __init__(self, module: str, kind: str, op: str, call):
        self.module, self.kind, self.op, self.call = module, kind, op, call


class Plan:
    """A frozen module's forward at one input shape: a flat step list.

    Calling it copies the input into its first buffer, runs every step
    and copies the result out into a fresh array in eval's memory order.
    ``str(plan)`` lists the steps with the module each came from.
    """

    __slots__ = ("steps", "nbytes", "_prologue", "_calls", "_entry", "_exit",
                 "_exit_shape", "_exit_axes")

    def __init__(self, steps, prologue, entry, exit_value: _Value, nbytes):
        self.steps: List[Step] = steps
        self.nbytes = nbytes
        self._prologue = [step.call for step in prologue]
        self._calls = [step.call for step in steps]
        self._entry = entry
        self._exit = exit_value.nchw()
        perm = exit_value.perm
        self._exit_shape = tuple(exit_value.shape[axis] for axis in perm)
        self._exit_axes = _inverse(perm)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for call in self._prologue:
            call()
        np.copyto(self._entry, x)
        for call in self._calls:
            call()
        out = np.empty(self._exit_shape, self._exit.dtype).transpose(self._exit_axes)
        np.copyto(out, self._exit)
        return out

    def __str__(self) -> str:
        lines = [f"plan: {len(self.steps)} steps, {self.nbytes} arena bytes"]
        for index, step in enumerate(self.steps):
            lines.append(f"{index:4d}  {step.op:<7} {step.kind:<9} {step.module}")
        return "\n".join(lines)


class PlanPool:
    """One frozen model's arena and plans.

    The arena only grows; growing it drops every plan, and each is
    rebuilt on its next call.  :meth:`clear` drops everything.  A
    pickled or deep-copied pool comes back empty.
    """

    __slots__ = ("_arena", "_plans")

    def __init__(self):
        self._arena = np.empty(0, dtype=np.uint8)
        # id(module) -> (weak ref to the module, {input key: plan});
        # weak, so a dropped model frees its pool and arena at once
        self._plans: Dict[int, Tuple[weakref.ref, Dict]] = {}

    @property
    def nbytes(self) -> int:
        """Bytes the arena holds."""
        return self._arena.nbytes

    def clear(self) -> None:
        self._arena = np.empty(0, dtype=np.uint8)
        self._plans = {}

    def plan(self, module, x: np.ndarray):
        """The plan ``module`` runs for inputs shaped like ``x``."""
        key = (x.shape, x.strides, x.dtype)
        entry = self._plans.get(id(module))
        if entry is not None and entry[0]() is module:
            plan = entry[1].get(key)
            if plan is not None:
                return plan
        plan = Planner(self, module).build(x)
        entry = self._plans.get(id(module))
        if entry is None or entry[0]() is not module:
            entry = self._plans[id(module)] = (weakref.ref(module), {})
        if len(entry[1]) >= MAX_PLANS:
            del entry[1][next(iter(entry[1]))]
        entry[1][key] = plan
        return plan

    def _grow(self, nbytes: int) -> np.ndarray:
        if self._arena.nbytes < nbytes:
            self._arena = np.empty(nbytes, dtype=np.uint8)
            self._plans = {}
        return self._arena

    def __reduce__(self):
        return (PlanPool, ())

    def __deepcopy__(self, memo) -> "PlanPool":
        return PlanPool()


def _module_names(root) -> Dict[int, str]:
    names = {}

    def walk(module, prefix):
        names.setdefault(id(module), prefix or type(module).__name__)
        for name, child in module._modules.items():
            walk(child, f"{prefix}.{name}" if prefix else name)

    walk(root, "")
    return names


class Planner:
    """Lowers one module tree, at one input, to a :class:`Plan`.

    Layer rules (each planned class's ``_lower(planner, x)``) call the
    graph methods below (``conv``, ``affine``, ``relu``, ``maxpool``,
    ``avgpool``, ``global_avgpool``, ``linear``, ``concat``, ``add``) or
    :meth:`lower` for a child.  :meth:`build` then folds and fuses
    elementwise nodes into their producers, places every value, emits
    the steps, packs the buffers by liveness into the arena and binds
    the views.
    """

    def __init__(self, pool: PlanPool, root):
        self.pool, self.root = pool, root
        self.nodes: List[_Node] = []
        self.values: List[_Value] = []
        # kept here, not on the values, so the graph has no cycles and
        # is freed as soon as the plan is built
        self._producer: Dict[_Value, _Node] = {}
        self._consumers: Dict[_Value, List[_Node]] = {}
        self._names = _module_names(root)
        self._steps: List[tuple] = []
        self._prologue: List[tuple] = []
        self._opened = set()

    # -- building the graph (called by the layer rules) -----------------

    def lower(self, module, x: _Value) -> _Value:
        if module._lower is None:
            return self._opaque(module, x)
        return module._lower(self, x)

    def _node(self, op, module, inputs, shape, dtype, perm, **params) -> _Value:
        node = _Node(op, module, inputs, params)
        for value in inputs:
            self._consumers[value].append(node)
        self._add(node, _Value(shape, dtype, perm))
        return node.output

    def _add(self, node: _Node, value: _Value) -> None:
        node.output = value
        self._producer[value] = node
        self._consumers[value] = []
        self.nodes.append(node)
        self.values.append(value)

    def conv(self, module, x, weight, bias, kernel, stride, padding) -> _Value:
        n, _, h, w = x.shape
        shape = (
            n,
            weight.shape[0],
            conv_output_size(h, kernel, stride, padding),
            conv_output_size(w, kernel, stride, padding),
        )
        dtype = np.result_type(x.dtype, weight.dtype)
        return self._node("conv", module, [x], shape, dtype, NHWC, weight=weight,
                          bias=bias, kernel=kernel, stride=stride, padding=padding)

    def affine(self, module, x, scale, shift) -> _Value:
        """Batch norm in eval: ``x * scale``, then ``+= shift`` (float64
        per-channel vectors), cast back to ``x``'s dtype."""
        return self._node("affine", module, [x], x.shape, x.dtype, x.perm,
                          scale=scale, shift=shift)

    def relu(self, module, x) -> _Value:
        return self._node("relu", module, [x], x.shape, x.dtype, x.perm)

    def _pool(self, op, module, x, kernel, stride, padding) -> _Value:
        n, c, h, w = x.shape
        shape = (
            n,
            c,
            conv_output_size(h, kernel, stride, padding),
            conv_output_size(w, kernel, stride, padding),
        )
        # eval pools through im2col rows: fresh contiguous NCHW memory
        return self._node(op, module, [x], shape, x.dtype, NCHW,
                          kernel=kernel, stride=stride, padding=padding)

    def maxpool(self, module, x, kernel, stride, padding) -> _Value:
        return self._pool("maxpool", module, x, kernel, stride, padding)

    def avgpool(self, module, x, kernel, stride, padding) -> _Value:
        return self._pool("avgpool", module, x, kernel, stride, padding)

    def global_avgpool(self, module, x) -> _Value:
        if len(x.shape) != 4:
            raise ValueError(f"expected (N, C, H, W) input, got {x.shape}")
        return self._node("gap", module, [x], x.shape[:2], x.dtype, ROWS)

    def linear(self, module, x, weight, bias) -> _Value:
        dtype = np.result_type(x.dtype, weight.dtype)
        return self._node("linear", module, [x], (x.shape[0], weight.shape[0]),
                          dtype, ROWS, weight=weight, bias=bias)

    def concat(self, module, values) -> _Value:
        first = values[0].shape
        for value in values:
            if len(value.shape) != 4 or value.shape[:1] + value.shape[2:] != (
                first[:1] + first[2:]
            ):
                raise ValueError(
                    f"cannot concatenate {[v.shape for v in values]} on channels"
                )
        shape = (first[0], sum(value.shape[1] for value in values)) + first[2:]
        joined = np.concatenate(
            [_dummy(value.shape, value.perm) for value in values], axis=1
        )
        dtype = np.result_type(*[value.dtype for value in values])
        return self._node("concat", module, list(values), shape, dtype,
                          _dense_perm(joined))

    def add(self, module, a, b) -> _Value:
        total = _dummy(a.shape, a.perm) + _dummy(b.shape, b.perm)
        dtype = np.result_type(a.dtype, b.dtype)
        return self._node("add", module, [a, b], a.shape, dtype, _dense_perm(total))

    def _opaque(self, module, x) -> _Value:
        # a planned module under it would run its plan inside this one,
        # over the same arena
        if len(x.shape) not in (2, 4) or any(m._lower is not None for m in module.modules()):
            raise _Unplannable
        probe = np.zeros([x.shape[axis] for axis in x.perm], x.dtype)
        out = module.forward(probe.transpose(_inverse(x.perm)))
        if not isinstance(out, np.ndarray) or out.ndim not in (2, 4):
            raise _Unplannable
        perm = _dense_perm(out) or tuple(range(out.ndim))
        return self._node("opaque", module, [x], out.shape, out.dtype, perm)

    # -- lowering ---------------------------------------------------------

    def build(self, x: np.ndarray) -> Plan:
        perm = _dense_perm(x) if x.ndim in (2, 4) else None
        # a part unfrozen since (``layer.train()``) runs its own forward:
        # lowering it would skip its training forward and backward cache,
        # and probing it as an opaque step would train it on the probe
        if perm is None or not all(module.inference for module in self.root.modules()):
            return _Fallback(self.root)
        entry = _Node("input", None, [], {})
        self._add(entry, _Value(x.shape, x.dtype, perm))
        try:
            result = self.lower(self.root, entry.output)
        except _Unplannable:
            return _Fallback(self.root)
        result.output = True
        self._fuse()
        self._place()
        for node in self.nodes:
            getattr(self, f"_emit_{node.op}")(node)
        # lifetimes: the prologue and the input copy are position 0
        buffers = {entry.output.buffer: None}
        entry.output.buffer.use(0)
        positioned = [(0, step) for step in self._prologue] + [
            (index + 1, step) for index, step in enumerate(self._steps)
        ]
        for position, step in positioned:
            for ref in _refs(step):
                ref.buffer.use(position)
                buffers[ref.buffer] = None
        result.buffer.use(len(self._steps) + 1)
        buffers[result.buffer] = None
        nbytes = _pack(list(buffers))
        arena = self.pool._grow(nbytes)
        for buffer in buffers:
            end = buffer.offset + buffer.nbytes
            buffer.array = arena[buffer.offset : end].view(buffer.dtype).reshape(buffer.shape)
        return Plan(
            [self._bind(step) for step in self._steps],
            [self._bind(step) for step in self._prologue],
            entry.output.nchw(),
            result,
            nbytes,
        )

    def _fuse(self) -> None:
        """Fold each batch norm below float64 into the convolution whose
        output only it reads, and make every other batch norm and ReLU an
        epilogue of the step before it, unless another consumer still
        reads that step's output."""
        kept = []
        for node in self.nodes:
            if node.op in ("affine", "relu"):
                (source,) = node.inputs
                if len(self._consumers[source]) == 1 and not source.output:
                    owner = self._producer[source]
                    if not self._fold(owner, node):
                        owner.epilogue.append(node)
                    owner.output = node.output
                    self._producer[node.output] = owner
                    self.values.remove(source)
                    continue
            kept.append(node)
        self.nodes = kept

    @staticmethod
    def _fold(owner: _Node, node: _Node) -> bool:
        """Fold batch norm ``node`` into ``owner``'s weight and bias, if
        ``owner`` is a convolution with no epilogue yet and a weight that
        is not float64 (a fold reassociates eval's arithmetic)."""
        p = owner.params
        if node.op != "affine" or owner.op != "conv" or owner.epilogue:
            return False
        weight, bias = p["weight"], p["bias"]
        if weight.dtype == np.float64:
            return False
        scale, shift = node.params["scale"], node.params["shift"]
        p["weight"] = (weight.astype(np.float64) * scale[:, None, None, None]).astype(weight.dtype)
        if bias is not None:
            shift = shift + scale * bias.astype(np.float64)
        p["bias"] = shift.astype(weight.dtype)
        return True

    def _place(self) -> None:
        """Decide where each value lives, consumers first."""
        for value in reversed(self.values):
            if value.buffer is not None:
                continue
            consumers = self._consumers[value]
            if (
                not value.output
                and len(consumers) == 1
                and consumers[0].op == "concat"
                and consumers[0].inputs.count(value) == 1
                and consumers[0].output.dtype == value.dtype
            ):
                concat = consumers[0]
                index = concat.inputs.index(value)
                offset = sum(v.shape[1] for v in concat.inputs[:index])
                value.alias(concat.output, offset)
                continue
            if len(value.shape) == 2:
                value.place(value.perm)
                continue
            pads = [node.params["padding"] for node in consumers if node.gathers]
            if pads or any(node.op == "conv" for node in consumers):
                value.place(NHWC, max(pads, default=0))
            else:
                value.place(value.perm)

    # -- emission -----------------------------------------------------------

    def _emit(self, node, op, call, *args, writes: _Value = None, **kwargs) -> None:
        if writes is not None:
            self._open(writes.buffer, node)
        self._steps.append((node, op, call, args, kwargs))

    def _open(self, buffer: _Buffer, node) -> None:
        """Zero a bordered buffer before its first write of a forward
        (the arena's bytes held other buffers since)."""
        if buffer in self._opened:
            return
        self._opened.add(buffer)
        if buffer.border:
            fill = (node, "zero", _Ref(buffer, lambda: buffer.array.fill), (0,), {})
            (self._prologue if node.op == "input" else self._steps).append(fill)

    def _bind(self, step) -> Step:
        node, op, call, args, kwargs = step
        call, *args = [_resolve(item) for item in (call,) + args]
        kwargs = {key: _resolve(value) for key, value in kwargs.items()}
        module = node.module if node.module is not None else self.root
        name = self._names.get(id(module), type(module).__name__)
        return Step(name, type(module).__name__, op, functools.partial(call, *args, **kwargs))

    def _epilogue(self, node, source: Optional[_Ref], fused=None, private=True) -> None:
        """Run ``node``'s bias and fused batch norms/ReLUs (or ``fused``)
        on ``source``, a view in the epilogue axis order (``None`` when
        the output already holds the values).  A ``private`` source is
        scratch: the ops run in place on it, where it is contiguous, and
        only the last writes the output (a canvas interior, a channel
        slice).  Another value's storage is only read."""
        out = node.output
        target = _ref(out)
        bias = node.params.get("bias")
        ops = ([("bias", node)] if bias is not None else []) + [
            (owner.op, owner) for owner in (node.epilogue if fused is None else fused)
        ]
        current = target if source is None else source
        for index, (op, owner) in enumerate(ops):
            spare = current if private or current is target else target
            dest = target if index == len(ops) - 1 else spare
            writes = out if dest is target else None
            if op == "bias":
                self._emit(owner, "bias", np.add, current, bias, dest, writes=writes)
            elif op == "relu":
                self._emit(owner, "relu", np.maximum, current, 0.0, out=dest, writes=writes)
            else:
                scale = owner.params["scale"]
                shift = owner.params["shift"]
                wide = np.result_type(out.dtype, scale.dtype)
                if wide == out.dtype:
                    self._emit(owner, "scale", np.multiply, current, scale, spare,
                               writes=out if spare is target else None)
                    self._emit(owner, "shift", np.add, spare, shift, dest, writes=writes)
                else:  # eval's float64 multiply-add, then its cast back
                    tmp = _Buffer(_act_shape(out), wide)
                    wide_ref = _scratch_ref(tmp, _act_shape(out))
                    self._emit(owner, "scale", np.multiply, current, scale, wide_ref)
                    self._emit(owner, "shift", np.add, wide_ref, shift, wide_ref)
                    self._emit(owner, "cast", np.copyto, dest, wide_ref,
                               casting="unsafe", writes=writes)
            current = dest
        if current is not target:
            self._emit(node, "copy", np.copyto, target, current, writes=out)

    def _emit_affine(self, node) -> None:
        """A batch norm or ReLU whose input another consumer still reads."""
        (x,) = node.inputs
        self._epilogue(node, _ref(x), [node] + node.epilogue, private=False)

    _emit_relu = _emit_affine

    def _gemm(self, node, rows: _Ref, weight: np.ndarray) -> _Ref:
        """The plan's one GEMM: eval's ``rows @ weight.T`` over the whole
        batch, into the output when it is plain, else into scratch."""
        out = node.output
        n_rows = math.prod(out.shape) // weight.shape[0]
        if out.plain or len(out.shape) == 2:
            target = _Ref(out.buffer, lambda: out.buffer.array.reshape(n_rows, -1))
            self._emit(node, "gemm", np.matmul, rows, weight.T, target, writes=out)
            return None
        scratch = _Buffer((n_rows, weight.shape[0]), out.dtype)
        target = _scratch_ref(scratch, (n_rows, weight.shape[0]))
        self._emit(node, "gemm", np.matmul, rows, weight.T, target)
        return _scratch_ref(scratch, _act_shape(out))

    def _emit_input(self, node) -> None:
        out = node.output
        self._open(out.buffer, node)
        if node.epilogue:
            self._epilogue(node, None)

    def _emit_conv(self, node) -> None:
        (x,) = node.inputs
        p = node.params
        n, c, h, w = x.shape
        if not node.gathers and x.plain:
            rows = _Ref(x.buffer, lambda: x.buffer.array.reshape(-1, c))
        else:
            index = gather_index(c, h, w, p["kernel"], p["stride"], p["padding"], x.border)
            cols = _Buffer((n,) + index.shape, x.dtype)
            canvas = _Ref(x.buffer, lambda: x.buffer.array.reshape(n, -1).take)
            self._emit(node, "gather", canvas, index, axis=1,
                       out=_scratch_ref(cols, (n,) + index.shape), mode="clip")
            # "clip" never moves an in-range index; "raise" would buffer `out`
            rows = _scratch_ref(cols, (-1, index.shape[1]))
        weight = p["weight"]
        source = self._gemm(node, rows, weight.reshape(weight.shape[0], -1))
        self._epilogue(node, source)

    def _emit_linear(self, node) -> None:
        (x,) = node.inputs
        source = self._gemm(node, _ref(x, "nchw"), node.params["weight"])
        self._epilogue(node, source)

    def _padded(self, node, x: _Value, padding: int) -> Tuple[_Buffer, int]:
        """An NHWC buffer holding ``x`` inside a zero border of at least
        ``padding``, and that border's width: ``x``'s own canvas when it
        is wide enough, else a padded copy."""
        if x.layout == NHWC and x.border >= padding and x.full:
            return x.buffer, x.border
        n, c, h, w = x.shape
        pad = _Buffer((n, h + 2 * padding, w + 2 * padding, c), x.dtype, padding)
        self._open(pad, node)
        interior = _Ref(pad, lambda: pad.array[:, padding : padding + h, padding : padding + w])
        self._emit(node, "pad", np.copyto, interior, _ref(x))
        return pad, padding

    def _emit_maxpool(self, node) -> None:
        (x,) = node.inputs
        p = node.params
        k, s, padding = p["kernel"], p["stride"], p["padding"]
        _, _, oh, ow = node.output.shape
        if padding == 0:  # strided views of x as stored, in any layout
            canvas, top = _ref(x), 0
        else:
            buffer, border = self._padded(node, x, padding)
            canvas, top = _Ref(buffer, lambda: buffer.array), border - padding

        def window(ki, kj):
            rows, cols = top + ki, top + kj
            return _Ref(canvas.buffer, lambda: canvas.get()[
                :, rows : rows + s * oh : s, cols : cols + s * ow : s
            ])

        windows = [window(ki, kj) for ki in range(k) for kj in range(k)]
        out, target = node.output, _ref(node.output)
        if len(windows) == 1:
            self._emit(node, "max", np.copyto, target, windows[0], writes=out)
        else:
            self._emit(node, "max", np.maximum, windows[0], windows[1], out=target, writes=out)
        for window_ref in windows[2:]:
            self._emit(node, "max", np.maximum, target, window_ref, out=target)
        self._epilogue(node, None)

    def _emit_avgpool(self, node) -> None:
        (x,) = node.inputs
        p = node.params
        k, padding = p["kernel"], p["padding"]
        n, c, h, w = x.shape
        out = node.output
        canvas, border = self._padded(node, x, padding)
        index = gather_index(c, h, w, k, p["stride"], padding, border)
        cols = _Buffer((n,) + index.shape, x.dtype)
        self._emit(node, "gather", _Ref(canvas, lambda: canvas.array.reshape(n, -1).take),
                   index, axis=1, out=_scratch_ref(cols, (n,) + index.shape), mode="clip")
        # one window per row in eval's (ki, kj) order, rows channels-last
        windows = _scratch_ref(cols, (-1, k * k))
        if out.plain:
            means = _Ref(out.buffer, lambda: out.buffer.array.reshape(-1))
            self._mean(node, windows, 1, k * k, means, out)
            self._epilogue(node, None)
        else:
            scratch = _Buffer((math.prod(out.shape),), out.dtype)
            self._mean(node, windows, 1, k * k, _scratch_ref(scratch, (-1,)), None)
            self._epilogue(node, _scratch_ref(scratch, _act_shape(out)))

    def _mean(self, node, source, axis, count, target, writes) -> None:
        """numpy's ``mean``: eval's sum in memory order, then its division."""
        self._emit(node, "sum", np.add.reduce, source, axis=axis, out=target, writes=writes)
        self._emit(node, "divide", np.true_divide, target, np.intp(count), target,
                   casting="unsafe")

    def _evaluated(self, node, x: _Value) -> _Ref:
        """``x`` as an NCHW view in eval's memory order, copied if stored
        otherwise."""
        if x.evaluated:
            return _ref(x, "nchw")
        copy = _Buffer([x.shape[axis] for axis in x.perm], x.dtype)
        view = _Ref(copy, lambda: copy.array.transpose(_inverse(x.perm)))
        self._emit(node, "order", np.copyto, view, _ref(x, "nchw"))
        return view

    def _emit_gap(self, node) -> None:
        (x,) = node.inputs
        _, _, h, w = x.shape
        self._mean(node, self._evaluated(node, x), (2, 3), h * w,
                   _ref(node.output, "nchw"), node.output)
        self._epilogue(node, None)

    def _emit_concat(self, node) -> None:
        out = node.output
        offset = 0
        for value in node.inputs:
            if value.buffer is not out.buffer or value.channel != out.channel + offset:
                view = _Value(value.shape, out.dtype, value.perm)
                view.alias(out, offset)
                self._open(out.buffer, node)
                self._emit(node, "copy", np.copyto, _ref(view), _ref(value))
            offset += value.shape[1]
        self._epilogue(node, None)

    def _emit_add(self, node) -> None:
        a, b = node.inputs
        out = node.output
        self._emit(node, "add", np.add, _ref(a), _ref(b), _ref(out), writes=out)
        self._epilogue(node, None)

    def _emit_opaque(self, node) -> None:
        (x,) = node.inputs
        out = node.output
        self._emit(node, "forward", _run_opaque, weakref.ref(node.module),
                   self._evaluated(node, x), _ref(out, "nchw"), writes=out)
        self._epilogue(node, None)


def _act_shape(value: _Value) -> Tuple[int, ...]:
    """``value``'s shape in the epilogues' axis order."""
    if len(value.shape) == 4:
        return tuple(value.shape[axis] for axis in NHWC)
    return value.shape


def _refs(step):
    _, _, call, args, kwargs = step
    return [item for item in (call,) + args + tuple(kwargs.values()) if isinstance(item, _Ref)]


def _resolve(item):
    return item.get() if isinstance(item, _Ref) else item


def _pack(buffers: List[_Buffer]) -> int:
    """Offsets by liveness, biggest first, each at the lowest aligned
    offset that no buffer alive at the same time holds; returns the
    bytes the arena needs."""
    placed: List[_Buffer] = []
    total = 0
    for buffer in sorted(buffers, key=lambda b: (-b.nbytes, b.first)):
        busy = sorted(
            (other.offset, other.offset + other.nbytes)
            for other in placed
            if other.first <= buffer.last and buffer.first <= other.last
        )
        offset = 0
        for start, end in busy:
            if offset + buffer.nbytes <= start:
                break
            offset = max(offset, -(-end // ALIGN) * ALIGN)
        buffer.offset = offset
        placed.append(buffer)
        total = max(total, offset + buffer.nbytes)
    return total


def _run_opaque(module: weakref.ref, x: np.ndarray, out: np.ndarray) -> None:
    module = module()  # weak: a plan must not keep its model alive
    result = module.forward(x)
    if result.shape != out.shape:
        raise ValueError(
            f"{type(module).__name__} returned {result.shape}, planned {out.shape}"
        )
    np.copyto(out, result)


class _Unplannable(Exception):
    """The module tree has a value the plan cannot hold (not 2-D/4-D),
    or an opaque module with a planned module under it."""


class _Fallback:
    """The plan of an input the planner does not take (an array with
    gaps, or a value that is not 2-D or 4-D), of a module tree with an
    unfrozen part, or of one with a planned module under an opaque one:
    the module's own forward, eval's computation, whose planned children
    run their own plans."""

    __slots__ = ("module", "steps", "nbytes")

    def __init__(self, module):
        self.module, self.steps, self.nbytes = weakref.ref(module), [], 0

    def __call__(self, x):
        return self.module().forward(x)

    def __str__(self) -> str:
        return f"plan: {type(self.module()).__name__}.forward (not planned)"
