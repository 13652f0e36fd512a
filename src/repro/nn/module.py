"""Base classes for the numpy neural-network framework.

A :class:`Module` is a node in a tree of layers.  Child modules and
parameters are discovered by attribute inspection (registered at
``__setattr__`` time), which keeps layer definitions declarative::

    class Block(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(3, 16, 3, padding=1)
            self.bn = BatchNorm2d(16)

Every module implements ``forward`` (caching whatever ``backward`` needs on
``self``) and ``backward`` (consuming the cache, accumulating parameter
gradients, and returning the gradient with respect to its input).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.plan import PlanPool


class Parameter:
    """A trainable tensor: a value array plus an accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and models."""

    #: Attributes holding what ``backward`` reads from the last forward.
    #: Freezing drops them: a frozen model has no backward, and a stale
    #: cache would pin (and pickle) the last eval batch's intermediates.
    _backward_cache: Tuple[str, ...] = ("_cache",)
    #: The plan rule, ``_lower(planner, x) -> value``, of a class whose
    #: frozen forward the planner lowers (:mod:`repro.nn.plan`); a class
    #: without one runs as one opaque step of its parent's plan.
    _lower = None
    #: The frozen model's :class:`~repro.nn.plan.PlanPool`, on modules
    #: with a plan rule while frozen; ``None`` otherwise.
    _pool = None

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True
        self.inference = False

    # -- registration ------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
            self._replan()
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
            self._replan()
        elif name in getattr(self, "_buffer_names", ()):
            self._replan()
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module that is not a plain attribute.

        Containers holding modules in lists use this so traversal still
        finds every child.
        """
        self._modules[name] = module
        object.__setattr__(self, name, module)
        self._replan()

    def _replan(self) -> None:
        # a frozen tree's plans hold its parameters, buffers and children
        # as they were: a new one drops them (an unfrozen child then runs
        # its own forward)
        if self._pool is not None:
            self._pool.clear()

    # -- traversal ---------------------------------------------------------

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant, depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for module in self.modules():
            params.extend(module._parameters.values())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield persistent non-trainable state (e.g. batch-norm statistics)."""
        for name in getattr(self, "_buffer_names", ()):
            yield (f"{prefix}{name}", getattr(self, name))
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    # -- mode switching ----------------------------------------------------

    def train(self) -> "Module":
        self.unfreeze()  # training always leaves inference mode first
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def freeze(self) -> "Module":
        """Switch the model to the inference fast path.

        Freezing implies :meth:`eval` and additionally:

        - every layer drops its backward cache, and its forward skips
          building one (the arrays ``backward`` would need are simply
          never stored);
        - calling a frozen module that has a plan rule runs its *plan*
          (:mod:`repro.nn.plan`): on the first call at an input shape
          the module tree is lowered once to a flat list of numpy calls
          over views of one grow-only pool that this call creates for
          the whole model -- channels-last activations, one gather and
          one GEMM per convolution, batch norms and ReLUs written in
          place into the next layer's zero-bordered input.  Below
          float64 the plan also folds each batch norm into the
          convolution whose output only it reads.

        A frozen float64 model computes eval's scores bit for bit; a
        folded one (float32) is decision-identical to eval.  Freezing
        keeps no per-layer state: the fold lives in the plan, parameters
        are never mutated, and :meth:`unfreeze` (or :meth:`train`, which
        unfreezes implicitly) restores exact training behaviour.
        Idempotent; re-freezing drops every plan.  ``backward`` is
        unavailable while frozen, and the shared pool makes a frozen
        model one-forward-at-a-time.  A frozen module's ``forward`` is
        eval's computation without backward caches; only calling it
        runs the plan.  Inputs the plan does not take (memory with gaps,
        other ranks), a tree with a part unfrozen since and a tree with
        a planned module under one without a rule run ``forward``
        instead, whose planned children run their own plans (a
        convolution and a batch norm split between two plans are not
        folded).  Assigning a parameter, a buffer (a batch
        norm's running statistic) or a child module drops the plans; an
        array swapped into ``param.data`` needs a re-freeze
        (:meth:`load_state_dict` and :meth:`astype` re-freeze).
        """
        self.unfreeze()  # drop an earlier freeze's plans
        self.eval()
        pool = PlanPool()
        for module in self.modules():
            module.inference = True
            for name in module._backward_cache:
                if getattr(module, name, None) is not None:
                    setattr(module, name, None)
            if module._lower is not None:
                module._pool = pool
        return self

    def unfreeze(self) -> "Module":
        """Leave the inference fast path (stays in eval mode).

        Also empties the pool this subtree was frozen with, so a module
        above it that shares the pool replans with the current weights.
        """
        for module in self.modules():
            if module._pool is not None:
                module._pool.clear()
                module._pool = None
            module.inference = False
        return self

    @property
    def frozen(self) -> bool:
        return self.inference

    def plan(self, x: np.ndarray):
        """The plan a frozen call of this module runs on inputs shaped
        like ``x`` (``print`` it to list its steps)."""
        if self._pool is None:
            raise RuntimeError(
                f"{type(self).__name__} runs no plan: freeze a module with a plan rule"
            )
        return self._pool.plan(self, x)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._pool is not None:
            return self._pool.plan(self, x)(x)
        return self.forward(x)

    # -- state dict --------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data for name, param in self.named_parameters()}
        state.update({name: buf for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = {name: None for name, _ in self.named_buffers()}
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own_params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value
        self._load_buffers(state, prefix="")
        if self.inference:
            self.freeze()  # drop plans built from the old arrays

    def _load_buffers(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name in getattr(self, "_buffer_names", ()):
            key = f"{prefix}{name}"
            value = np.asarray(state[key], dtype=np.float64)
            object.__setattr__(self, name, value)
        for child_name, child in self._modules.items():
            child._load_buffers(state, prefix=f"{prefix}{child_name}.")

    def astype(self, dtype) -> "Module":
        """Cast all parameters and buffers in place (e.g. to float32).

        Intended for inference: float32 roughly halves matmul time on
        CPU.  Gradients are re-allocated in the new dtype, so training
        afterwards works but at the reduced precision.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
            param.grad = param.grad.astype(dtype)
        for module in self.modules():
            for name in getattr(module, "_buffer_names", ()):
                object.__setattr__(
                    module, name, getattr(module, name).astype(dtype)
                )
        if self.inference:
            self.freeze()  # drop plans built from the old arrays
        return self

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.num_parameters()})"
