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

from repro.nn.functional import InferenceArena


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

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True
        self.inference = False

    # -- registration ------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module that is not a plain attribute.

        Containers holding modules in lists use this so traversal still
        finds every child.
        """
        self._modules[name] = module
        object.__setattr__(self, name, module)

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
        - convolutions build their column matrix by one gather, and
          they and the padded pools take their scratch from one
          grow-only :class:`~repro.nn.functional.InferenceArena` that
          this call creates for the whole model;
        - batch norm precomputes eval's scale and shift, and, for
          weights that are not float64, folds them ahead of time into a
          directly preceding convolution or linear layer (see
          :meth:`~repro.nn.layers.norm.BatchNorm2d.fold_into`).

        A frozen float64 model computes eval's scores bit for bit; a
        folded one (float32) is decision-identical to eval.  Trainable
        parameters are never mutated: folded weights live in side
        buffers, so :meth:`unfreeze` (or :meth:`train`, which unfreezes
        implicitly) restores exact training behaviour.  Idempotent;
        re-freezing recomputes the folds from the current parameters.
        ``backward`` is unavailable while frozen, and the shared arena
        makes a frozen model one-forward-at-a-time.
        """
        self.unfreeze()  # drop an earlier freeze's folds and arena
        self.eval()
        arena = InferenceArena()
        for module in self.modules():
            module.inference = True
            for name in module._backward_cache:
                if getattr(module, name, None) is not None:
                    setattr(module, name, None)
        for module in self.modules():
            module._freeze_hook(arena)
        return self

    def unfreeze(self) -> "Module":
        """Leave the inference fast path (stays in eval mode)."""
        for module in self.modules():
            if module.inference:
                module.inference = False
                module._unfreeze_hook()
        return self

    @property
    def frozen(self) -> bool:
        return self.inference

    def _freeze_hook(self, arena: InferenceArena) -> None:
        """Per-layer freeze-time preparation (folds, the model's arena)."""

    def _unfreeze_hook(self) -> None:
        """Discard per-layer frozen state."""

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
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
            self.freeze()  # refresh folded weights from the new state

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
            self.freeze()  # recompute folded weights in the new dtype
        return self

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.num_parameters()})"
