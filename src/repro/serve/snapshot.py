"""Frozen model snapshots: the train → serve hand-off artefact.

A :class:`ModelSnapshot` is everything online inference needs and
nothing it does not: the trained weights, the model's constructor config
(registry name, layer dims, dropout, init seed) and the sampler's config
— no optimizer state, no training history.  It captures from a live
model/engine, round-trips through one ``.npz`` file
(:func:`repro.autograd.serialize.save_payload`), and rebuilds a fresh
model/sampler pair anywhere — the serving process never needs the
training process's objects, only the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.module import Module
from repro.autograd.serialize import load_payload, save_payload
from repro.sampling import SAMPLER_REGISTRY, Sampler, make_sampler

__all__ = ["ModelSnapshot"]

#: payload format marker (bump on incompatible layout changes)
_FORMAT = 1

#: npz key prefix for weight arrays
_PARAM_PREFIX = "param/"


def _model_name(model: Module) -> str:
    """Reverse-lookup a model's registry name from its concrete type."""
    from repro.gnn.models import MODEL_REGISTRY  # lazy: gnn imports autograd

    for name, cls in MODEL_REGISTRY.items():
        if type(model) is cls:
            return name
    raise ValueError(
        f"cannot snapshot {type(model).__name__}: not a registered model "
        f"(known: {sorted(set(MODEL_REGISTRY))})"
    )


def _sampler_config(sampler: Sampler) -> tuple[str, dict]:
    """A sampler's registry name and reconstruction kwargs."""
    name = next(
        (n for n, cls in SAMPLER_REGISTRY.items() if type(sampler) is cls), None
    )
    if name is None:
        raise ValueError(
            f"cannot snapshot {type(sampler).__name__}: not a registered "
            f"sampler (known: {sorted(SAMPLER_REGISTRY)})"
        )
    config: dict = {"fanouts": [int(f) for f in sampler.fanouts]}
    if name == "shadow":
        config["num_layers"] = int(sampler.num_layers)
    return name, config


@dataclass
class ModelSnapshot:
    """Optimizer-free export of a trained (model, sampler) pair.

    Build with :meth:`capture` (or :meth:`from_engine`), persist with
    :meth:`save`/:meth:`load`, and rehydrate with :meth:`build_model` /
    :meth:`build_sampler`.  ``state`` holds the weights exactly as
    ``Module.state_dict`` produced them — dtypes and shapes round-trip
    bit-identically through the file.
    """

    model_name: str
    dims: list[int]
    dropout: float
    seed: int
    sampler_name: str
    sampler_config: dict
    state: dict = field(repr=False)
    dataset_name: str | None = None

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, model: Module, sampler: Sampler, *, dataset_name: str | None = None) -> "ModelSnapshot":
        """Freeze a live model + sampler into a snapshot (weights copied)."""
        sampler_name, sampler_config = _sampler_config(sampler)
        return cls(
            model_name=_model_name(model),
            dims=[int(d) for d in model.dims],
            dropout=float(model.dropout),
            seed=int(model.seed),
            sampler_name=sampler_name,
            sampler_config=sampler_config,
            state=model.state_dict(),
            dataset_name=dataset_name,
        )

    @classmethod
    def from_engine(cls, engine) -> "ModelSnapshot":
        """Capture a :class:`~repro.core.engine.MultiProcessEngine`'s
        model and sampler (the engine holds one model for all ranks)."""
        return cls.capture(
            engine.model, engine.sampler, dataset_name=engine.dataset.name
        )

    # ------------------------------------------------------------------
    def build_model(self) -> Module:
        """A fresh model instance loaded with the snapshot weights."""
        from repro.gnn.models import build_model  # lazy: gnn imports autograd

        model = build_model(
            self.model_name, list(self.dims), dropout=self.dropout, seed=self.seed
        )
        model.load_state_dict(self.state)
        return model

    def build_sampler(self) -> Sampler:
        return make_sampler(self.sampler_name, **self.sampler_config)

    @property
    def num_parameters(self) -> int:
        return int(sum(np.asarray(v).size for v in self.state.values()))

    @property
    def out_dim(self) -> int:
        """Width of one prediction row (the model's output layer)."""
        return int(self.dims[-1])

    # ------------------------------------------------------------------
    def save(self, path):
        """Write the snapshot to one ``.npz`` file; returns the path."""
        meta = {
            "format": _FORMAT,
            "model_name": self.model_name,
            "dims": list(self.dims),
            "dropout": self.dropout,
            "seed": self.seed,
            "sampler_name": self.sampler_name,
            "sampler_config": self.sampler_config,
            "dataset_name": self.dataset_name,
        }
        arrays = {f"{_PARAM_PREFIX}{k}": v for k, v in self.state.items()}
        return save_payload(path, arrays, meta)

    @classmethod
    def load(cls, path) -> "ModelSnapshot":
        """Inverse of :meth:`save`."""
        arrays, meta = load_payload(path)
        if meta.get("format") != _FORMAT:
            raise ValueError(
                f"unsupported snapshot format {meta.get('format')!r} "
                f"(this build reads format {_FORMAT})"
            )
        state = {
            k[len(_PARAM_PREFIX):]: v
            for k, v in arrays.items()
            if k.startswith(_PARAM_PREFIX)
        }
        return cls(
            model_name=meta["model_name"],
            dims=[int(d) for d in meta["dims"]],
            dropout=float(meta["dropout"]),
            seed=int(meta["seed"]),
            sampler_name=meta["sampler_name"],
            sampler_config=meta["sampler_config"],
            state=state,
            dataset_name=meta.get("dataset_name"),
        )
