"""Experiment configuration: key-value text files with CLI-flag overrides.

A config file holds one "key value" pair per line ('#' comments allowed).
Unknown keys are rejected. Flags given on the command line win over file
values. parse -> serialize -> parse is the identity; serializing refuses
a string with a '#', a line break or surrounding whitespace.
ExperimentConfig declares every field once: the CLI flags and the
enhancer and trainer settings are derived from its fields by name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .enhancer import EnhancerConfig
from .errors import ConfigError
from .splits import check_ratios
from .trainer import TrainConfig

MODES = ("gelato", "ac-only", "mlp-only", "cos-ac", "mlp-ac-two-stage",
         "heuristic:cn", "heuristic:aa", "heuristic:ra", "heuristic:cos")
# the modes with an MLP to train; the others evaluate directly
TRAINED_MODES = ("gelato", "mlp-only", "mlp-ac-two-stage")
# the trained modes that score training pairs with the MLP directly
DIRECT_MLP_MODES = ("mlp-only", "mlp-ac-two-stage")
# the modes that read no attributes
STRUCTURE_MODES = ("ac-only", "heuristic:cn", "heuristic:aa", "heuristic:ra")


@dataclass
class ExperimentConfig:
    # dataset
    edges: str = ""
    attributes: str = ""
    split: str = ""
    # split generation
    ratios: tuple = (0.85, 0.05, 0.10)
    split_seed: int = 0
    # enhancer
    eta: float = 0.0
    alpha: float = 0.0
    beta: float = 1.0
    self_loop_mode: str = "isolated-only"
    self_loop_weight: float = 1.0
    hidden: int = 128
    # trainer
    mode: str = "gelato"
    loss: str = "npair"
    regime: str = "unbiased"
    lr: float = 0.001
    epochs: int = 100
    batch_count: int = 10
    neg_cap: int = 0
    dropout: float = 0.5
    t: int = 3
    seed: int = 1
    # evaluation
    phase: str = "test"
    prec: tuple = (0.25, 0.5, 1.0)
    hits: tuple = (100, 1000)
    biased_neg_per_pos: int = 0
    eval_seed: int = 0
    # execution
    block_size: int = 1024
    workers: int = 0  # 0 = available parallelism

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; "
                              f"expected one of {MODES}")
        if self.phase not in ("train", "valid", "test"):
            raise ConfigError(f"unknown phase {self.phase!r}")
        check_ratios(self.ratios)
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if not all(0.0 < f <= 1.0 for f in self.prec):  # nan fails too
            raise ConfigError("prec fractions must be in (0, 1]")
        if not all(k >= 1 for k in self.hits):
            raise ConfigError("hits k must be >= 1")
        if min(self.workers, self.biased_neg_per_pos) < 0:
            raise ConfigError("workers and biased_neg_per_pos must be >= 0")
        self.enhancer()
        self.trainer()
        return self

    def enhancer(self) -> EnhancerConfig:
        return _pick(EnhancerConfig, self)

    def trainer(self) -> TrainConfig:
        """The trainer settings; `t` is the walk length ac_t."""
        return _pick(TrainConfig, self, ac_t=self.t,
                     direct_mlp=self.mode in DIRECT_MLP_MODES)


def _pick(cls, cfg, **extra):
    """A `cls` built from the fields of `cfg` with the same names."""
    names = {f.name for f in fields(cfg)}
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)
                  if f.name in names}, **extra)


TUPLE_TYPES = {"ratios": float, "prec": float, "hits": int}


def _parse_value(name, kind, text):
    if name in TUPLE_TYPES:
        return tuple(TUPLE_TYPES[name](x) for x in text.split())
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


def config_from_text(text: str, base: ExperimentConfig | None = None
                     ) -> ExperimentConfig:
    cfg = base if base is not None else ExperimentConfig()
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key not in by_name:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        f = by_name[key]
        kind = type(getattr(cfg, f.name))
        try:
            setattr(cfg, key, _parse_value(key, kind, value))
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: {exc}") from exc
    return cfg


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = " ".join(repr(x) for x in value)
        elif isinstance(value, float):
            value = repr(value)
        elif isinstance(value, str) and ("#" in value or len(
                value.splitlines()) > 1 or value != value.strip()):
            raise ConfigError(f"{f.name} {value!r} cannot be written")
        lines.append(f"{f.name} {value}")
    return "\n".join(lines) + "\n"


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_text(text, base)
