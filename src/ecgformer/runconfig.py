"""INI-backed run configuration with a strict key schema.

Each section's keys are the fields of its config dataclass, in field order,
with the field's type and default: `[preprocess]` is dsp.PreprocessConfig,
`[model]` model.ModelConfig, `[train]` train.TrainConfig and `[features]`
features.FeatureConfig. Four fields are set elsewhere: the model's
num_leads (from the lead subset), window_samples (from `[preprocess]`) and
d_class (from the manifest's classes in training, from thresholds.csv's in
inference), and train's threads (from the command line).
OTHER_KEYS holds the keys that are no field, d_class among them.

Unknown sections or keys are errors so config-file typos never pass silently.
Command-line overrides use ``section.key=value``.
"""

from __future__ import annotations

import configparser
import copy
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from . import dsp, features, model, train
from .errors import ConfigError


def _bool(text: str) -> bool:
    v = text.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


CASTS = {"int": int, "float": float, "str": str, "bool": _bool, "list[str]": _str_list}

SECTIONS = {"preprocess": dsp.PreprocessConfig, "model": model.ModelConfig, "train": train.TrainConfig,
            "features": features.FeatureConfig}
SET_ELSEWHERE = {"model": ("num_leads", "window_samples", "d_class"), "train": ("threads",)}

# The keys that are no field, as (cast, default). `manifest` reads
# unlabeled_policy. d_class, folds and batch_size_val (default None) are
# checked and ignored, so config_used.ini leaves them out: the class count is
# the manifest's, the number of folds the fold CSV's, and validation batches
# its forwards by the graph budget.
OTHER_KEYS = {"model": {"d_class": (int, None)},
              "train": {"unlabeled_policy": (str, "include"), "folds": (int, None), "batch_size_val": (int, None)}}

SCHEMA: dict[str, dict[str, tuple]] = {
    section: {
        **{f.name: (CASTS[f.type], f.default_factory() if f.default is MISSING else f.default)
           for f in fields(cls) if f.name not in SET_ELSEWHERE.get(section, ())},
        **OTHER_KEYS.get(section, {}),
    }
    for section, cls in SECTIONS.items()
}


def read_config_text(path) -> str:
    """The INI file at `path` (a `--config` file or a run's `config_used.ini`)
    as UTF-8 text; a file that is not UTF-8 raises ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({section: {k: copy.copy(default) for k, (_, default) in keys.items() if default is not None}
                    for section, keys in SCHEMA.items()})

    @classmethod
    def load(cls, path=None, overrides: list[str] | None = None) -> "RunConfig":
        config = cls.defaults()
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)  # a value is its text, `%` included
            try:
                parser.read_string(read_config_text(path), source=str(path))
            except configparser.Error as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            for section in parser.sections():
                if section not in SCHEMA:
                    raise ConfigError(f"{path}: unknown config section [{section}]")
                for key, raw in parser.items(section):
                    config._set(section, key, raw, source=str(path))
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override {item!r} must look like section.key=value")
            target, raw = item.split("=", 1)
            section, _, key = target.partition(".")
            config._set(section.strip(), key.strip(), raw.strip(), source="--set")
        return config

    def _set(self, section: str, key: str, raw: str, source: str):
        if section not in SCHEMA:
            raise ConfigError(f"{source}: unknown config section [{section}]")
        if key not in SCHEMA[section]:
            raise ConfigError(f"{source}: unknown key {key!r} in section [{section}]")
        caster, default = SCHEMA[section][key]
        try:
            value = caster(raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{source}: bad value for {section}.{key}: {exc}") from exc
        if default is not None:
            self.values[section][key] = value

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.values[section]

    def to_ini_text(self) -> str:
        chunks = []
        for section, keys in self.values.items():
            chunks.append(f"[{section}]")
            for key, value in keys.items():
                rendered = ",".join(value) if isinstance(value, list) else value
                chunks.append(f"{key} = {rendered}")
            chunks.append("")
        return "\n".join(chunks)

    # -- typed views ----------------------------------------------------------

    def _fields(self, section: str) -> dict[str, object]:
        """The section's values that are fields of its dataclass."""
        return {k: v for k, v in self.values[section].items() if k not in OTHER_KEYS.get(section, {})}

    def preprocess_config(self) -> dsp.PreprocessConfig:
        return dsp.PreprocessConfig(**self._fields("preprocess"))

    def model_config(self, num_leads: int, d_class: int) -> model.ModelConfig:
        return model.ModelConfig(**self._fields("model"), num_leads=num_leads, d_class=d_class,
                                 window_samples=self.values["preprocess"]["window_samples"])

    def train_config(self, threads: int = 1) -> train.TrainConfig:
        return train.TrainConfig(**self._fields("train"), threads=threads)

    def feature_config(self) -> features.FeatureConfig:
        return features.FeatureConfig(**self._fields("features"))
