"""INI-backed run configuration with a strict key schema.

Every key is validated against the schema below; unknown sections or keys are
errors so config-file typos never pass silently. Command-line overrides use
``section.key=value``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
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


SCHEMA: dict[str, dict[str, tuple]] = {
    "preprocess": {
        "target_rate_hz": (float, 500.0),
        "band_low_hz": (float, 3.0),
        "band_high_hz": (float, 45.0),
        "window_samples": (int, 7680),
        "fir_taps": (int, 513),
        "normalize_scope": (str, "recording"),
    },
    "model": {
        "d_patch": (int, 64),
        "d_model": (int, 768),
        "num_layers": (int, 12),
        "num_heads": (int, 12),
        "d_ff": (int, 768),
        "dropout_encoder": (float, 0.1),
        "d_deep": (int, 64),
        "d_wide": (int, 22),
        "d_class": (int, 26),
        "dropout_head": (float, 0.2),
        "positional": (str, "learned"),
        "dropout_positional": (_bool, True),
        "mask_padding": (_bool, False),
        "gelu_exact": (_bool, False),
    },
    "train": {
        "batch_size_train": (int, 128),
        "batch_size_val": (int, 64),
        "learning_rate": (float, 1e-4),
        "max_steps": (int, 500),
        "seed": (int, 0),
        "folds": (int, 10),  # accepted and ignored: k is the fold CSV's
        "eval_every": (int, 100),
        "lead_subset": (str, "twelve"),
        "custom_leads": (_str_list, []),
        "normal_class": (str, ""),
        "standardize_wide": (_bool, False),
        "precision": (str, "float64"),
        "unlabeled_policy": (str, "include"),
    },
    "features": {
        "impute_age_years": (float, 60.0),
        "age_scale": (float, 100.0),
        "heart_rate_scale": (float, 300.0),
        "feature_lead": (str, "II"),
    },
}


def read_config_text(path) -> str:
    """The configuration file at `path` (an INI file, `model_config.txt`) as
    UTF-8 text; a file that is not UTF-8 raises ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({section: {k: default for k, (_, default) in keys.items()} for section, keys in SCHEMA.items()})

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
        caster = SCHEMA[section][key][0]
        try:
            self.values[section][key] = caster(raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{source}: bad value for {section}.{key}: {exc}") from exc

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

    def preprocess_config(self) -> dsp.PreprocessConfig:
        p = self.values["preprocess"]
        return dsp.PreprocessConfig(
            target_rate_hz=p["target_rate_hz"],
            band_low_hz=p["band_low_hz"],
            band_high_hz=p["band_high_hz"],
            window_samples=p["window_samples"],
            fir_taps=p["fir_taps"],
            normalize_scope=p["normalize_scope"],
        )

    def model_config(self, num_leads: int, d_class: int | None = None) -> model.ModelConfig:
        m = self.values["model"]
        return model.ModelConfig(
            num_leads=num_leads,
            d_patch=m["d_patch"],
            d_model=m["d_model"],
            num_layers=m["num_layers"],
            num_heads=m["num_heads"],
            d_ff=m["d_ff"],
            dropout_encoder=m["dropout_encoder"],
            d_deep=m["d_deep"],
            d_wide=m["d_wide"],
            d_class=d_class if d_class is not None else m["d_class"],
            dropout_head=m["dropout_head"],
            window_samples=self.values["preprocess"]["window_samples"],
            positional=m["positional"],
            dropout_positional=m["dropout_positional"],
            mask_padding=m["mask_padding"],
            gelu_exact=m["gelu_exact"],
        )

    def train_config(self, threads: int = 1) -> train.TrainConfig:
        t = self.values["train"]
        return train.TrainConfig(
            batch_size_train=t["batch_size_train"],
            batch_size_val=t["batch_size_val"],
            learning_rate=t["learning_rate"],
            max_steps=t["max_steps"],
            seed=t["seed"],
            eval_every=t["eval_every"],
            lead_subset_name=t["lead_subset"],
            custom_leads=list(t["custom_leads"]),
            normal_class=t["normal_class"],
            standardize_wide=t["standardize_wide"],
            precision=t["precision"],
            threads=threads,
        )

    def feature_config(self) -> features.FeatureConfig:
        f = self.values["features"]
        return features.FeatureConfig(
            impute_age_years=f["impute_age_years"],
            age_scale=f["age_scale"],
            heart_rate_scale=f["heart_rate_scale"],
            feature_lead=f["feature_lead"],
        )
