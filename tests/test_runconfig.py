import re
from dataclasses import fields
from pathlib import Path

import pytest

from ecgformer import dsp, features, model, runconfig, train
from ecgformer.errors import ConfigError
from ecgformer.runconfig import RunConfig

# Every INI key: (text to set, the value its section then holds, or None for a key that is checked and ignored).
# Each value differs from the default, so reaching the typed view is visible.
SAMPLES = {
    "preprocess": {
        "target_rate_hz": ("250.5", 250.5), "band_low_hz": ("2.5", 2.5), "band_high_hz": ("40.25", 40.25),
        "window_samples": ("1280", 1280), "fir_taps": ("129", 129), "normalize_scope": ("window", "window"),
    },
    "model": {
        "d_patch": ("32", 32), "d_model": ("24", 24), "num_layers": ("3", 3), "num_heads": ("8", 8),
        "d_ff": ("40", 40), "dropout_encoder": ("0.25", 0.25), "d_deep": ("9", 9), "d_wide": ("5", 5),
        "d_class": ("7", None), "dropout_head": ("0.3", 0.3), "positional": ("sinusoidal", "sinusoidal"),
        "dropout_positional": ("false", False), "mask_padding": ("true", True), "gelu_exact": ("yes", True),
    },
    "train": {
        "batch_size_train": ("3", 3), "learning_rate": ("0.5", 0.5), "max_steps": ("7", 7), "seed": ("11", 11),
        "eval_every": ("2", 2), "lead_subset": ("custom", "custom"), "custom_leads": ("II, V1", ["II", "V1"]),
        "normal_class": ("AF", "AF"), "standardize_wide": ("1", True), "precision": ("float32", "float32"),
        "unlabeled_policy": ("exclude", "exclude"), "folds": ("4", None), "batch_size_val": ("16", None),
    },
    "features": {
        "impute_age_years": ("55.5", 55.5), "age_scale": ("90", 90.0), "heart_rate_scale": ("250", 250.0),
        "feature_lead": ("V2", "V2"),
    },
}

NUM_LEADS, D_CLASS = 2, 3


def typed_views(config: RunConfig) -> dict:
    return {"preprocess": config.preprocess_config(), "model": config.model_config(NUM_LEADS, D_CLASS),
            "train": config.train_config(), "features": config.feature_config()}


def readme_keys() -> dict[str, set[str]]:
    """The keys README's "Sections and keys" sentence names, per section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Sections and keys:", 1)[1].split(".", 1)[0]
    keys = {}
    for section, body in re.findall(r"`\[(\w+)\]`([^`]*)", sentence):
        keys[section] = {key.strip() for key in re.split(r"[,;]", re.sub(r"\([^)]*\)", "", body)) if key.strip()}
    return keys


def test_samples_cover_exactly_the_schema():
    assert {s: set(keys) for s, keys in SAMPLES.items()} == {s: set(keys) for s, keys in runconfig.SCHEMA.items()}


def test_every_field_key_reaches_its_typed_view_with_its_cast():
    defaults = typed_views(RunConfig.defaults())
    for section, cls in runconfig.SECTIONS.items():
        keys = [f.name for f in fields(cls) if f.name not in runconfig.SET_ELSEWHERE.get(section, ())]
        assert keys == list(runconfig.SCHEMA[section])[: len(keys)], section  # field order
        for key in keys:
            text, value = SAMPLES[section][key]
            config = RunConfig.load(overrides=[f"{section}.{key}={text}"])
            assert config[section][key] == value and type(config[section][key]) is type(value), (section, key)
            got = getattr(typed_views(config)[section], key)
            assert got == value and type(got) is type(value), (section, key, got)
            assert got != getattr(defaults[section], key), (section, key)


def test_model_window_comes_from_preprocess():
    config = RunConfig.load(overrides=["preprocess.window_samples=1280"])
    assert config.model_config(NUM_LEADS, D_CLASS).window_samples == 1280
    with pytest.raises(ConfigError, match="unknown key 'window_samples' in section \\[model\\]"):
        RunConfig.load(overrides=["model.window_samples=1280"])
    for section, key in (("model", "num_leads"), ("train", "threads")):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            RunConfig.load(overrides=[f"{section}.{key}=2"])


def test_default_views_are_the_dataclass_defaults():
    config = RunConfig.defaults()
    assert config.preprocess_config() == dsp.PreprocessConfig()
    assert config.model_config(12, 26) == model.ModelConfig(num_leads=12)
    assert config.train_config() == train.TrainConfig()
    assert config.feature_config() == features.FeatureConfig()
    assert config["train"]["unlabeled_policy"] == "include"


def test_default_lists_are_not_shared():
    a, b = RunConfig.defaults(), RunConfig.defaults()
    a["train"]["custom_leads"].append("II")
    assert b["train"]["custom_leads"] == [] and runconfig.SCHEMA["train"]["custom_leads"][1] == []


IGNORED = {("train", "batch_size_val"): "16", ("train", "folds"): "4", ("model", "d_class"): "7"}


def test_ignored_keys_are_checked_and_left_out():
    current = RunConfig.defaults().to_ini_text()
    assert not any(key in current for _, key in IGNORED)
    config = RunConfig.load(overrides=[f"{section}.{key}={text}" for (section, key), text in IGNORED.items()])
    assert config.to_ini_text() == current
    # The model's class count is the caller's (the manifest's), whatever the INI says.
    assert config.model_config(NUM_LEADS, D_CLASS).d_class == D_CLASS
    for section, key in IGNORED:
        with pytest.raises(ConfigError, match=f"bad value for {section}.{key}"):
            RunConfig.load(overrides=[f"{section}.{key}=x"])


def test_older_config_used_ini_loads(tmp_path):
    # A config_used.ini written while these keys were still written loads, and reads back without them.
    current = RunConfig.defaults().to_ini_text()
    older = current.replace("batch_size_train = 128\n", "batch_size_train = 128\nbatch_size_val = 64\n")
    older = older.replace("seed = 0\n", "seed = 0\nfolds = 10\n")
    older = older.replace("d_wide = 22\n", "d_wide = 22\nd_class = 26\n")
    assert older.count("\n") == current.count("\n") + 3
    (tmp_path / "config_used.ini").write_text(older)
    assert RunConfig.load(tmp_path / "config_used.ini").to_ini_text() == current


def test_readme_names_exactly_the_accepted_keys():
    named = readme_keys()
    assert named == {s: set(keys) for s, keys in runconfig.SCHEMA.items()}
    for section, keys in named.items():
        for key in keys:
            RunConfig.load(overrides=[f"{section}.{key}={SAMPLES[section][key][0]}"])
