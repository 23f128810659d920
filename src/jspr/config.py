"""Flat key=value experiment configuration.

One `key = value` pair per line, `#` starts a comment, list values are
comma-separated and distinct. Unknown keys are rejected. Defaults
reproduce the standard setup: sigma2 = 0.01, amplitudes uniform on
[10, 15], 500 trials, complete topology.
"""

import math
from dataclasses import dataclass, field

from .algorithms import ALGORITHMS
from .errors import ConfigError
from .network import ring_topology

VALID_TOPOLOGIES = ("complete", "ring", "random")
VALID_FORMATS = ("csv", "json")


@dataclass
class ExperimentConfig:
    n: int = 256
    k: int = 10
    l_values: list = field(default_factory=lambda: [10])
    m_values: list = field(default_factory=lambda: [15, 20, 25, 30, 40])
    sigma2: float = 0.01
    amp_low: float = 10.0
    amp_high: float = 15.0
    topology_kind: str = "complete"
    n0_values: list = field(default_factory=list)   # ring only
    edge_p: float | None = None                     # random only
    algorithms: list = field(default_factory=lambda: ["d-omp", "dc-omp1", "dc-omp2", "s-omp"])
    trials: int = 500
    master_seed: int = 0
    out_path: str | None = None
    out_format: str = "csv"
    delta0: float = 0.5
    slack_t: float = 1.0
    workers: int = 1


def _parse_int(key, value, lineno):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: key '{key}': expected integer, got {value!r}") from None


def _parse_float(key, value, lineno):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: key '{key}': expected number, got {value!r}") from None


def _parse_int_list(key, value, lineno):
    return [_parse_int(key, item.strip(), lineno) for item in value.split(",") if item.strip()]


def _parse_str(key, value, lineno):
    return value


def _parse_str_list(key, value, lineno):
    return [item.strip() for item in value.split(",") if item.strip()]


# config key -> (ExperimentConfig field, parser)
_KEYS = {
    "n": ("n", _parse_int),
    "k": ("k", _parse_int),
    "l": ("l_values", _parse_int_list),
    "m": ("m_values", _parse_int_list),
    "sigma2": ("sigma2", _parse_float),
    "amp_low": ("amp_low", _parse_float),
    "amp_high": ("amp_high", _parse_float),
    "topology": ("topology_kind", _parse_str),
    "n0": ("n0_values", _parse_int_list),
    "p": ("edge_p", _parse_float),
    "algorithms": ("algorithms", _parse_str_list),
    "trials": ("trials", _parse_int),
    "seed": ("master_seed", _parse_int),
    "out": ("out_path", _parse_str),
    "format": ("out_format", _parse_str),
    "delta0": ("delta0", _parse_float),
    "slack_t": ("slack_t", _parse_float),
    "workers": ("workers", _parse_int),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration; empty text gives all defaults."""
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        seen.add(key)
        if value == "":
            raise ConfigError(f"line {lineno}: key '{key}': empty value")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        attr, parse = _KEYS[key]
        setattr(cfg, attr, parse(key, value, lineno))

    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming the first key whose value is out of range."""
    if cfg.n < 2:
        raise ConfigError("key 'n': signal dimension must be at least 2")
    if cfg.k < 1:
        raise ConfigError("key 'k': sparsity must be positive (k >= 1)")
    if cfg.k >= cfg.n:
        raise ConfigError("key 'k': sparsity must be below the signal dimension")
    if not cfg.l_values or any(l < 1 for l in cfg.l_values):
        raise ConfigError("key 'l': node counts must be positive")
    if not cfg.m_values or any(m < 1 for m in cfg.m_values):
        raise ConfigError("key 'm': measurement counts must be positive")
    if any(m >= cfg.n for m in cfg.m_values):
        raise ConfigError("key 'm': measurements per node must be below n")
    for key, (attr, parse) in _KEYS.items():
        value = getattr(cfg, attr)
        if parse is _parse_float and value is not None and not math.isfinite(value):
            raise ConfigError(f"key '{key}': must be a finite number, got {value!r}")
    if cfg.sigma2 < 0:
        raise ConfigError("key 'sigma2': noise variance must be nonnegative")
    if cfg.amp_low > cfg.amp_high:
        raise ConfigError("key 'amp_low': must not exceed amp_high")
    if cfg.amp_low == 0.0 and cfg.amp_high == 0.0:
        raise ConfigError("keys 'amp_low', 'amp_high': the range [0, 0] would empty the support")
    if cfg.topology_kind not in VALID_TOPOLOGIES:
        raise ConfigError(
            f"key 'topology': must be one of {', '.join(VALID_TOPOLOGIES)}")
    if cfg.topology_kind == "ring" and not cfg.n0_values:
        raise ConfigError("key 'n0': required for ring topology")
    if any(n0 < 1 for n0 in cfg.n0_values):
        raise ConfigError("key 'n0': neighborhood sizes must be positive")
    if cfg.topology_kind == "ring":
        for l_count in cfg.l_values:
            for n0 in cfg.n0_values:
                try:
                    ring_topology(l_count, n0)
                except ValueError as exc:
                    raise ConfigError(f"keys 'l', 'n0': {exc}") from None
    if cfg.topology_kind == "random":
        if any(l < 2 for l in cfg.l_values):
            raise ConfigError("key 'l': random topology needs at least 2 nodes")
        if cfg.edge_p is None:
            raise ConfigError("key 'p': required for random topology")
        if not 0 < cfg.edge_p <= 1:
            raise ConfigError("key 'p': edge probability must be in (0, 1]")
    if not cfg.algorithms:
        raise ConfigError("key 'algorithms': at least one algorithm required")
    for alg in cfg.algorithms:
        if alg not in ALGORITHMS:
            raise ConfigError(
                f"key 'algorithms': unknown tag '{alg}' "
                f"(valid: {', '.join(ALGORITHMS)})")
    # a repeated value would run its sweep point or algorithm twice and
    # print its rows twice
    for key, values in (("l", cfg.l_values), ("m", cfg.m_values), ("n0", cfg.n0_values),
                        ("algorithms", cfg.algorithms)):
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ConfigError(f"key '{key}': {repeated[0]!r} is listed twice")
    if cfg.trials < 1:
        raise ConfigError("key 'trials': must be positive")
    if not 0 <= cfg.master_seed < 2 ** 64:
        raise ConfigError("key 'seed': must lie in [0, 2^64 - 1]")
    if cfg.out_format not in VALID_FORMATS:
        raise ConfigError(f"key 'format': must be one of {', '.join(VALID_FORMATS)}")
    if not 0 < cfg.delta0 < 1:
        raise ConfigError("key 'delta0': must be in (0, 1)")
    if cfg.slack_t <= 0:
        raise ConfigError("key 'slack_t': must be positive")
    if cfg.workers < 1:
        raise ConfigError("key 'workers': must be positive")


def load_config(path: str) -> ExperimentConfig:
    """Parse the config file at `path`; a file that cannot be read or is not
    UTF-8 text raises ConfigError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"cannot read config file {path!r}: {reason}") from None
    return parse_config(text)
