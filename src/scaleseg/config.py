"""Plain-text key=value configuration files.

One pair per line; blank lines and lines starting with '#' are ignored.
Values stay strings until a typed accessor converts them; conversion
failures and unknown keys raise ConfigError so the CLI can map them to
its config-error exit code.
"""


class ConfigError(ValueError):
    """Bad configuration key, value, or file."""


def parse_config_text(text, source="<config>"):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key=value")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def check_known(cfg, known, source="config"):
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"{source}: unknown keys {', '.join(unknown)}")


def as_int(cfg, key, default):
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from None


def as_float(cfg, key, default):
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from None


def as_float_list(cfg, key, default):
    if key not in cfg:
        return default
    try:
        return tuple(float(t) for t in cfg[key].split(",") if t.strip())
    except ValueError:
        raise ConfigError(
            f"{key}: expected comma-separated numbers, got {cfg[key]!r}") from None
