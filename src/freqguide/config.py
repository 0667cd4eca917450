"""Flat ``section.key = value`` config files with typed accessors.

The format is line-oriented so runs stay diffable: blank lines and lines
starting with ``#`` are ignored, everything else must be ``key = value``.
CLI overrides are applied on top of file values.
"""

from __future__ import annotations

from .errors import ConfigError

_REQUIRED = object()


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


class Config:
    def __init__(self, values: dict[str, str], source: str = "<config>"):
        self.values = dict(values)
        self.source = source

    @classmethod
    def from_path(cls, path) -> "Config":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls(parse_config_text(text, source=str(path)), source=str(path))

    def apply_overrides(self, overrides):
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must look like key=value")
            key, _, value = item.partition("=")
            self.values[key.strip()] = value.strip()

    def has(self, key: str) -> bool:
        return key in self.values

    def _get(self, key: str, default, convert, what: str):
        """``convert(value)`` of a present key, ``default`` of a missing one;
        a missing required key or a value ``convert`` rejects is a ConfigError."""
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"{self.source}: missing required key {key!r}")
            return default
        raw = self.values[key]
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.source}: key {key!r}: {raw!r} is not {what}") from exc

    def get_str(self, key: str, default=_REQUIRED) -> str:
        return self._get(key, default, str, "a string")

    def get_int(self, key: str, default=_REQUIRED) -> int:
        return self._get(key, default, int, "an integer")

    def get_float(self, key: str, default=_REQUIRED) -> float:
        return self._get(key, default, float, "a number")

    def get_bool(self, key: str, default=_REQUIRED) -> bool:
        return self._get(key, default, _parse_bool, "a boolean")

    def get_floats(self, key: str, default=_REQUIRED, sep: str = ",") -> tuple[float, ...]:
        def convert(raw: str) -> tuple[float, ...]:
            return tuple(float(part) for part in raw.split(sep))  # an empty item is a ValueError

        return self._get(key, default, convert, "a number list")

    def resolved(self) -> dict[str, str]:
        return dict(sorted(self.values.items()))
