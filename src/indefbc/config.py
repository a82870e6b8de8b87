"""INI run configuration: parsing, validation, and echo round-tripping."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import INTERVAL, Domain, build_domain
from .errors import ConfigError, ResolutionTooSmall
from .problem import F_FORM, FORMS, LOGISTIC, W_FORM, ProblemSpec, logistic_spec
from .weights import trig_weight

# Every key read, by section; [problem] also takes the weight keys of _weight_keys.
_KEYS = {
    "domain": {"kind", "m"},
    "problem": {"p", "form"},
    "lambda": {"window", "samples"},
    "sweep": {"deltas"},
    "run": {"seed", "out_dir", "n_inits"},
}


def _weight_keys(kind: str, form: str) -> set:
    """The [problem] keys that build_weight reads for this domain kind and form."""
    names = ("r",) if form == LOGISTIC else ("g", "f") if form == F_FORM else ("g",)
    suffixes = ("",) if kind == INTERVAL else ("_terms", "_plateaus", "_transition_width")
    return {name + suffix for name in names for suffix in suffixes}


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings plus the raw key/value echo."""

    # built from [domain]; equality reads it through raw, as its arrays compare elementwise
    domain: Domain = field(repr=False, compare=False)
    p: float
    form: str
    lam_window: tuple
    lam_samples: int
    deltas: tuple
    seed: int
    out_dir: str
    n_inits: int
    raw: dict = field(repr=False)  # {section: {key: value}} as read

    def build_weight(self, domain: Domain, name: str):
        """Weight named ``name`` from the [problem] section.

        Interval weights are two comma-separated literals; disk weights
        are "<name>_terms" triples mode:cos:sin joined by ";", with
        optional "<name>_plateaus" angle intervals lo:hi and a
        "<name>_transition_width".
        """
        section = self.raw.get("problem", {})
        if domain.kind == INTERVAL:
            text = section.get(name)
            if text is None:
                raise ConfigError(f"[problem] {name} is required for the interval")
            values = _parse_floats(text, name)
            if len(values) != domain.m:
                raise ConfigError(f"{name} needs {domain.m} values, got {len(values)}")
            return np.array(values)
        terms_text = section.get(f"{name}_terms")
        if terms_text is None:
            raise ConfigError(f"[problem] {name}_terms is required for the disk")
        terms = []
        terms_key = f"{name}_terms"
        for chunk in _split_items(terms_text):
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ConfigError(f"bad term {chunk!r} in {terms_key}")
            terms.append((_number(parts[0], terms_key, int), _number(parts[1], terms_key),
                          _number(parts[2], terms_key)))
        plateaus = []
        for chunk in _split_items(section.get(f"{name}_plateaus", "")):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise ConfigError(f"bad interval {chunk!r} in {name}_plateaus")
            plateaus.append(tuple(_number(part, f"{name}_plateaus") for part in parts))
        width_key = f"{name}_transition_width"
        width = _number(section.get(width_key, "0.05"), width_key)
        if not width > 0.0:
            raise ConfigError(f"{width_key} must be positive, got {width}")
        return trig_weight(domain, terms, plateaus, width)

    def build_spec(self, domain: Domain) -> ProblemSpec:
        if self.form == LOGISTIC:
            return logistic_spec(domain, self.build_weight(domain, "r"))
        g = self.build_weight(domain, "g")
        f = self.build_weight(domain, "f") if self.form == F_FORM else None
        return ProblemSpec(domain, self.p, g, f, self.form)


def _split_items(text: str):
    return [chunk.strip() for chunk in text.split(";") if chunk.strip()]


def _number(text: str | float, label: str, kind=float):
    """One finite number of type ``kind``; ConfigError if malformed or non-finite."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad number in {label}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{label} must be finite, got {text.strip()!r}")
    return value


def _parse_floats(text: str, label: str):
    return [_number(v, label) for v in text.replace(",", " ").split()]


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a {section: {key: value}} mapping into a RunConfig."""
    parser = configparser.ConfigParser()
    try:
        parser.read_dict(raw)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        kind = parser.get("domain", "kind", fallback=INTERVAL)
        m = int(parser.get("domain", "m", fallback="2"))
        p = _number(parser.get("problem", "p", fallback="2.0"), "p")
        form = parser.get("problem", "form", fallback=W_FORM)
        window = _parse_floats(parser.get("lambda", "window", fallback="0.001, 0.1"), "window")
        samples = int(parser.get("lambda", "samples", fallback="5"))
        deltas = tuple(_parse_floats(parser.get("sweep", "deltas", fallback=""), "deltas"))
        seed = int(parser.get("run", "seed", fallback="0"))
        out_dir = parser.get("run", "out_dir", fallback=".")
        n_inits = int(parser.get("run", "n_inits", fallback="64"))
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        domain = build_domain(kind, m)
    except ResolutionTooSmall as exc:
        raise ConfigError(str(exc)) from exc
    if form not in FORMS:
        raise ConfigError(f"unknown form {form!r}")
    if form == LOGISTIC and p != 2.0:
        raise ConfigError(f"the logistic form fixes p = 2, got p = {p}")
    for section in parser.sections():
        known = _KEYS.get(section, set())
        if section == "problem":
            known = known | _weight_keys(domain.kind, form)
        unknown = sorted(set(parser.options(section)) - known)
        if unknown:
            raise ConfigError(f"[{section}] keys not read for form {form} on {kind}: "
                              f"{', '.join(unknown)}")
    if len(window) != 2 or not 0.0 <= window[0] < window[1]:
        raise ConfigError(f"bad lambda window {window}")
    if samples < 1 or n_inits < 1 or seed < 0:
        raise ConfigError("samples, n_inits must be >= 1; seed >= 0")
    echo = {section: dict(parser.items(section)) for section in parser.sections()}
    return RunConfig(domain, p, form, (window[0], window[1]), samples, deltas,
                     seed, out_dir, n_inits, echo)


def load_config(path: str) -> RunConfig:
    """Parse an INI file into a validated RunConfig."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    return config_from_dict(raw)

