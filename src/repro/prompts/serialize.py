"""Natural-language serialization of configurations and runtimes.

The paper presents performance data "in a natural language format"
(Figure 1): one comma-separated ``name is value`` clause per parameter with
the invariant ``size`` leading, and the objective as a plain decimal digit
sequence (``Performance: 0.0022155``).
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.dataset.space import ConfigSpace, Configuration
from repro.errors import ParseError

__all__ = [
    "format_runtime",
    "serialize_config",
    "config_clauses",
    "deserialize_config",
    "example_block",
    "query_block",
]


#: Supported value-serialization styles (Section V-B discusses the
#: trade-off: scientific notation stabilizes the string *shape* but makes
#: value prefixes less similar, which the paper predicts hurts the model).
VALUE_STYLES = ("decimal", "scientific")


def format_runtime(value: float, style: str = "decimal") -> str:
    """Render a runtime as a digit sequence in the chosen style.

    ``decimal`` (the paper's setting): sub-second runtimes keep seven
    decimals (the Figure-1 example is ``0.0022155``); second-scale
    runtimes keep four.  ``scientific``: a four-decimal mantissa with a
    signed two-digit exponent (``2.2155e-03``).
    """
    v = float(value)
    if not v > 0:
        raise ValueError(f"runtime must be positive, got {value!r}")
    if style == "decimal":
        return f"{v:.7f}" if v < 1.0 else f"{v:.4f}"
    if style == "scientific":
        return f"{v:.4e}"
    raise ValueError(f"unknown value style {style!r}; choose {VALUE_STYLES}")


def serialize_config(config: Mapping[str, object], size: str) -> str:
    """One-line natural-language rendering of a configuration."""
    return f"size is {size}" + "".join(config_clauses(config))


def config_clauses(config: Mapping[str, object]) -> list[str]:
    """The ``", name is value"`` clauses that follow the size clause."""
    return [f", {name} is {value}" for name, value in config.items()]


_CLAUSE_RE = re.compile(r"([A-Za-z0-9_]+)\s+is\s+([^,\n]+?)\s*(?=,|\n|$)")


def deserialize_config(
    text: str, space: ConfigSpace
) -> tuple[Configuration, str | None]:
    """Parse a serialized configuration line back into a config dict.

    Returns ``(config, size)`` where ``size`` is the value of the ``size``
    clause if present.  Used by the candidate-sampling mode to harvest
    LLM-proposed configurations.

    Raises
    ------
    ParseError
        If any parameter is missing or a value is outside its domain.
    """
    values: dict[str, str] = {}
    for m in _CLAUSE_RE.finditer(text):
        values[m.group(1)] = m.group(2).strip()
    size = values.pop("size", None)
    config: Configuration = {}
    for p in space.parameters:
        if p.name not in values:
            raise ParseError(f"configuration text missing parameter {p.name!r}")
        raw = values[p.name]
        matched = None
        for v in p.values:
            if str(v) == raw:
                matched = v
                break
        if matched is None:
            raise ParseError(
                f"value {raw!r} not in domain of parameter {p.name!r}"
            )
        config[p.name] = matched
    return config, size


def example_block(
    config: Mapping[str, object],
    size: str,
    runtime: float,
    style: str = "decimal",
) -> str:
    """One ICL example in Figure 1's layout."""
    return (
        f"Hyperparameter configuration: {serialize_config(config, size)}\n"
        f"Performance: {format_runtime(runtime, style)}\n"
    )


def query_block(config: Mapping[str, object], size: str) -> str:
    """The query (an example with the performance left blank)."""
    return (
        f"Hyperparameter configuration: {serialize_config(config, size)}\n"
        f"Performance:"
    )
