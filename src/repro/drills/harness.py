"""The one run-and-compare implementation behind every determinism drill."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

MISSING: Any = object()  # the value of a key one slice lacks


@dataclass(frozen=True)
class DeterminismReport:
    """``results[0]`` is the reference run (a drill's primary outcome);
    ``diffs[i - 1]`` maps every slice key whose value in ``results[i]``
    differs from the reference to ``(reference value, value in run i)``."""

    results: tuple
    diffs: tuple[dict[str, tuple[Any, Any]], ...]

    @property
    def ok(self) -> bool:
        return not any(self.diffs)

    @property
    def first(self) -> Any:
        return self.results[0]

    def render(self, label: str, run: int | None = None) -> str:
        """``deterministic <label>: yes|NO`` and a line per diverged key,
        for run ``run`` (default: every run after the first)."""
        lines = []
        for i in [run] if run else range(1, len(self.results)):
            diff = self.diffs[i - 1]
            lines.append(f"deterministic {label}: {'NO' if diff else 'yes'}")
            lines += [f"  {key}: {_short(a)} vs {_short(b)}"
                      for key, (a, b) in diff.items()]
        return "\n".join(lines)


def verify_deterministic(
    run: Callable[[Any], Any], slice_fn: Callable[[Any], Mapping],
    variants: Iterable[Any],
) -> DeterminismReport:
    """Call ``run(variant)`` once per variant, in order (each call must
    build fresh state), and diff every later run's ``slice_fn`` view
    against the first's.  Nested mappings flatten to dotted keys
    (``outcomes.ok``), so a divergence names the leaf that moved."""
    results = tuple(run(variant) for variant in variants)
    first = _flatten(slice_fn(results[0]))
    diffs = []
    for result in results[1:]:
        this = _flatten(slice_fn(result))
        pairs = {k: (first.get(k, MISSING), this.get(k, MISSING))
                 for k in sorted(first.keys() | this.keys())}
        diffs.append({
            # NaN == NaN here: a metric that is NaN in both runs agrees.
            k: (a, b) for k, (a, b) in pairs.items()
            if not (a == b or (a != a and b != b))
        })
    return DeterminismReport(results, tuple(diffs))


def _flatten(mapping: Mapping, prefix: str = "") -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in mapping.items():
        if isinstance(value, Mapping):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _short(value: Any, width: int = 160) -> str:
    text = "<missing>" if value is MISSING else repr(value)
    return text if len(text) <= width else text[:width - 3] + "..."
