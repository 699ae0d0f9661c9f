"""Spans and call counts recorded around the public functions of lorenzmap.

The tracer patches module attributes for the duration of a ``with``
block and restores them afterwards, so the program's source is never
edited.  A function imported by name into another module (``from .maps
import evaluate``) is a separate reference; every lorenzmap module that
holds the original object gets the wrapper, so calls between modules
are seen too.

Spans carry name, layer, start, end and parent.  A layer's self time is
the time its spans cover minus the part covered by their child spans.
Functions called many thousands of times per item are counted only, so
that the traced run stays close to the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "lorenzmap"

# (module, attribute) -> span name; the layer is the module name.
SPAN_TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_sweep"),
    ("cli", "analyze_map"),
    ("maps", "validate_map"),
    ("maps", "rescale_to_unit"),
    ("periods", "minimal_period"),
    ("periods", "minimal_periodic_orbit"),
    ("renorm", "renorm_tower"),
    ("renorm", "minimal_renormalization"),
    ("renorm", "critical_orbit_values"),
    ("interval_dynamics", "interval_orbit"),
    ("limits", "orbit_unions"),
    ("limits", "omega_decomposition"),
    ("limits", "alpha_classify"),
    ("limits", "membership_E"),
)

# (module, dotted attribute) counted without a span.
COUNT_TARGETS = (
    ("maps", "evaluate"),
    ("numerics", "cmp_certified"),
    ("interval_dynamics", "IntervalUnion.contains"),
)

KEEP_RESULTS = ("renorm_tower", "minimal_renormalization", "membership_E")

LAYERS = ("cli", "maps", "periods", "renorm", "interval_dynamics", "limits")


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def tower_coeff_bits(tower) -> int:
    """Largest numerator or denominator bit length held by a tower."""
    best = 0
    for level in tower.levels:
        step = level.step
        inner = step.inner_map
        values = [step.u, step.v, step.e_minus, step.e_plus, level.e_minus, level.e_plus]
        values += list(level.interval)
        for branch in (inner.left, inner.right):
            values += list(branch.breakpoints) + list(branch.slopes) + list(branch.intercepts)
        best = max([best] + [_bits(x) for x in values])
    return best


def pairs_before(ell: int, r: int, bound: int) -> int:
    """Pairs the search visits up to and including ``(ell, r)``.

    The search walks pairs by increasing ``ell + r``, ties by ``ell``,
    with both entries in ``[2, bound]``.
    """
    count = 0
    for total in range(4, ell + r + 1):
        for e in range(max(2, total - bound), min(bound, total - 2) + 1):
            count += 1
            if (e, total - e) == (ell, r):
                return count
    return count


def pairs_examined(result, bound: int) -> int:
    """Pairs a minimal-renormalization decision had to rule on.

    Derived from the returned result alone: the periodic fast path and
    fixed-point maps examine no pair; a found pair was preceded by every
    pair before it in search order; an empty search examined them all.
    """
    if result.certainly_prime or result.fast_path:
        return 0
    if result.step is not None:
        return pairs_before(result.step.ell, result.step.r, bound)
    return pairs_before(bound, bound, bound)


class Tracer:
    """Install wrappers on entry, remove them on exit; keep spans in memory."""

    def __init__(self):
        self.spans: list = []  # [name, layer, start, end, parent index]
        self.counts: dict = {}
        # returned values of these functions, kept for the exact counters
        self.returned: dict = {name: [] for name in KEEP_RESULTS}
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def _modules(self) -> list:
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for module, attr in SPAN_TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            original = getattr(mod, attr, None)
            if original is not None:
                self._replace_everywhere(original, self._span_wrapper(module, attr, original))
        for module, dotted in COUNT_TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._count_wrapper(f"{module}.{attr}", original)
            if owner_name:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _count_wrapper(self, key: str, original):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return counted

    def _span_wrapper(self, layer: str, attr: str, original):
        name = f"{layer}.{attr}"
        spans, stack = self.spans, self._stack
        keep = self.returned[attr].append if attr in KEEP_RESULTS else None

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if keep is not None:
                keep((result, args, kwargs))
            return result

        return spanned

    # -- reduction ----------------------------------------------------------

    def exact(self) -> dict:
        """Counters derived from returned towers and results, not from timing."""
        towers = [tower for tower, _, _ in self.returned["renorm_tower"]]
        renorm = importlib.import_module(f"{PACKAGE}.renorm")
        signature = inspect.signature(renorm.minimal_renormalization)
        pairs = 0
        for result, args, kwargs in self.returned["minimal_renormalization"]:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            pairs += pairs_examined(result, call.arguments["bound"])
        return {
            "renorm.levels": sum(len(tower.levels) for tower in towers),
            "renorm.pairs_examined": pairs,
            "renorm.coeff_bits_max": max([0] + [tower_coeff_bits(t) for t in towers]),
            "limits.membership_steps": sum(
                result.steps or 0 for result, _, _ in self.returned["membership_E"]
            ),
        }

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def inclusive(self, name: str) -> float:
        """Time covered by spans called ``name``, outermost ones only."""
        total = 0.0
        for _, _, start, end, parent in (s for s in self.spans if s[0] == name):
            nested = False
            while parent is not None:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][4]
            if not nested:
                total += end - start
        return total

    def self_time(self, names) -> float:
        own = self.self_times()
        return sum(t for span, t in zip(self.spans, own) if span[0] in names)

    def layer_self_time(self, layer: str) -> float:
        own = self.self_times()
        return sum(t for span, t in zip(self.spans, own) if span[1] == layer)
