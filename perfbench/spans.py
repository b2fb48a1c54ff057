"""Span tracing of compdet's layers from outside the program.

`Tracer.install` replaces each traced public function wherever a compdet
module binds it (every module attribute that is the very function object)
and the two traced `LaurentPoly` methods on the class.  Each wrapper
records one span (layer, start, end, parent span) in flat in-memory arrays
and bumps the layer's counters.  `Tracer.uninstall` puts every original
object back, so an untraced run calls exactly the program's own functions.

A span's self time is its duration minus the time its child spans cover;
the program is single-threaded, so child spans nest and never overlap.
"""

import json
import sys
import time
from array import array
from fractions import Fraction

# Traced functions: (layer, defining module, attribute).  The kernel entry
# is taken from compdet._backend, which binds whichever kernel was chosen.
FUNCTIONS = (
    ("cli.main", "compdet.cli", "main"),
    ("compound.build_M", "compdet.compound", "build_M"),
    ("pmatrix.det_minor_expansion", "compdet.pmatrix", "det_minor_expansion"),
    ("pmatrix.det_fraction_free", "compdet.pmatrix", "det_fraction_free"),
    ("pmatrix.det_cofactor", "compdet.pmatrix", "det_cofactor"),
    ("pmatrix.det_fractions", "compdet.pmatrix", "det_fractions"),
    ("kernel.muladd_terms", "compdet._backend", "muladd_terms"),
    ("characters.character_value", "compdet.characters", "character_value"),
    ("macdonald.macdonald_P", "compdet.macdonald", "macdonald_P"),
    ("macdonald.evaluate_symfunc", "compdet.macdonald", "evaluate_symfunc"),
    ("sampling.sample_point", "compdet.sampling", "sample_point"),
    ("report.canonical_hash", "compdet.report", "canonical_hash"),
)
# Traced LaurentPoly methods: (layer, method name).
METHODS = (
    ("laurent.canonical", "canonical"),
    ("laurent.exquo", "exquo"),
)
# Layers whose results are determinants; their coefficient sizes feed
# det.max_coeff_bits.
DETERMINANTS = frozenset(
    (
        "pmatrix.det_minor_expansion",
        "pmatrix.det_fraction_free",
        "pmatrix.det_cofactor",
        "pmatrix.det_fractions",
    )
)
LAYERS = tuple(name for name, *_ in FUNCTIONS + METHODS)


def coeff_bits(c):
    """Bit length of the larger of numerator and denominator of a rational."""
    if isinstance(c, int):
        return abs(c).bit_length()
    c = Fraction(c)
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def max_coeff_bits(value):
    """Largest coefficient bit length of a determinant (poly or rational)."""
    terms = getattr(value, "_terms", None)
    if terms is None:
        return coeff_bits(value)
    return max(map(coeff_bits, terms.values()), default=0)


def _compdet_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "compdet" or name.startswith("compdet."))]


class Tracer:
    """Owns the spans and counters of one traced run."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"kernel.term_products": 0, "laurent.canonical.chars": 0,
                         "det.max_coeff_bits": 0}
        self._stack = []
        self._patches = []

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every traced function at each of its bindings."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import compdet.laurent

        modules = _compdet_modules()
        for lid, (name, modname, attr) in enumerate(FUNCTIONS):
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(lid, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        cls = compdet.laurent.LaurentPoly
        for offset, (name, attr) in enumerate(METHODS):
            original = vars(cls)[attr]
            self._patch(cls, attr, self._wrap(len(FUNCTIONS) + offset, name, original))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original object back where it was bound."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, lid, name, fn):
        layer, parent, start, end, stack = (
            self.layer, self.parent, self.start, self.end, self._stack)
        counters = self.counters
        clock = time.perf_counter
        after = None
        if name in DETERMINANTS:
            def after(result):
                bits = max_coeff_bits(result)
                if bits > counters["det.max_coeff_bits"]:
                    counters["det.max_coeff_bits"] = bits
        elif name == "laurent.canonical":
            def after(result):
                counters["laurent.canonical.chars"] += len(result)
        kernel = name == "kernel.muladd_terms"

        def wrapper(*args, **kwargs):
            if kernel and args[4]:
                # muladd_terms(acc, a, b, unit, coeff) multiplies every term pair
                counters["kernel.term_products"] += len(args[1]) * len(args[2])
            idx = len(layer)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.traced_layer = name
        return wrapper

    # -- reading -------------------------------------------------------------

    def begin(self):
        """Zero the counters; return the span index to pass to `summary`."""
        for key in self.counters:
            self.counters[key] = 0
        return len(self.layer)

    def summary(self, begin, end=None):
        """Per-layer self time, inclusive time and calls of spans [begin, end)."""
        end = len(self.layer) if end is None else end
        child = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        total_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        # children close before their parents, so walk spans newest first
        for i in range(end - 1, begin - 1, -1):
            dur = self.end[i] - self.start[i]
            name = LAYERS[self.layer[i]]
            self_s[name] += dur - child.pop(i, 0.0)
            total_s[name] += dur
            calls[name] += 1
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + dur
        return {"self_s": self_s, "total_s": total_s, "calls": calls}

    def write_spans(self, path):
        """Write every span as one JSON line: layer, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.layer)):
                fh.write(json.dumps([LAYERS[self.layer[i]], self.start[i],
                                     self.end[i], self.parent[i]]) + "\n")


def bindings_intact():
    """True when no compdet module or LaurentPoly still holds a wrapper."""
    for mod in _compdet_modules():
        for value in list(vars(mod).values()):
            if hasattr(value, "traced_layer"):
                return False
            if isinstance(value, type):
                if any(hasattr(v, "traced_layer") for v in vars(value).values()):
                    return False
    return True
