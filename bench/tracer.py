"""Per-layer call counts and self time for pmat, measured from outside.

pmat's modules import functions by name (approx holds its own reference to
matmul_trunc, relations to residual, the package to nearly everything), so a
traced function is rebound under every module-level name that refers to it
across pmat.*, and methods are rebound on their class.  Recursion is handled
by a stack of open spans: a span's self time is its duration minus the
durations of the traced spans directly inside it.
"""

import functools
import sys
from time import perf_counter

# (module, attribute, metric label); a dotted attribute is a class method
TARGETS = (
    ("poly", "mul_coeffs", "mul_coeffs"),
    ("poly", "Poly.__divmod__", "Poly.divmod"),
    ("poly", "poly_xgcd", "poly_xgcd"),
    ("ntt", "mul_ntt", "mul_ntt"),
    ("ntt", "matmul_ntt", "matmul_ntt"),
    ("polymat", "PolyMat.__mul__", "PolyMat.mul"),
    ("polymat", "matmul_trunc", "matmul_trunc"),
    ("polymat", "matmul_unbalanced", "matmul_unbalanced"),
    ("polymat", "const_mul", "const_mul"),
    ("constmat", "ConstMat.inverse", "ConstMat.inverse"),
    ("constmat", "ConstMat.rank", "ConstMat.rank"),
    ("constmat", "ConstMat.left_nullspace", "ConstMat.left_nullspace"),
    ("division", "pm_quorem", "pm_quorem"),
    ("division", "truncated_expansion", "truncated_expansion"),
    ("division", "quorem_auto", "quorem_auto"),
    ("division", "residual", "residual"),
    ("approx", "approximant_basis_popov", "approximant_basis_popov"),
    ("approx", "kernel_basis_popov", "kernel_basis_popov"),
    ("approx", "relations_mod_single_poly", "relations_mod_single_poly"),
    ("linalg", "relations_from_linear_algebra",
     "relations_from_linear_algebra"),
    ("relations", "relations_mod_hermite", "relations_mod_hermite"),
    ("relations", "known_degree_relations", "known_degree_relations"),
    ("relations", "hermite_form", "hermite_form"),
    ("relations", "popov_form", "popov_form"),
    ("relations", "relation_basis_general", "relation_basis_general"),
    ("cli", "parse_pmat", "parse_pmat"),
    ("cli", "emit_pmat", "emit_pmat"),
)

COEFF_PRODUCTS = "poly.mul_coeffs"
NTT_POINTS = "ntt.matmul_ntt"
MAX_DEPTH = "relations.relations_mod_hermite"


def _count_coeff_products(a, b, *_):
    return len(a) * len(b)


def _count_ntt_points(a_grid, b_grid, _p, out_len):
    # forward transforms of every entry of A and B, inverse of every entry of C
    r, k, c = len(a_grid), len(b_grid), len(b_grid[0])
    return (1 << (out_len - 1).bit_length()) * (r * k + k * c + r * c)


class Tracer:
    """Finds every binding of the traced functions at construction, then
    swaps wrappers in for one pass at a time with install/uninstall."""

    def __init__(self, package):
        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        self.labels = []
        self.bindings = []  # (owner, attribute, original, label)
        for modname, attr, label in TARGETS:
            label = "%s.%s" % (modname, label)
            self.labels.append(label)
            mod = sys.modules["%s.%s" % (prefix, modname)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self.bindings.append((cls, meth, cls.__dict__[meth], label))
                continue
            orig = getattr(mod, attr)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self.bindings.append((m, name, orig, label))
        self._stack = []
        self.stats = {label: [0, 0.0, 0, 0] for label in self.labels}
        self._wrappers = {}
        for _, _, orig, label in self.bindings:
            if label not in self._wrappers:
                self._wrappers[label] = self._wrap(orig, label)

    def reset(self):
        """Zero the per-pass statistics in place:
        [calls, self seconds, counter, open recursion depth]."""
        for s in self.stats.values():
            s[:] = [0, 0.0, 0, 0]

    def _wrap(self, fn, label):
        s = self.stats[label]
        stack = self._stack
        clock = perf_counter
        count = {COEFF_PRODUCTS: _count_coeff_products,
                 NTT_POINTS: _count_ntt_points}.get(label)
        track_depth = label == MAX_DEPTH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                s[2] += count(*args)
            elif track_depth:
                s[3] += 1
                s[2] = max(s[2], s[3])
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                s[0] += 1
                s[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if track_depth:
                    s[3] -= 1
        return wrapper

    def install(self):
        self.assert_pristine()
        self.reset()
        for owner, name, _, label in self.bindings:
            setattr(owner, name, self._wrappers[label])

    def uninstall(self):
        for owner, name, orig, _ in self.bindings:
            setattr(owner, name, orig)
        self.assert_pristine()

    def assert_pristine(self):
        """Every traced name is bound to the library's own function."""
        for owner, name, orig, _ in self.bindings:
            if vars(owner).get(name) is not orig:
                raise RuntimeError("%s.%s is not the original function"
                                   % (getattr(owner, "__name__", owner), name))
