"""Where the traced run hooks into kappatwist, and the per-layer metrics
it reports.

Every hook is installed from outside the package.  A module-level
function is replaced on every kappatwist module that binds it (hopf,
rexpand, cli and verify import names such as `canonicalize` directly, so
patching only the defining module would miss their calls); a method is
replaced on its class.
"""

from __future__ import annotations

import sys

from spans import Tracer

# (module, attribute path, span name) for calls recorded as spans
SPANNED = [
    ("algebra", "AlgebraElement.__mul__", "algebra.AlgebraElement.mul"),
    ("algebra", "act", "algebra.act"),
    ("algebra", "Polynomial.__mul__", "algebra.Polynomial.mul"),
    ("tensor", "TensorElement.__mul__", "tensor.TensorElement.mul"),
    ("tensor", "canonicalize", "tensor.canonicalize"),
    ("tensor", "t_exp", "tensor.t_exp"),
    ("tensor", "t_adjoint", "tensor.t_adjoint"),
    ("tensor", "t3_exp", "tensor.t3_exp"),
    ("tensor", "TensorElement3.__mul__", "tensor.TensorElement3.mul"),
    ("hopf", "TwistContext.__init__", "hopf.TwistContext.init"),
    ("hopf", "TwistContext.twist", "hopf.TwistContext.twist"),
    ("hopf", "TwistContext.twist_inverse", "hopf.TwistContext.twist_inverse"),
    (
        "hopf",
        "TwistContext.twist_opposite_inverse",
        "hopf.TwistContext.twist_opposite_inverse",
    ),
    ("hopf", "TwistContext.rmatrix", "hopf.TwistContext.rmatrix"),
    ("hopf", "TwistContext.coproduct", "hopf.TwistContext.coproduct"),
    ("hopf", "TwistContext.coproduct_hom", "hopf.TwistContext.coproduct_hom"),
    ("hopf", "TwistContext.verify_cocycle", "hopf.TwistContext.verify_cocycle"),
    ("hopf", "TwistContext.star_product", "hopf.TwistContext.star_product"),
    ("poincare", "realization", "poincare.realization"),
    ("poincare", "lorentz_coproduct", "poincare.lorentz_coproduct"),
    ("poincare", "boost_coproduct_closed_form", "poincare.boost_coproduct_closed_form"),
    ("poincare", "lorentz_algebra_check", "poincare.lorentz_algebra_check"),
    ("linsolve", "solve", "linsolve.solve"),
    ("rexpand", "bch_target", "rexpand.bch_target"),
    ("rexpand", "generate_ansatz", "rexpand.generate_ansatz"),
    ("rexpand", "solve_order", "rexpand.solve_order"),
    ("parser", "parse", "parser.parse"),
    ("parser", "elaborate", "parser.elaborate"),
]

# calls that are only counted: the scalar ring (about a million calls on
# an order-4 run, too many to span without distorting the run) and two
# cached lookups
COUNTED = [
    ("scalars", "Scalar.__mul__", "scalars.Scalar.mul.calls"),
    ("scalars", "Scalar.__add__", "scalars.Scalar.add.calls"),
    ("scalars", "LambdaPoly.__mul__", "scalars.LambdaPoly.mul.calls"),
    ("scalars", "GaussianRational.__mul__", "scalars.GaussianRational.mul.calls"),
    ("algebra", "monomial_product", "algebra.monomial_product.calls"),
    ("algebra", "z_power", "algebra.z_power.calls"),
]

CLI_SUBCOMMANDS = ("coproduct", "rexpand", "eval")

# the checks of run_suite("all", order=3, lam=None, quick=True), in report order
VERIFY_CHECKS = (
    "heisenberg-commutators",
    "product-associativity",
    "module-action-composition",
    "coproduct-a0-limit",
    "coproduct-homomorphism",
    "coproduct-two-routes",
    "cocycle-condition",
    "counit-normalization",
    "star-product-flip",
    "rmatrix-flip-inverse",
    "rmatrix-intertwines-coproducts",
    "rmatrix-twist-factorization",
    "kappa-coordinate-commutators",
    "lorentz-closure-case-i",
    "momentum-sector-case-i",
    "boost-coproduct-case-i",
)

# span name -> the fields of its summary that are reported
_SPAN_METRICS = [
    ("algebra.AlgebraElement.mul", ("calls", "self_s")),
    ("algebra.act", ("calls", "self_s")),
    ("algebra.Polynomial.mul", ("self_s",)),
    ("tensor.TensorElement.mul", ("calls", "self_s")),
    ("tensor.canonicalize", ("calls", "self_s")),
    ("tensor.t_exp", ("total_s",)),
    ("tensor.t_adjoint", ("total_s",)),
    ("tensor.t3_exp", ("total_s",)),
    ("tensor.TensorElement3.mul", ("self_s",)),
    *[
        (name, ("total_s",))
        for _, _, name in SPANNED
        if name.startswith(("hopf.", "poincare."))
    ],
    ("linsolve.solve", ("calls", "total_s")),
    ("rexpand.bch_target", ("total_s",)),
    ("rexpand.generate_ansatz", ("total_s",)),
    ("rexpand.solve_order", ("self_s",)),
    ("parser.parse", ("total_s",)),
    ("parser.elaborate", ("total_s",)),
    *[(f"cli.run.{sub}", ("total_s",)) for sub in CLI_SUBCOMMANDS],
]

# size counts recorded by the hooks' `after` callbacks
_SIZE_METRICS = (
    "tensor.TensorElement.mul.out_terms_max",
    "tensor.canonicalize.in_terms",
    "tensor.canonicalize.out_terms",
    "linsolve.solve.rows",
    "linsolve.solve.cols",
    "linsolve.solve.rank",
    "rexpand.equations",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for _, _, name in COUNTED:
        units[name] = "count"
    units["algebra.monomial_product.hit_ratio"] = "ratio"
    for name, fields in _SPAN_METRICS:
        for f in fields:
            units[f"{name}.{f}"] = "count" if f == "calls" else "s"
    for name in _SIZE_METRICS:
        units[name] = "count"
    for check in VERIFY_CHECKS:
        units[f"verify.check.{check}.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def is_count(name: str) -> bool:
    """True for metrics that must repeat exactly across traced runs."""
    return metric_units()[name] != "s" and name != "trace.overhead_ratio"


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _after_hooks(tracer: Tracer, linsolve) -> dict[str, object]:
    def tensor_mul(args, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            tracer.note_max("tensor.TensorElement.mul.out_terms_max", len(terms))

    def canonicalize(args, result):
        tracer.add("tensor.canonicalize.in_terms", len(args[0].terms))
        tracer.add("tensor.canonicalize.out_terms", len(result.terms))

    def solve(args, result):
        matrix, rhs = args[0], args[1]
        if isinstance(matrix, linsolve.ExactMatrix):
            cols = matrix.ncols
        else:
            cols = len(matrix[0]) if len(matrix) else 0
        tracer.add("linsolve.solve.rows", len(rhs))
        tracer.add("linsolve.solve.cols", cols)
        tracer.add("linsolve.solve.rank", result.rank)

    def solve_order(args, result):
        tracer.add("rexpand.equations", result.equations)

    return {
        "tensor.TensorElement.mul": tensor_mul,
        "tensor.canonicalize": canonicalize,
        "linsolve.solve": solve,
        "rexpand.solve_order": solve_order,
    }


class Instrumentation:
    """Installs the hooks on the loaded kappatwist package and removes
    them again; `per_layer()` turns what they recorded into metrics."""

    def __init__(self, tracer: Tracer):
        import kappatwist.cli  # noqa: F401  (loads every module that binds a hook)
        import kappatwist.linsolve as linsolve
        import kappatwist.rexpand  # noqa: F401
        import kappatwist.algebra as algebra

        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._monomial_product = algebra.monomial_product
        self._cache_start = algebra.monomial_product.cache_info()
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "kappatwist" or name.startswith("kappatwist.")
        }
        after = _after_hooks(tracer, linsolve)
        for mod, path, name in SPANNED:
            self._install(modules, mod, path, lambda fn: tracer.wrap(name, fn, after.get(name)))
        for mod, path, name in COUNTED:
            self._install(modules, mod, path, lambda fn: tracer.count(name, fn))

    def _install(self, modules, mod: str, path: str, make) -> None:
        """Replace the function at `path` in kappatwist.`mod` by make(it): a
        method on its class, a function on every module that binds it."""
        owner, attr = _resolve(modules[f"kappatwist.{mod}"], path)
        original = owner.__dict__[attr]
        wrapper = make(original)
        targets = [owner] if isinstance(owner, type) else modules.values()
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, name, value))
                    setattr(target, name, wrapper)

    def remove(self) -> None:
        self._cache_end = self._monomial_product.cache_info()
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def per_layer(self, verify_seconds: dict[str, float]) -> dict[str, float]:
        """Every metric of metric_units() except trace.overhead_ratio."""
        t = self.tracer
        summary = t.summary()
        out: dict[str, float] = {}
        for name, unit in metric_units().items():
            if name == "trace.overhead_ratio":
                continue
            if name in t.counters:
                out[name] = t.counters[name][0]
            elif name in _SIZE_METRICS:
                out[name] = t.maxima.get(name, 0)
            elif name.startswith("verify.check."):
                out[name] = verify_seconds.get(name[len("verify.check.") : -2], 0.0)
            elif name == "algebra.monomial_product.hit_ratio":
                hits = self._cache_end.hits - self._cache_start.hits
                misses = self._cache_end.misses - self._cache_start.misses
                out[name] = hits / (hits + misses) if hits + misses else 0.0
            else:
                span, field = name.rsplit(".", 1)
                out[name] = summary.get(span, {}).get(field, 0 if unit == "count" else 0.0)
        return out

