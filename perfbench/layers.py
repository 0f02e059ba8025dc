"""The per-layer metrics: which library functions the traced run wraps,
which statistics each one reports, and which must be called on each
workload.

Metric names are ``<module>.<function>.<stat>`` with stat one of
``calls`` (exact count), ``self_s`` (time outside wrapped callees),
``total_s`` (time including callees) and ``hit_ratio`` (calls that returned
a value / calls; for ``poly_exact_div`` the share of trial divisions that
succeeded).  A layer idle on a workload reports 0 calls and 0 s there.
"""

LAYERS = [
    ("resultant.poly_matrix_det", ("calls", "self_s")),
    ("resultant.det_scalar", ("calls", "self_s")),
    ("resultant.sylvester_resultant", ("calls", "total_s")),
    ("resultant.resultant_nominal", ("calls", "self_s")),
    ("multipoly.poly_exact_div", ("calls", "self_s", "hit_ratio")),
    ("gcd.poly_gcd", ("calls", "self_s")),
    ("gcd.is_squarefree", ("calls", "total_s")),
    ("gcd.squarefree_part", ("calls", "total_s")),
    ("gcd.multiplicity_of_factor", ("calls", "total_s")),
    ("transform.conchoidal_transform", ("calls", "total_s")),
    ("transform.extract_known_components", ("calls", "total_s")),
    ("transform.membership_value", ("calls", "total_s")),
    ("transform.elimination_crosscheck", ("calls", "total_s")),
    ("recognize.recognize_complete", ("calls", "total_s")),
    ("recognize.recognize_proper", ("calls", "total_s")),
    ("recognize.iterated_conchoid", ("calls", "total_s")),
    ("recognize.candidate_radii", ("calls", "total_s")),
    ("roots.rational_roots", ("calls", "self_s")),
    ("roots.factor_binary_form", ("calls", "total_s")),
    ("roots.square_root_up_to_scalar", ("calls", "total_s")),
    ("linalg.solve_linear", ("calls", "self_s")),
    ("splitting.split_test", ("calls", "total_s")),
    ("splitting.witness_components", ("calls", "total_s")),
    ("splitting.conic_focus_split", ("calls", "total_s")),
    ("grammar.parse_poly", ("calls", "self_s")),
    ("grammar.poly_to_text", ("calls", "self_s")),
    ("plotting.render_svg", ("calls", "total_s")),
    ("cli.main", ("calls", "total_s")),
]

TARGETS = [name for name, _ in LAYERS]

# Functions a traced run must see at least once; the circle-case questions
# reach every wrapped layer.
_GENERIC = [
    "resultant.poly_matrix_det", "resultant.det_scalar", "multipoly.poly_exact_div",
    "roots.rational_roots",
    "gcd.poly_gcd", "gcd.is_squarefree", "gcd.multiplicity_of_factor",
    "transform.conchoidal_transform", "transform.extract_known_components",
    "roots.factor_binary_form",
]
REQUIRED = {"generic_q": _GENERIC, "generic_qi": _GENERIC, "circle_case": TARGETS}

# Shapes (deg B x deg C) of the two generic ladders.
SIZES = ("2x2", "2x3", "3x3", "4x4", "5x5")

RECOGNIZERS = ("recognize.recognize_complete", "recognize.recognize_proper")

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "total_s": ("s", "lower"), "hit_ratio": ("ratio", "higher")}


def per_layer_specs():
    """(name, unit, better) of every metric a traced run prints, in order."""
    specs = []
    for target, stats in LAYERS:
        for stat in stats:
            unit, better = _UNITS[stat]
            specs.append((f"{target}.{stat}", unit, better))
    specs.append(("recognize.transforms_per_question", "ratio", "lower"))
    for size in SIZES:
        specs.append((f"transform_s.{size}", "s", "lower"))
        specs.append((f"decompose_s.{size}", "s", "lower"))
    specs += [
        ("trace_overhead", "ratio", "lower"),
        ("fail_ratio", "ratio", "lower"),
        ("outputs_changed", "count", "lower"),
        ("outputs_compared", "count", "higher"),
    ]
    return specs
