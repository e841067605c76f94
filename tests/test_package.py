"""The package surface: the public names the modules' __all__ export, the
library callers of its functions, the integrator's settings, the energy
audit's and the a_c search's fields, the command line's flags and the
README's quick start."""

import argparse
import ast
import dataclasses
import pathlib
import re
import types
import warnings

import plks
from plks.cli import _build_parser

# the package's public names; a name dropped from a module's __all__ would
# vanish from the package without notice
_PUBLIC = {
    "AmbiguousBracketError", "BadBracketError", "Classification",
    "CompactTail", "CriticalResult", "DecayFit",
    "DeltaTestError", "Direction", "DomainError", "EnergyCheck",
    "EnergyLawError", "Event", "EventKind",
    "ForwardProfile", "IllPosedPotentialError",
    "InfiniteMassError", "InsufficientRangeError", "IntegrationError",
    "IntegratorOptions", "LogQuadraticTail",
    "ModelParams", "NegativeBaseError", "NoSupportRadiusError",
    "OutOfTimeDomainError",
    "PhiProfile", "PlksError", "PowerTail", "ProfileClass",
    "ProfileSolution", "PsiProfile", "RadialODE", "Regime",
    "SelfSimilarSolution", "StepStats", "SupportEdge", "SweepResult",
    "SystemResidual", "Termination", "admissible_p_threshold", "assemble",
    "backward_ode", "classify", "compact_support_admissible", "delta_test",
    "derive_params", "energy",
    "energy_derivative_check", "evaluate",
    "find_critical_a", "fit_decay_rate", "forward_ode", "integrate",
    "kinetic_energy", "limit_ode", "mass",
    "phi_from_forward", "phi_from_u", "phi_of_u",
    "psi_from_phi", "psi_well_posed_threshold", "radial_delta_test",
    "residual_grade", "solve_backward", "solve_forward",
    "support_radius", "support_radius_upper_bound", "surface_area_unit_ball",
    "sweep_a", "system_residual", "uprime_from_w", "zero_energy_height",
}

# public functions no library module calls yet, each with the ROADMAP item
# that gives it a caller or removes it
_UNCALLED = {
    "evaluate": "items 2 and 10",
    "limit_ode": "items 3 and 7",
    "delta_test": "item 1 (only bench/ calls it)",
}

# the private names one module of src/plks imports from another, as
# (importer, source, name): a new one shows up as a change to this set
_PRIVATE_IMPORTS = {("cli", "reconstruct", "_profile"),
                    ("reconstruct", "radial_ode", "_odd_pow_np")}

# the integrator's settings: a new option shows up as a change to this tuple
_INTEGRATOR_OPTIONS = (
    "rel_tol", "abs_tol", "r_max", "r0",
    "stop_at_u_zero", "stop_at_first_minimum", "h_max",
)

# the energy audit's figures: a figure added back to EnergyCheck shows up
# as a change to this tuple
_ENERGY_CHECK = ("max_increase", "max_drift", "e0", "scale", "passed")

# the a_c search's result, every field required: a field added back, or
# one left unset on some path, shows up as a change to this tuple or test
_CRITICAL_RESULT = ("a_c", "bracket_width", "R_c", "n_iterations",
                    "classification", "lower", "upper", "trace")

# each subcommand's option strings, in the parser's order: a new flag
# shows up as a change to this table
_COMMON_FLAGS = ("-h", "--help", "--N", "--p", "--chi", "--r-max", "--rel-tol",
                 "--abs-tol", "--output", "--format", "--timing", "--gnuplot")
_CLI_OPTIONS = {
    "solve-backward": _COMMON_FLAGS + ("--a",),
    "solve-forward": _COMMON_FLAGS + ("--b", "--fit-decay"),
    "find-critical": _COMMON_FLAGS + ("--a-lo", "--a-hi", "--a-tol"),
    "sweep": _COMMON_FLAGS + ("--a-grid",),
    "reconstruct": _COMMON_FLAGS + ("--a", "--b", "--residual-grade"),
    "delta-test": _COMMON_FLAGS + ("--a", "--b", "--T", "--t0", "--ratio",
                                   "--steps"),
}


def _public() -> dict:
    """The package's public names and their values; forward's and
    reconstruct's load on the first read of any of them."""
    plks.solve_forward
    return {n: v for n, v in vars(plks).items()
            if not n.startswith("_") and not isinstance(v, types.ModuleType)}


def test_public_names_are_pinned():
    assert set(_public()) == _PUBLIC


def test_lazy_names_are_the_modules_own():
    import plks.forward
    import plks.reconstruct
    for module in (plks.forward, plks.reconstruct):
        assert all(getattr(plks, n) is getattr(module, n) for n in module.__all__)
    for name in ("no_such_name", "_profile"):
        assert not hasattr(plks, name)


def _library_references() -> set:
    """Every name the modules of src/plks load, outside the body of a
    function of the same name (a def and __all__'s strings load nothing)."""
    refs = set()

    def visit(node, inside):
        if isinstance(node, ast.Name) and node.id not in inside:
            refs.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in pathlib.Path(plks.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    return refs


def test_public_functions_have_library_callers():
    functions = {n for n, v in _public().items()
                 if isinstance(v, types.FunctionType)}
    refs = _library_references()
    assert functions - refs == set(_UNCALLED)


def test_private_cross_imports_are_pinned():
    found = set()
    for path in pathlib.Path(plks.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {(path.stem, node.module, a.name) for a in node.names
                          if a.name.startswith("_")}
    assert found == _PRIVATE_IMPORTS


def test_library_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    for path in pathlib.Path(plks.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(n.split(".")[0] != "scipy" for n in names), path.name


def test_integrator_options_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(plks.IntegratorOptions))
    assert fields == _INTEGRATOR_OPTIONS


def test_energy_check_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(plks.EnergyCheck))
    assert fields == _ENERGY_CHECK


def test_critical_result_fields_are_pinned_and_required():
    fields = dataclasses.fields(plks.CriticalResult)
    assert tuple(f.name for f in fields) == _CRITICAL_RESULT
    assert all(f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING for f in fields)


def test_cli_options_are_pinned():
    top = _build_parser()
    sub = next(a for a in top._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: tuple(s for a in sp._actions for s in a.option_strings)
               for name, sp in sub.choices.items()}
    assert options == _CLI_OPTIONS


def test_readme_quick_start_runs_without_warnings(capsys):
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "PPPPPPPPPPPPNNNN"     # the sweep, as its comment says
    assert "np.float64" not in out[-1]      # the deviations are plain floats
