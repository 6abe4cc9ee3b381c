"""Command-line interface.

Subcommands: report, sweep, optimize, simulate, sensitivity. Exit codes:
0 success, 1 I/O failure, 2 validation failure, 3 infeasible search.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import stat
import sys

from .configfile import KIND_FLOAT, get_value, key_spec, load_config, set_value
from .constants import to_display_hz
from .dynamics import evolve_occupation, normal_modes
from .errors import (ConfigError, InfeasibleError, InvalidGeometryError,
                     SingularConfigurationError)
from .report import build_report, display_quantity, render_json, render_text
from .steady_state import EVALUATION_ERRORS, evaluate
from .sweep import OptimizeSpec, SweepSpec, optimize, run_sweep

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3

#: the largest relative step `sensitivity` takes
MAX_REL_STEP = 0.1
#: `sensitivity` rejects perturbed occupations that differ, but by at most this
#: many ulps: each carries a few ulps of roundoff, which would set the printed digits
ROUNDOFF_ULPS = 1000


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="levicool",
        description=("Modeling toolkit for sympathetic cooling of an optically "
                     "levitated nanosphere by lattice-trapped cold atoms."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="evaluate one configuration")
    report.add_argument("--config", required=True)
    report.add_argument("--format", choices=("text", "json"), default="text")

    sweep = sub.add_parser("sweep", help="map n_ss over (radius, atom count)")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--radius", default="50:300:26",
                       help="radius grid, nm, as lo:hi:steps")
    sweep.add_argument("--atoms", default="1e6:1e8:21",
                       help="atom-count grid as lo:hi:steps")
    sweep.add_argument("--log-atoms", action="store_true",
                       help="log-space the atom-count grid")
    sweep.add_argument("--out", required=True, help="CSV output path")

    opt = sub.add_parser("optimize", help="minimize n_ss under regime constraints")
    opt.add_argument("--config", required=True)
    opt.add_argument("--vary", default="", help="comma-separated config keys")
    opt.add_argument("--bounds", default="",
                     help="comma-separated lo:hi pairs matching --vary")
    opt.add_argument("--require", default="",
                     help="comma-separated regime flags that must hold")
    opt.add_argument("--trace-out", default=None, help="write the search trace CSV")
    opt.add_argument("--format", choices=("text", "json"), default="text")

    sim = sub.add_parser("simulate", help="time-evolve the sphere occupation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--t-end", type=float, default=1e-3, help="s")
    sim.add_argument("--dt", type=float, default=None,
                     help="s; default 0.02 of the relaxation time")
    sim.add_argument("--n0", type=float, default=None,
                     help="initial occupation; default: thermal")
    sim.add_argument("--cooling-off-at", type=float, default=None, help="s")
    sim.add_argument("--out", required=True, help="trace CSV output path")

    sens = sub.add_parser("sensitivity",
                          help="central-difference response of n_ss to one key")
    sens.add_argument("--config", required=True)
    sens.add_argument("--param", required=True)
    sens.add_argument("--rel-step", type=float, default=0.01)
    sens.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`argv` with each long option and a following value starting "-<digit>" or
    "-." joined by "=": argparse reads `--dt -1e-9` as two options, `--dt=-1e-9`
    as one."""
    joined = []
    for arg in argv:
        option = joined[-1] if joined else ""
        if option.startswith("--") and len(option) > 2 and re.match(r"-[0-9.]", arg):
            arg = f"{joined.pop()}={arg}"
        joined.append(arg)
    return joined


def _shown(value: float) -> str:
    """A number in a command's header, as a report row shows it."""
    return display_quantity(value)[1]


def _load(path: str):
    try:
        return load_config(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None


def _write_text(path: str, text: str) -> None:
    """`Path(path).write_text(text, encoding="utf-8")`, but an existing file is cut
    to the new length after the write, not to zero before it: that frees every old
    block, which costs about a millisecond a few hundred KB where the filesystem
    is mounted with `discard`. A device such as /dev/null cannot be truncated.
    Written in slices, whose encoded copies reuse the C allocator's heap."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as file:
        file.writelines(text[at:at + 65536] for at in range(0, len(text), 65536))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            file.truncate()


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} must be lo:hi:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"--{name} must be numeric lo:hi:steps, got {text!r}") from None
    return lo, hi, steps


def _cmd_report(args) -> int:
    config = _load(args.config)
    derived, bundle, steady = evaluate(config)
    document = build_report(config, derived, bundle, steady)
    if args.format == "json":
        sys.stdout.write(render_json(document))
    else:
        sys.stdout.write(render_text(document))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load(args.config)
    r_lo, r_hi, r_steps = _parse_range(args.radius, "radius")
    a_lo, a_hi, a_steps = _parse_range(args.atoms, "atoms")
    spec = SweepSpec(
        base_config=config,
        radius_start=r_lo * 1e-9, radius_stop=r_hi * 1e-9, radius_steps=r_steps,
        atoms_start=a_lo, atoms_stop=a_hi, atoms_steps=a_steps,
        log_atoms=args.log_atoms,
    )
    result = run_sweep(spec)
    _write_text(args.out, result.to_csv())
    print(f"wrote {len(result.cells)} rows to {args.out}")
    best = result.min_occupation_cell()
    if best is None:
        print("no valid cells")
    else:
        radius, atom_count, occupation = best
        print(f"min n_ss = {_shown(occupation)} at "
              f"a = {_shown(radius * 1e9)} nm, "
              f"N_at = {_shown(atom_count)}")
        print(f"strong-coupling fraction = "
              f"{_shown(result.strong_coupling_fraction())}")
    return EXIT_OK


def _split_csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _cmd_optimize(args) -> int:
    config = _load(args.config)
    variables = tuple(_split_csv_list(args.vary))
    bound_parts = _split_csv_list(args.bounds)
    if len(bound_parts) != len(variables):
        raise ConfigError("--bounds must supply one lo:hi pair per --vary key")
    bounds = {}
    for name, part in zip(variables, bound_parts):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"bad bounds {part!r} for {name!r}; expected lo:hi")
        try:
            bounds[name] = (float(pieces[0]), float(pieces[1]))
        except ValueError:
            raise ConfigError(f"bad bounds {part!r} for {name!r}") from None
    spec = OptimizeSpec(
        base_config=config,
        variables=variables,
        bounds=bounds,
        require=tuple(_split_csv_list(args.require)),
    )
    result = optimize(spec)

    if args.trace_out:
        _write_text(args.trace_out, result.trace_csv())

    document = build_report(result.config, result.derived, result.bundle, result.report)
    if args.format == "json":
        sys.stdout.write(render_json({**document, "optimize": {
            "best": result.best_values,
            "n_ss": result.report.occupation,
            "evaluations": len(result.trace),
        }}))
    else:
        print("[optimize]")
        for name in variables:
            print(f"{name} = {_shown(result.best_values[name])}")
        print(f"n_ss = {_shown(result.report.occupation)}")
        print(f"evaluations = {len(result.trace)}")
        print()
        sys.stdout.write(render_text(document))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load(args.config)
    derived, bundle, steady = evaluate(config)
    relaxation = bundle.gas_damping + bundle.cooling
    dt = args.dt if args.dt is not None else 0.02 / relaxation
    n0 = args.n0 if args.n0 is not None else bundle.thermal_occupation
    trace = evolve_occupation(bundle, n0, args.t_end, dt,
                              cooling_off_at=args.cooling_off_at)
    _write_text(args.out, trace.to_csv())
    print(f"wrote {len(trace.times)} samples to {args.out}")
    print(f"final n_m = {_shown(trace.final_occupation)}")
    print(f"steady-state n_ss (cooling on) = {_shown(steady.occupation)}")
    if steady.flags.strong_coupling:
        modes = normal_modes(
            bundle.sphere_frequency, bundle.atom_frequency, bundle.coupling,
            sphere_damping=(bundle.sphere_backaction + bundle.sphere_recoil
                            + bundle.thermalization),
            atom_damping=bundle.atom_diffusion,
        )
        print("[normal_modes]")
        for label, branch in (("lower", modes.lower), ("upper", modes.upper)):
            print(f"{label} = 2pi x {_shown(to_display_hz(branch.frequency))} Hz "
                  f"(damping 2pi x {_shown(to_display_hz(branch.damping))} Hz)")
        print(f"splitting = 2pi x {_shown(to_display_hz(modes.splitting))} Hz")
        print(f"resolved = {'true' if modes.resolved else 'false'}")
    return EXIT_OK


def _within_roundoff(low: float, high: float) -> bool:
    """Whether two occupations differ by at most `ROUNDOFF_ULPS` ulps."""
    return abs(high - low) <= ROUNDOFF_ULPS * math.ulp(max(low, high))


def _ignores_at_max_step(config, param: str, base_value: float) -> bool:
    """Whether n_ss stays within roundoff between `param` at (1 -/+ `MAX_REL_STEP`)
    times `base_value`; False where the model rejects either value."""
    try:
        return _within_roundoff(*(evaluate(set_value(config, param, base_value * factor))[2]
                                  .occupation for factor in (1 - MAX_REL_STEP, 1 + MAX_REL_STEP)))
    except EVALUATION_ERRORS:
        return False


def _cmd_sensitivity(args) -> int:
    config = _load(args.config)
    if key_spec(args.param).kind != KIND_FLOAT:
        raise ConfigError(f"{args.param!r} is not a numeric key")
    if not 0 < args.rel_step <= MAX_REL_STEP:
        raise ConfigError(f"--rel-step must be in (0, {MAX_REL_STEP!r}]")
    base_value = get_value(config, args.param)
    if base_value is None or base_value == 0:
        raise ConfigError(
            f"{args.param!r} must be set and nonzero for a relative step")

    low_value = base_value * (1.0 - args.rel_step)
    high_value = base_value * (1.0 + args.rel_step)
    # ln|x| makes the elasticity x/n dn/dx for a negative value too
    log_span = math.log(abs(high_value)) - math.log(abs(low_value))
    if log_span == 0:
        raise ConfigError(f"--rel-step {args.rel_step!r} is too small to separate the "
                          f"perturbed values of {args.param!r}")
    # (config, derived, bundle, steady) of each perturbed point
    points = {}
    for label, value in (("low", low_value), ("high", high_value)):
        perturbed = set_value(config, args.param, value)
        points[label] = (perturbed, *evaluate(perturbed))
    results = {label: point[3].occupation for label, point in points.items()}
    if results["high"] != results["low"] and _within_roundoff(*results.values()):
        if _ignores_at_max_step(config, args.param, base_value):
            raise ConfigError(f"n_ss does not depend on {args.param!r} beyond roundoff: "
                              f"the largest --rel-step, {MAX_REL_STEP!r}, changes it by "
                              f"{ROUNDOFF_ULPS} ulps or less")
        raise ConfigError(f"--rel-step {args.rel_step!r} changes n_ss by {ROUNDOFF_ULPS} "
                          f"ulps or less between the perturbed values of {args.param!r}, "
                          "so the elasticity would be roundoff")
    _, _, steady_base = evaluate(config)

    derivative = (results["high"] - results["low"]) / (high_value - low_value)
    if results["high"] > 0 and results["low"] > 0:
        elasticity = (math.log(results["high"]) - math.log(results["low"])) / log_span
    else:
        elasticity = math.nan

    if args.format == "json":
        sys.stdout.write(render_json({
            "sensitivity": {
                "param": args.param,
                "rel_step": args.rel_step,
                "base_value": base_value,
                "base_n_ss": steady_base.occupation,
                "low_value": low_value,
                "low_n_ss": results["low"],
                "high_value": high_value,
                "high_n_ss": results["high"],
                "d_n_ss_d_param": derivative,
                "elasticity": elasticity,
            },
            "report_low": build_report(*points["low"]),
            "report_high": build_report(*points["high"]),
        }))
    else:
        print("[sensitivity]")
        print(f"param = {args.param}")
        print(f"base_value = {_shown(base_value)}")
        print(f"base_n_ss = {_shown(steady_base.occupation)}")
        print(f"low:  value = {_shown(low_value)}, "
              f"n_ss = {_shown(results['low'])}")
        print(f"high: value = {_shown(high_value)}, "
              f"n_ss = {_shown(results['high'])}")
        print(f"d_n_ss_d_param = {_shown(derivative)}")
        print(f"elasticity = {_shown(elasticity)}")
    return EXIT_OK


_COMMANDS = {
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "sensitivity": _cmd_sensitivity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InvalidGeometryError, SingularConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: the model's arithmetic failed ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.violated:
            print(f"violated constraints: {', '.join(exc.violated)}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
