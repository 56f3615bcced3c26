"""Command-line interface covering the whole pipeline.

Every successful invocation writes <subcommand>_manifest.json next to its
outputs, last, so any result can be re-derived from the recorded parameters
and seed.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from .analysis import (brute_force_oracle, construct_optimal_odd,
                       detect_singularities, optimal_tps, point_filled,
                       run_experiment, structure_report)
from .ca import SELECTIONS, CaConfig, run_ca
from .ga import GaConfig, run_ga
from .grid import PatternError, parse, serialize
from .payoff import (characteristic, expected_wealth, total_payoff_grid,
                     wealth)
from .render import ppm_bytes
from .templates import (RULE_SIZES, TemplateSet, builtin_set,
                        extract_templates, parse_templates,
                        serialize_templates)

_RULES = [str(size) for size in RULE_SIZES]  # the built-in rule choices
_RULE_HELP = "A built-in rule (8, 36, 52) or a template file."
_MAX_WEALTH_ROWS = 1_000_001  # expected-wealth rows at a step of 1e-6
_PARSERS = {"pattern": parse, "template": parse_templates}


def _read(path: str, kind: str = "pattern"):
    """The pattern or template set in a file; PatternError names the file."""
    try:
        return _PARSERS[kind](Path(path).read_text())
    except FileNotFoundError:
        raise PatternError(f"input file not found: {path}") from None
    except PatternError as exc:
        raise PatternError(f"bad {kind} file {path}: {exc}") from None


def _rule(rule: str) -> TemplateSet:
    """The built-in rule of that size, else the templates in that file."""
    if rule in _RULES:
        return builtin_set(int(rule))
    if not Path(rule).is_file():
        raise PatternError(f"--rule {rule}: neither a built-in rule "
                           f"({', '.join(_RULES)}) nor a template file")
    ts = _read(rule, "template")
    if not len(ts):  # a rule of pure noise
        raise PatternError(f"bad template file {rule}: no template")
    return ts


def _write(ctx, name: str, data: str | bytes) -> None:
    """Write one file into the out-dir, creating the out-dir on first use."""
    out = Path(ctx.obj["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_bytes(data if isinstance(data, bytes)
                             else data.encode())


def _report(ctx, name: str, doc: dict) -> None:
    """Write doc to the out-dir as indented JSON and echo it as one line."""
    _write(ctx, name, json.dumps(doc, indent=2) + "\n")
    click.echo(json.dumps(doc))


class _Command(click.Command):
    """A subcommand under the CLI contract.

    A ValueError (PatternError included), an OSError or a MemoryError
    becomes {"error": {"stage": ..., "message": ...}} on stderr with exit
    1. A run that returns normally writes <subcommand>_manifest.json last,
    recording every parameter under its click name. Click's usage errors
    keep exit 2.
    """

    def invoke(self, ctx):
        try:
            result = super().invoke(ctx)
            manifest = {
                "subcommand": ctx.info_name,
                "params": ctx.params,
                "seed": ctx.obj["seed"],
                "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(),
            }
            _write(ctx, f"{ctx.info_name}_manifest.json",
                   json.dumps(manifest, indent=2) + "\n")
        except (ValueError, OSError, MemoryError) as exc:
            click.echo(json.dumps({"error": {
                "stage": ctx.info_name,
                "message": str(exc) or type(exc).__name__}}), err=True)
            ctx.exit(1)
        return result


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group, context_settings={"show_default": True})
@click.option("--seed", type=int, default=0,
              help="Master seed; all randomness derives from it.")
@click.option("--jobs", type=int, default=1,
              help="Worker processes for bench.")
@click.option("--out-dir", type=click.Path(), default=".")
@click.pass_context
def main(ctx, seed, jobs, out_dir):
    """Evolve, analyze and render wealth-optimal binary patterns."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, jobs=jobs, out_dir=out_dir)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--pop", type=int, default=GaConfig.population_size)
@click.option("--p1", type=float, default=GaConfig.p1)
@click.option("--p2", type=float, default=GaConfig.p2)
@click.option("--iters", type=int, default=GaConfig.max_iterations)
@click.option("--target", type=float, default=None,
              help="Stop once the best fitness (TPS) reaches this value.")
@click.option("--top", type=int, default=3,
              help="How many best patterns to write out.")
@click.pass_context
def ga(ctx, n, pop, p1, p2, iters, target, top):
    """Search optimal patterns with the genetic algorithm."""
    if top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    cfg = GaConfig(population_size=pop, p1=p1, p2=p2, max_iterations=iters,
                   target_fitness=target, seed=ctx.obj["seed"])
    result = run_ga(cfg, n)
    for rank, sol in enumerate(result.solutions[:top]):
        _write(ctx, f"ga_best_{rank}.txt", serialize(sol.pattern))
    optimum = optimal_tps(n)  # None where no closed form is known
    _report(ctx, "ga_summary.json", {
        "best_tps": result.best_fitness,
        "best_wealth": wealth(result.best.pattern),
        "optimal_tps": optimum,
        "tps_gap": None if optimum is None else optimum - result.best_fitness,
        "iterations_used": result.iterations,
        "seed": ctx.obj["seed"],
    })


@main.command()
@click.option("--rule", required=True, help=_RULE_HELP)
@click.option("--n", type=int, default=None)
@click.option("--tlimit", type=int, default=CaConfig.t_limit)
@click.option("--init", "init_path", type=click.Path(), default=None,
              help="Start pattern file (overrides --init-density).")
@click.option("--init-density", type=float, default=CaConfig.init_density)
@click.option("--select", type=click.Choice(SELECTIONS),
              default=CaConfig.selection)
@click.option("--pi01", type=float, default=CaConfig.pi_01)
@click.option("--pi10", type=float, default=CaConfig.pi_10)
@click.option("--dump-every", type=int, default=0,
              help="Dump the pattern every k generations.")
@click.pass_context
def evolve(ctx, rule, n, tlimit, init_path, init_density, select, pi01, pi10,
           dump_every):
    """Evolve a pattern with the template CA rule."""
    if dump_every < 0:
        raise ValueError(f"dump-every must be >= 0, got {dump_every}")
    start = _read(init_path) if init_path else None
    cfg = CaConfig(templates=_rule(rule), pi_01=pi01, pi_10=pi10,
                   selection=select, init_density=init_density,
                   t_limit=tlimit, seed=ctx.obj["seed"])

    def dump(state):  # run_ca calls it only once its input is checked
        if state.t % dump_every == 0:
            _write(ctx, f"evolve_t{state.t:05d}.txt", serialize(state.pattern))

    result = run_ca(cfg, n=n, start=start,
                    on_generation=dump if dump_every else None)
    _write(ctx, "evolve_final.txt", serialize(result.final))
    _write(ctx, "evolve_trace.csv", "t,tps,wealth,stable\n" + "".join(
        f"{row.t},{row.tps:g},{row.wealth:.6f},{int(row.stable)}\n"
        for row in result.trace))
    _report(ctx, "evolve_summary.json", {
        "w_max": result.w_max, "t_max": result.t_max, "stable": result.stable,
        "tps_final": result.tps_final, "stop_reason": result.stop_reason,
        "changes": result.changes})


@main.command()
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--no-complete", is_flag=True,
              help="Skip symmetry completion of the extracted set.")
@click.pass_context
def extract(ctx, in_path, no_complete):
    """Extract 3x3 templates from a pattern."""
    ts = extract_templates(_read(in_path), complete=not no_complete)
    _write(ctx, "extract_templates.txt", serialize_templates(ts))
    _report(ctx, "extract_summary.json", {
        "count": len(ts), "labels": ts.labels(),
        "ambiguous_rings": _ambiguous_rings(ts)})


def _ambiguous_rings(ts: TemplateSet) -> int:
    """Outer rings that carry both centers in ts: their cells never settle."""
    return len(ts) - len({t.outer_code() for t in ts})


@main.command()
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.pass_context
def analyze(ctx, in_path):
    """Report structure counts and the characteristic of a pattern."""
    p = _read(in_path)
    rep = structure_report(p)
    cc = characteristic(p)
    _report(ctx, "analyze.json", {
        "structure": dataclasses.asdict(rep),
        "characteristic": dataclasses.asdict(cc),
        "singularity_positions": detect_singularities(p)})


@main.command()
@click.option("--n", type=int, required=True)
@click.pass_context
def construct(ctx, n):
    """Build the optimal odd-size pattern in closed form."""
    text = serialize(construct_optimal_odd(n))
    _write(ctx, "construct.txt", text)
    click.echo(text, nl=False)


@main.command()
@click.option("--n", type=int, required=True)
@click.pass_context
def oracle(ctx, n):
    """Exhaustively verify the optimum for a small size."""
    res = brute_force_oracle(n)
    _report(ctx, "oracle.json", {
        "max_tps": res.max_tps, "n_optima": res.n_optima,
        "representatives": [p.rows() for p in res.representatives]})


@main.command()
@click.option("--rule", required=True, help=_RULE_HELP)
@click.option("--n", type=int, required=True)
@click.option("--runs", type=int, default=100)
@click.option("--tlimit", type=int, default=CaConfig.t_limit)
@click.option("--point-filled", "use_points", is_flag=True,
              help="Start every run from the point-filled pattern.")
@click.pass_context
def bench(ctx, rule, n, runs, tlimit, use_points):
    """Statistics over many independent CA runs.

    n_opt_found counts the runs that reach the known optimum for n (null
    where none is known).
    """
    cfg = CaConfig(templates=_rule(rule), t_limit=tlimit,
                   seed=ctx.obj["seed"])
    start = point_filled(n) if use_points else None
    summary = run_experiment(cfg, n, runs, start=start, jobs=ctx.obj["jobs"])
    doc = dataclasses.asdict(summary)
    doc.pop("runs")
    _write(ctx, "bench_histogram.csv", "wealth,count\n" + "".join(
        f"{w:.4f},{c}\n" for w, c in summary.wealth_histogram))
    _report(ctx, "bench_summary.json", doc)


@main.command("expected-wealth")
@click.option("--step", type=float, default=0.01)
@click.pass_context
def expected_wealth_cmd(ctx, step):
    """Mean-field wealth curve over the cooperation rate, as CSV."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must be in (0, 1], got {step}")
    last = (1 + 1e-12) / step  # last row's index before flooring; may be inf
    if last >= _MAX_WEALTH_ROWS:
        raise ValueError(f"step {step} gives more than {_MAX_WEALTH_ROWS} "
                         f"rows; use a step of at least 1e-6")
    rates = (min(k * step, 1.0) for k in range(int(last) + 1))
    text = "pi_C,W\n" + "".join(
        f"{pi_c:.6g},{expected_wealth(pi_c):.6g}\n" for pi_c in rates)
    _write(ctx, "expected_wealth.csv", text)
    click.echo(text, nl=False)


@main.command()
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--scale", type=int, default=1)
@click.option("--quad", is_flag=True)
@click.option("--mark-singularities", is_flag=True)
@click.pass_context
def render(ctx, in_path, scale, quad, mark_singularities):
    """Render a pattern to a binary PPM image."""
    _write(ctx, "render.ppm", ppm_bytes(
        _read(in_path), scale=scale, quad=quad,
        mark_singularities=mark_singularities))
    click.echo(Path(ctx.obj["out_dir"]) / "render.ppm")


@main.command("payoff-map")
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.pass_context
def payoff_map(ctx, in_path):
    """Per-cell total payoffs as a text grid."""
    grid = total_payoff_grid(_read(in_path))
    width = max(len(f"{v:g}") for v in grid.reshape(-1))
    text = "\n".join(
        " ".join(f"{v:{width}g}" for v in row) for row in grid) + "\n"
    _write(ctx, "payoff_map.txt", text)
    click.echo(text, nl=False)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--iters", type=int, default=GaConfig.max_iterations)
@click.option("--tlimit", type=int, default=2000)
@click.option("--rule", default=None, help=_RULE_HELP + " Default: the "
              "templates extracted from the GA best.")
@click.option("--target", type=float, default=None,
              help="GA early-stop fitness; defaults to the known optimum "
                   "when one is available.")
@click.pass_context
def pipeline(ctx, n, iters, tlimit, rule, target):
    """Full chain: ga, extract, evolve and analyze into one out-dir."""
    seed, out = ctx.obj["seed"], Path(ctx.obj["out_dir"])
    goal = optimal_tps(n) if target is None else target
    # check every setting before the first step writes
    GaConfig(max_iterations=iters, target_fitness=goal, seed=seed)
    CaConfig(templates=_rule(rule) if rule else TemplateSet(()),
             t_limit=tlimit, seed=seed)
    ctx.invoke(ga, n=n, iters=iters, target=goal, top=1)
    ctx.invoke(extract, in_path=str(out / "ga_best_0.txt"))
    ctx.invoke(evolve, rule=rule or str(out / "extract_templates.txt"), n=n,
               tlimit=tlimit)
    ctx.invoke(analyze, in_path=str(out / "evolve_final.txt"))


if __name__ == "__main__":
    main()
