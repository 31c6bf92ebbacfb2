"""resodec benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from the
checkout's own ``src/`` (nothing to build).  Workloads are described in
``workloads.py``; metric names and units come from ``BENCHMARK.json``.

A run has three phases:

1. Set-up: several fresh interpreters (``setup_probe.py``) each import
   resodec, load the workload's configuration files and build its
   inputs from the seed.  ``setup_s`` is the median of their totals.
2. Timed phase: whole passes over the workload's operations, repeated
   while the next pass, judged by the last one, ends within
   ``--seconds`` (at least two passes).  ``wall_s`` is the sum over the
   operations of each one's median time, so one slow pass moves it
   little; output checks run between passes, outside the timed region.
   ``peak_rss_mb`` is the peak RSS of this process, or of the largest
   command-line child for ``cli-cold``, at the end of the first pass
   (later passes add only allocator fragmentation).
3. Report: human-readable lines, a results file under
   ``.perfbench_out/`` (machine info, per-operation times, checks,
   warnings and, when traced, spans and predicted-versus-measured layer
   shares), and as the last line one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the timed phase alternates untraced and traced
passes; spans are recorded around each layer's public entry points
(``tracing.py``), and the per-layer metrics of ``BENCHMARK.json`` are
reported instead of the end-to-end ones, together with the tracing
overhead (median traced minus median untraced pass time).

``wall_s`` and ``setup_s`` are reported at reference speed
(``reference.py``): each operation's and each set-up probe's time is
divided by a host speed factor, timed with a fixed reference right
before and right after it, which takes out much of the drift in the
host's speed.  The measured times are printed and stored beside them.
Per-layer times are as measured.

BLAS/OpenMP threads are capped at the number of usable CPUs and
resodec's thread pool is set to 1, for this process and its children.
Children keep their bytecode caches under ``.perfbench_out/pycache``,
so the first set-up probe in a fresh checkout pays for compilation and
the median does not.
"""

import os
import sys


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


NPROC = _usable_cpus()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# set before numpy is imported anywhere, and inherited by every child
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)
os.environ["RESODEC_PARALLEL"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0xD1CE
SETUP_PROBES = 3
#: passes made whatever ``--seconds`` says, so that a median has two
#: values to work with
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up probe (smoke check)")
    return parser.parse_args(argv)


def fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src" / "resodec"
    if not (src / "__init__.py").is_file() \
            or not (ROOT / "demos" / "configs").is_dir():
        return fail(f"no resodec sources under {ROOT}; run from the root "
                    "of a resodec checkout", 2)
    if args.seed < 0:
        return fail("--seed must be >= 0", 2)

    sys.path.insert(0, str(ROOT / "src"))
    # keep the benchmark's own directory free of bytecode caches
    sys.dont_write_bytecode = True
    import resodec
    if Path(resodec.__file__).resolve().parent != src.resolve():
        return fail(f"imported resodec from {resodec.__file__}, not from "
                    f"{src}", 2)
    import workloads
    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(workloads.NAMES)}", 2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / workloads.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for stale in out_dir.glob(f"childspans-{tag}-*.json"):
        stale.unlink()

    with reference.Reference() as helper:
        # ---------------- set-up ----------------
        probes = []
        factors = [helper.factor()]
        for i in range(1 if args.tiny else SETUP_PROBES):
            child = workloads.run_child(
                [sys.executable, str(HERE / "setup_probe.py"), args.workload,
                 str(args.seed), "1" if args.tiny else "0"],
                ROOT, workloads.child_env(ROOT), out_dir / "setup",
                f"{tag}-{i}")
            if child["returncode"] != 0:
                sys.stderr.write(child["stderr"])
                return fail("set-up probe failed", 1)
            factors.append(helper.factor())
            probe = json.loads(child["stdout"].decode().splitlines()[-1])
            probe["reference_factor"] = (factors[-2] + factors[-1]) / 2.0
            probes.append(probe)
        setup = {key: statistics.median(p[key] for p in probes)
                 for key in probes[0]}
        setup_scaled = statistics.median(p["setup_s"] / p["reference_factor"]
                                         for p in probes)

        cfgs = workloads.load_configs(args.workload, ROOT)
        workload = workloads.build(args.workload, cfgs, args.seed, args.tiny,
                                   ROOT)

        # ---------------- timed phase ----------------
        modes = (False, True) if args.trace else (False,)
        tracer = tracing.Tracer()
        passes = []            # dicts: traced, time, op times
        op_log = {op.name: {"times": [], "scaled_times": [], "checks": []}
                  for op in workload.ops}
        attempted = failed = 0
        child_rss_kb = 0
        rss_kb = None
        stderr_warnings = []
        op_notes = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.perf_counter()
            k = 0
            while k < MIN_PASSES or (time.perf_counter() - started
                                     + passes[-1]["time"] <= args.seconds):
                traced = modes[k % len(modes)]
                gc.collect()
                results, elapsed, factor = run_pass(
                    workload, tracer if traced else None, helper, k, out_dir,
                    tag)
                passes.append({
                    "traced": traced, "run": k, "time": elapsed,
                    "reference_factor": factor,
                    "op_times": {r[0].name: r[3] for r in results},
                    "op_scaled": {r[0].name: r[4] for r in results}})
                for op, output, error, dt, scaled in results:
                    attempted += 1
                    ok, detail = check(op, output, error)
                    failed += not ok
                    op_log[op.name]["times"].append(dt)
                    op_log[op.name]["scaled_times"].append(scaled)
                    op_log[op.name]["checks"].append(detail)
                    if op.warn is not None and output is not None:
                        op_notes += op.warn(output)
                    if isinstance(output, dict) and "maxrss_kb" in output:
                        child_rss_kb = max(child_rss_kb, output["maxrss_kb"])
                        stderr_warnings += [line.strip() for line in
                                            output["stderr"].splitlines()
                                            if "Warning:" in line]
                del results
                if rss_kb is None:
                    # later passes can only add allocator fragmentation
                    rss_kb = child_rss_kb if not workload.in_process else \
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                k += 1
    notes = collect_warnings(caught, stderr_warnings, op_notes,
                             tracer.spans, workloads.MARGIN_WARN)

    metrics = {}
    report = {}
    if args.trace:
        spans = list(tracer.spans)
        spans += load_child_spans(out_dir, tag, len(spans))
        values, report = layer_report(workload, passes, spans, setup,
                                      workloads.PREDICTIONS[workload.name])
        names = bench["per_layer"]
        spans_path = out_dir / f"spans-{tag}.json"
        tracing.dump_spans(spans, spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {"wall_s": sum(
                      statistics.median(p["op_scaled"][op.name]
                                        for p in passes)
                      for op in workload.ops),
                  "setup_s": setup_scaled,
                  "peak_rss_mb": rss_kb / 1024.0}
        report = {"measured_wall_s": sum(
                      statistics.median(p["op_times"][op.name]
                                        for p in passes)
                      for op in workload.ops),
                  "measured_setup_s": setup["setup_s"],
                  "reference_factor": {
                      "wall_s": statistics.median(p["reference_factor"]
                                                  for p in passes),
                      "setup_s": setup["reference_factor"]}}
        names = bench["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}", 1)
    for m in names:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "tiny": args.tiny, "machine": machine_info(),
               "setup_probes": probes, "passes": passes, "ops": op_log,
               "warnings": notes, **report, "result": result}
    results_path = out_dir / f"result-{tag}.json"
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    print_summary(details, results_path)
    print(json.dumps(result))
    return 0


# =====================================================================
# timed passes
# =====================================================================

def run_pass(workload, tracer, helper, run_id, out_dir, tag):
    """One pass over the operations; returns
    [(op, output, error, dt, dt at reference speed)], the pass time (the
    sum of the operation times) and the median reference factor.

    The reference runs before the first operation and after each one,
    outside their timing; an operation is scaled by the mean of the two
    factors around it."""
    results = []
    factors = [helper.factor()]
    if tracer is not None:
        tracer.run = run_id
        if workload.in_process:
            tracer.install(callers=[sys.modules["workloads"]])
    try:
        for i, op in enumerate(workload.ops):
            trace_file = None
            if tracer is not None and not workload.in_process:
                trace_file = out_dir / f"childspans-{tag}-{run_id}-{i}.json"
            t0 = time.perf_counter()
            try:
                output, error = op.run(trace_file), None
            except Exception:
                output, error = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            factors.append(helper.factor())
            results.append((op, output, error, dt,
                            dt * 2.0 / (factors[-2] + factors[-1])))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, sum(r[3] for r in results), statistics.median(factors)


def check(op, output, error):
    if error is not None:
        sys.stderr.write(f"{op.name} raised:\n{error}")
        return False, "raised: " + error.strip().splitlines()[-1]
    try:
        ok, detail = op.check(output)
    except Exception:
        sys.stderr.write(f"checking {op.name} raised:\n"
                         f"{traceback.format_exc()}")
        return False, "output check raised"
    return bool(ok), ("ok: " if ok else "FAILED: ") + detail


def collect_warnings(caught, stderr_lines, op_notes, spans, margin_warn):
    """Every warning the run raised, with repeat counts: warnings from
    the program (in process or on a child's standard error), and
    non-overlap margins below ``margin_warn`` seen by the benchmark."""
    counts = {}

    def add(key):
        counts[key] = counts.get(key, 0) + 1

    for w in caught:
        add(f"{w.category.__name__}: {w.message}")
    for line in stderr_lines:
        add(line.split(": ", 1)[-1])
    for note in op_notes:
        add(note)
    margins = [s.attrs["margin"] for s in spans if "margin" in s.attrs]
    low = [m for m in margins if m < margin_warn]
    if low:
        counts[f"traced resonance_energies calls with a non-overlap margin "
               f"below {margin_warn:g}: {len(low)} of {len(margins)}, "
               f"smallest {min(low):.3g}"] = len(low)
    return [{"warning": k, "count": v} for k, v in counts.items()]


# =====================================================================
# per-layer report
# =====================================================================

def load_child_spans(out_dir, tag, offset):
    """Spans written by traced command-line children, renumbered after
    the in-process ones and tagged with the pass that ran them."""
    spans = []
    for path in sorted(out_dir.glob(f"childspans-{tag}-*.json")):
        run = int(path.stem.split("-")[-2])
        loaded = tracing.load_spans(path)
        for s in loaded:
            s.id += offset
            s.parent = None if s.parent is None else s.parent + offset
            s.run = run
        spans += loaded
        offset += len(loaded)
        path.unlink()
    return spans


SUBCOMMANDS = ("spectrum", "rates", "evolve", "scaling", "xi")


def pass_layer_values(spans, op_times, in_process):
    """Per-layer metrics of one traced pass."""
    by_id = {s.id: s for s in spans}

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    quads = [s for s in spans if s.layer == "reservoir"
             and (s.parent is None or by_id[s.parent].layer != "reservoir")]
    energies = [s for s in spans if s.name == "resonances.resonance_energies"]
    margins = [s.attrs["margin"] for s in energies if "margin" in s.attrs]
    values = {
        "reservoir.quad_s": sum(s.duration for s in quads),
        "reservoir.quad_count": len(quads),
        "resonances.bohr_s": total("resonances.bohr_spectrum"),
        "resonances.energies_s": total("resonances.resonance_energies"),
        "resonances.group_count": sum(s.attrs["groups"] for s in energies),
        "resonances.group_size_max": max(
            (s.attrs["group_size_max"] for s in energies), default=0),
        "resonances.nonoverlap_margin": min(margins, default=0.0),
        "model.register_to_system_s": total("model.register_to_system"),
        "register.scaling_s": total("register.scaling_study"),
        "register.rates_s": total("register.decoherence_rates"),
        "dynamics.blocks_s": total("dynamics.propagator_blocks"),
        "dynamics.evolution_s": total("dynamics.resonance_evolution"),
        "oracle.discretize_s": total("oracle.discretize_bath"),
        "oracle.exact_evolve_s": total("oracle.exact_evolve"),
        "oracle.fit_s": total("oracle.fit_decay"),
        "oracle.verify_s": total("oracle.verify"),
        "oracle.sector_dim": max((s.attrs.get("state_dim", 0) for s in spans
                                  if s.name == "oracle.exact_evolve"),
                                 default=0),
    }
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}_s"] = 0.0 if in_process else sum(
            t for name, t in op_times.items() if name.split(":")[0] == sub)
    for layer, t in tracing.self_times(spans).items():
        values[f"{layer}.self_s"] = t
    values["unattributed_s"] = sum(op_times.values()) - sum(
        s.duration for s in spans if s.parent is None)
    return values


def layer_report(workload, passes, spans, setup, predictions):
    """Medians of the per-layer metrics over the traced passes, the
    tracing overhead, and measured layer shares beside the predicted
    ones."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [pass_layer_values([s for s in spans if s.run == p["run"]],
                                  p["op_times"], workload.in_process)
                for p in traced]
    values = {key: statistics.median(v[key] for v in per_pass)
              for key in per_pass[0]}
    values["import_s"] = setup["import_s"]
    values["config.load_s"] = setup["config_load_s"]
    traced_wall = statistics.median(p["time"] for p in traced)
    untraced_wall = statistics.median(p["time"] for p in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall

    shares = []
    for metric, low, high, why in predictions:
        if metric == "import_s":
            # import against each command's untraced wall time
            for op in workload.ops:
                wall = statistics.median(p["op_times"][op.name]
                                         for p in untraced)
                shares.append(share_row(f"import_s / {op.name}",
                                        values["import_s"] / wall,
                                        low, high, why))
        else:
            shares.append(share_row(f"{metric} / traced wall_s",
                                    values[metric] / traced_wall,
                                    low, high, why))
    report = {
        "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
        "layer_values_per_pass": per_pass, "shares": shares,
        "computed_metrics": {
            "oracle.sector_dim": "computed from the mode count and the "
                                 "excitation cap with the engine's selection "
                                 "rule; not read from the engine"},
    }
    return values, report


def share_row(label, measured, low, high, why):
    return {"share": label, "measured": measured, "predicted": [low, high],
            "within": low <= measured <= high, "why": why}


# =====================================================================
# machine info and summary
# =====================================================================

def machine_info() -> dict:
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    uname = os.uname()
    return {"nproc": NPROC, "cpu_count": os.cpu_count(),
            "system": f"{uname.sysname} {uname.release} {uname.machine}",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
            "RESODEC_PARALLEL": os.environ["RESODEC_PARALLEL"]}


def print_summary(details, results_path) -> None:
    m = details["machine"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"trace {details['trace']}  seconds {details['seconds']:g}"
          + ("  (tiny)" if details["tiny"] else ""))
    print(f"machine: nproc {m['nproc']}, Python {m['python']}, numpy "
          f"{m['numpy']}, scipy {m['scipy']}, BLAS {m['blas']}, threads "
          + ", ".join(f"{k}={v}" for k, v in m["thread_caps"].items())
          + f", RESODEC_PARALLEL={m['RESODEC_PARALLEL']}")
    probes = details["setup_probes"]
    print(f"set-up: {len(probes)} fresh interpreters, setup_s "
          + "/".join(f"{p['setup_s']:.3f}" for p in probes)
          + " (import " + "/".join(f"{p['import_s']:.3f}" for p in probes)
          + ")")
    print(f"passes: {len(details['passes'])} ("
          + ", ".join(f"{p['time']:.3f} s" + (" traced" if p["traced"] else "")
                      for p in details["passes"]) + ")")
    for name, log in details["ops"].items():
        print(f"  op {name}: median {statistics.median(log['times']):.4f} s "
              f"over {len(log['times'])}; {log['checks'][-1]}")
    for w in details["warnings"]:
        print(f"warning ({w['count']}x): {w['warning']}")
    if not details["warnings"]:
        print("warnings: none")
    for row in details.get("shares", []):
        print(f"share {row['share']}: measured {row['measured']:.3f}, "
              f"predicted {row['predicted'][0]:g}..{row['predicted'][1]:g} "
              f"({'as predicted' if row['within'] else 'NOT as predicted'}; "
              f"{row['why']})")
    result = details["result"]
    for name, metric in result["metrics"].items():
        label = " (computed)" if name in details.get("computed_metrics", {}) \
            else ""
        if f"measured_{name}" in details:
            label = (f" at reference speed (measured "
                     f"{details[f'measured_{name}']:.6g} s, host speed "
                     f"factor {details['reference_factor'][name]:.3f})")
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{label}")
    print(f"failed_ops = {result['failed']}/{result['attempted']} "
          f"({result['failed']} of {result['attempted']} operations raised "
          "or failed their output check)")
    print(f"details: {results_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
