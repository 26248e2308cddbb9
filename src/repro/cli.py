"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``      — print the calibrated machine model and scaling factors.
``fig5``      — regenerate Figure 5 and print its EXPERIMENTS.md section
                (``--smoke`` for the tiny grid).
``fig67``     — the same for Figures 6 & 7 (the 48 GB OOM).
``fig910``    — the same for Figures 9 & 10 (ART vs vanilla MPI-IO).
``table3``    — the same for Table III and the Program 2/3 effort metrics.
``bench``     — run one synthetic-benchmark point and print its result.
``faults``    — rerun the benchmark under seeded fault injection and
                verify byte-correct recovery (see docs/faults.md);
                ``--crash-at`` runs the fail-stop crash-differential
                matrix instead.
``fsck``      — journaled faulted run + per-byte classification of the
                shared file (committed/torn/untracked/fallback/lost).
``topo``      — flat-vs-node aggregation ablation: compare fabric
                message/connection counts (see docs/topology.md).
``ioserver``  — delegate I/O server mode: trace-driven load test,
                delegate-count ablation, server crash matrix
                (see docs/io-server.md).
``tenancy``   — multi-job tenancy: concurrent applications on one shared
                PFS, QoS policies, interference matrix
                (see docs/tenancy.md).
``chaos``     — seeded fault-injection soak: many randomized crash
                scenarios across tenancy / TCIO-FT / delegate-failover
                families, each asserting the survive-and-complete
                invariants (see docs/faults.md).
``trace``     — rerun a scaled-down experiment with span tracing on and
                write Chrome-trace + metrics JSON (see docs/observability.md).
``report``    — run the full campaign and write EXPERIMENTS.md
                (``--jobs N`` fans the points across a process pool,
                ``--store D`` keeps results so reruns skip done points).
``campaign``  — campaign analysis platform (see docs/campaigns.md):
                ``campaign run`` executes a declarative sweep spec into
                the result store, ``campaign ingest`` imports
                metrics.json snapshots, ``campaign query`` filters stored
                records, ``campaign report`` renders tables, charts and
                EXPERIMENTS.md sections, ``campaign explore`` bisects a
                crossover frontier adaptively.
"""

from __future__ import annotations

import argparse
import sys

from repro.util.units import MIB, format_size, format_time


def cmd_info(args) -> int:
    """Print the machine model and scaling factors."""
    from repro.cluster.lonestar import (
        LONESTAR_SCALE,
        LONESTAR_STRIPE_SCALE,
        full_scale_lonestar,
        make_lonestar,
    )

    full, scaled = full_scale_lonestar(), make_lonestar()
    print("Testbed model: TACC Lonestar (IPDPS'13 paper, Section V.A)")
    print(f"  nodes: {full.nodes} x {full.cores_per_node} cores, "
          f"{format_size(full.memory_per_node)}/node")
    print(f"  Lustre: {full.lustre.n_osts} OSTs, "
          f"{format_size(full.lustre.stripe_size)} stripes")
    print(f"Simulation scale: sizes 1/{LONESTAR_SCALE}, "
          f"stripe/lock granularity 1/{LONESTAR_STRIPE_SCALE}")
    print(f"  scaled node memory: {format_size(scaled.memory_per_node)}")
    print(f"  scaled stripe/segment: {format_size(scaled.lustre.stripe_size)}")
    print(f"  calibrated per-event costs: see repro/cluster/lonestar.py")
    return 0


def _scale(args):
    from repro.experiments.common import FULL, SMOKE

    return SMOKE if getattr(args, "smoke", False) else FULL


def cmd_section(args) -> int:
    """Regenerate one table/figure and print its EXPERIMENTS.md section."""
    from repro.experiments.report import build_section

    print(build_section(args.command, _scale(args), verbose=True))
    return 0


def cmd_bench(args) -> int:
    """Run one synthetic-benchmark point and print throughputs."""
    from repro.bench import BenchConfig, Method, run_benchmark

    cfg = BenchConfig(
        method=Method.parse(args.method),
        len_array=args.len,
        nprocs=args.procs,
        aggregation=args.aggregation,
    )
    result = run_benchmark(cfg)
    if result.failed:
        print(f"FAILED: {result.fail_reason}")
        return 1
    print(
        f"{cfg.method.name}  procs={cfg.nprocs}  LEN={cfg.len_array}  "
        f"file={format_size(cfg.total_bytes)}"
    )
    print(
        f"  write: {result.write_throughput / MIB:8.1f} MB/s "
        f"({format_time(result.write_seconds)})"
    )
    print(
        f"  read:  {result.read_throughput / MIB:8.1f} MB/s "
        f"({format_time(result.read_seconds)})"
    )
    return 0


def cmd_faults(args) -> int:
    """Run one fault-injected benchmark point and verify recovery."""
    from repro.faults.runner import run_crash_campaign, run_faulted

    if args.crash_at is not None:
        return run_crash_campaign(
            args.crash_at, survive=args.ft, seed=args.seed, nranks=args.crash_procs
        )
    return run_faulted(
        args.target,
        seed=args.seed,
        rate=args.rate,
        procs=args.procs,
        len_array=args.len,
        method=args.method,
        aggregation=args.aggregation,
    )


def cmd_fsck(args) -> int:
    """Journaled faulted run + per-byte verification of the shared file."""
    from repro.faults.runner import run_fsck

    return run_fsck(
        args.file,
        seed=args.seed,
        rate=args.rate,
        procs=args.procs,
        len_array=args.len,
        journal=args.journal,
        aggregation=args.aggregation,
    )


def cmd_topo(args) -> int:
    """Run the flat-vs-node aggregation ablation and check the reduction."""
    from repro.experiments.topo_ablation import run_topo_ablation

    data = run_topo_ablation(
        procs=args.procs,
        cores_per_node=args.cores_per_node,
        len_array=args.len,
    )
    print(data.render())
    return 0 if data.check() else 1


def cmd_ioserver(args) -> int:
    """Trace-driven load test of the delegate I/O servers."""
    from repro.ioserver import (
        IoServerConfig,
        expected_image,
        generate_trace,
        replay_direct,
        run_ioserver,
    )

    if args.crash_step is not None:
        from repro.faults.runner import run_crash_campaign

        return run_crash_campaign(
            args.crash_step, kind="server", survive=args.failover, seed=args.seed
        )

    trace = generate_trace(
        args.seed,
        8 if args.smoke else args.clients,
        epochs=2 if args.smoke else 3,
    )

    if args.ablate_delegates:
        import json

        from repro.ioserver.ablation import delegate_ablation, render_ablation

        counts = tuple(
            c if c == "leaders" else int(c)
            for c in args.ablate_delegates.split(",")
        )
        report = delegate_ablation(
            trace,
            seed=args.seed,
            nranks=args.ranks,
            cores_per_node=args.cores_per_node,
            counts=counts,
        )
        print(render_ablation(report))
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.metrics_out}")
        return 0

    config = IoServerConfig(
        delegates="leaders" if not args.delegates
        else tuple(int(r) for r in args.delegates.split(",")),
    )
    result = run_ioserver(
        trace,
        nranks=args.ranks,
        cores_per_node=args.cores_per_node,
        config=config,
    )
    if result.aborted is not None:
        print(f"ABORTED: {result.aborted}")
        return 1
    print(result.summary())
    if args.metrics_out:
        result.write_metrics(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if not args.no_verify:
        expected = expected_image(trace)
        direct = replay_direct(
            trace, "tcio", nranks=min(4, trace.nclients), cores_per_node=2
        )
        ok = result.image == expected == direct.image
        print(
            "differential vs analytic image + direct TCIO replay: "
            + ("byte-identical" if ok else "MISMATCH")
        )
        if not ok:
            return 1
    return 0


def cmd_tenancy(args) -> int:
    """Multi-job tenancy: concurrent applications sharing one PFS."""
    import json

    from repro.tenancy import (
        interference_matrix,
        parse_scenario,
        run_scenario,
        two_job_scenario,
    )

    if args.jobs:
        scenario = parse_scenario(
            args.jobs.split(),
            seed=args.seed,
            jitter=args.jitter,
            cores_per_node=args.cores_per_node,
        )
    else:
        scenario = two_job_scenario(
            seed=args.seed,
            nranks=2 if args.smoke else 4,
            len_array=256 if args.smoke else 512,
            jitter=args.jitter,
        )

    if args.matrix:
        report = interference_matrix(scenario, qos=args.qos)
        payload = report.to_json()
        print(
            f"interference matrix ({len(scenario.jobs)} jobs, qos={args.qos}): "
            f"bytes {'identical' if report.all_identical else 'MISMATCH'}, "
            f"fsck {'clean' if report.all_clean else 'DIRTY'}"
        )
        for name, cell in sorted(payload["jobs"].items()):
            slow = cell["slowdown"]
            print(
                f"  {name}: solo {cell['solo_elapsed'] * 1e3:.3f} ms, "
                f"shared {cell['shared_elapsed'] * 1e3:.3f} ms, "
                f"slowdown {slow:.3f}" if slow is not None else f"  {name}: aborted"
            )
        print(f"  Jain fairness index: {payload['jain_index']:.4f}")
    else:
        result = run_scenario(scenario, qos=args.qos)
        payload = result.metrics_json()
        print(
            f"tenancy: {len(scenario.jobs)} jobs shared one PFS "
            f"(qos={args.qos}, seed={scenario.seed})"
        )
        for name, cell in sorted(payload["jobs"].items()):
            state = "ABORTED" if cell["aborted"] else "ok"
            print(
                f"  {name} ({cell['workload']} x{cell['nranks']}): "
                f"arrival {cell['arrival'] * 1e3:.3f} ms, "
                f"elapsed {cell['elapsed'] * 1e3:.3f} ms [{state}]"
            )
        jain = payload["fairness"]["jain_index"]
        if jain is not None:
            print(f"  Jain fairness index: {jain:.4f}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_out}")
    return 0


def cmd_chaos(args) -> int:
    """Seeded soak: randomized crash scenarios, zero tolerated violations."""
    from repro.chaos import ChaosConfig, ChaosError, run_soak

    families = (
        tuple(args.families.split(",")) if args.families else None
    )
    try:
        config = (
            ChaosConfig(iterations=args.iterations, seed=args.seed)
            if families is None
            else ChaosConfig(
                iterations=args.iterations, seed=args.seed, families=families
            )
        )
        if not args.quiet:
            print(
                f"chaos soak: {config.iterations} iterations, "
                f"seed {config.seed}"
            )
        report = run_soak(
            config,
            progress=(
                None if args.quiet
                else lambda it: print(
                    f"  [{it.index:>3}] {'ok  ' if it.ok else 'FAIL'} "
                    f"{it.family:<16} {it.detail}"
                )
            ),
        )
    except ChaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.quiet:
        print(
            f"chaos soak: {len(report.iterations)} iterations, "
            f"seed {config.seed}, "
            + (
                "zero invariant violations" if report.ok
                else f"{len(report.violations)} VIOLATION(S)"
            )
        )
    else:
        print(
            "  => "
            + (
                "zero invariant violations" if report.ok
                else f"{len(report.violations)} VIOLATION(S)"
            )
        )
    if args.metrics_out:
        report.write_metrics(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    """Run one scaled-down experiment with tracing; write trace/metrics."""
    from repro.obs.runner import run_traced

    run_traced(args.target, procs=args.procs, out=args.out, tiny=args.tiny)
    return 0


def cmd_report(args) -> int:
    """Run the full campaign and write EXPERIMENTS.md."""
    from pathlib import Path

    from repro.experiments.report import generate_report

    runner = None
    if args.jobs is not None or args.store is not None:
        from repro.campaign.store import CampaignStore
        from repro.perf.campaign import CampaignRunner

        jobs = 1 if args.jobs is None else (args.jobs or None)
        runner = CampaignRunner(
            jobs, store=CampaignStore(args.store), verbose=True
        )
    Path(args.output).write_text(generate_report(_scale(args), runner=runner))
    print(f"wrote {args.output}")
    return 0


def _campaign_errors(fn):
    """Expected campaign failures (bad spec, missing results) exit
    cleanly with the message instead of a traceback."""
    import functools

    @functools.wraps(fn)
    def wrapper(args) -> int:
        from repro.util.errors import ReproError

        try:
            return fn(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return wrapper


def _parse_where(items) -> dict:
    """``k=v`` pairs -> a parameter filter: a value that parses as JSON
    (``64``, ``true``, ``null``) is that value, anything else the raw string."""
    import json

    out = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --where filter {item!r} (expected key=value)")
        try:
            out[key] = json.loads(value)
        except ValueError:
            out[key] = value
    return out


@_campaign_errors
def cmd_campaign_run(args) -> int:
    """Execute one declarative sweep spec into the result store."""
    from repro.campaign import CampaignStore, load_spec, run_sweep

    spec = load_spec(args.spec)
    store = CampaignStore(args.store)
    results = run_sweep(
        spec, store=store, jobs=args.jobs or None, verbose=True
    )
    print(
        f"sweep '{spec.name}': ran {len(results)} {spec.experiment} "
        f"point(s); store {store.root} now holds {len(store)} record(s)"
    )
    return 0


@_campaign_errors
def cmd_campaign_ingest(args) -> int:
    """Import metrics.json snapshots into the store."""
    from repro.campaign import CampaignStore

    if not args.metrics:
        print("error: nothing to ingest (pass --metrics FILE)", file=sys.stderr)
        return 1
    store = CampaignStore(args.store)
    for path in args.metrics:
        store.ingest_metrics(path)
        print(f"ingested metrics snapshot {path}")
    print(f"store {store.root}: {len(store)} record(s)")
    return 0


@_campaign_errors
def cmd_campaign_query(args) -> int:
    """Filter and print stored records (or one parameter's values)."""
    import json

    from repro.campaign import CampaignStore

    store = CampaignStore(args.store)
    if args.distinct:
        for value in store.distinct(args.distinct, args.experiment):
            print(value)
        return 0
    records = store.query(
        args.experiment, source=args.source, where=_parse_where(args.where)
    )
    if args.json:
        print(json.dumps([r.to_json() for r in records], indent=1,
                         sort_keys=True))
        return 0
    for record in records:
        params = ", ".join(f"{k}={v}" for k, v in record.params)
        metrics = json.dumps(record.metrics, sort_keys=True)
        print(f"{record.source}:{record.experiment}({params}) {metrics}")
    print(f"-- {len(records)} record(s) of {len(store)} in {store.root}")
    return 0


@_campaign_errors
def cmd_campaign_report(args) -> int:
    """Render tables/charts or EXPERIMENTS.md sections from the store."""
    from repro.campaign import (
        CampaignStore,
        experiments_section,
        scaling_report,
        store_svg_chart,
    )

    if args.smoke:
        body = _smoke_report(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
            print(f"wrote {args.out}")
        else:
            print(body, end="")
        return 0
    store = CampaignStore(args.store)
    if args.section:
        from repro.experiments.common import FULL, SMOKE

        scale = SMOKE if args.scale == "smoke" else FULL
        print(experiments_section(store, args.section, scale))
        return 0
    if not (args.experiment and args.x and args.y):
        raise SystemExit(
            "campaign report needs --smoke, --section NAME, or "
            "--experiment/-x/-y"
        )
    if args.svg:
        chart = store_svg_chart(
            store, args.experiment, x=args.x, y=args.y,
            where=_parse_where(args.where),
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(chart)
        print(f"wrote {args.svg}")
    print(scaling_report(
        store, args.experiment, x=args.x, y=args.y,
        where=_parse_where(args.where),
    ))
    return 0


def _smoke_report(args) -> str:
    """The deterministic two-point smoke report (CI runs it twice, cmp)."""
    import json
    import tempfile

    from repro.campaign import scaling_report, smoke_store, store_svg_chart

    with tempfile.TemporaryDirectory() as tmp:
        store = smoke_store(args.store or f"{tmp}/store")
        table = scaling_report(
            store, "fig5", x="method", y="write_throughput",
            title="smoke sweep: fig5 write throughput by method",
        )
        svg = store_svg_chart(
            store, "fig5", x="method", y="write_throughput",
            title="fig5 write throughput by method",
        )
        summary = json.dumps(store.summary(), indent=1, sort_keys=True)
    return (
        "campaign smoke report (deterministic)\n\n"
        f"{summary}\n\n{table}\n\n{svg}"
    )


@_campaign_errors
def cmd_campaign_explore(args) -> int:
    """Adaptively locate the flat-vs-node aggregation crossover."""
    from repro.campaign import CampaignStore, aggregation_crossover

    runner = None
    if args.store:
        from repro.perf.campaign import CampaignRunner

        runner = CampaignRunner(1, store=CampaignStore(args.store))
    kwargs = dict(method=args.search, runner=runner)
    if args.candidates:
        candidates = tuple(int(c) for c in args.candidates.split(","))
        report = aggregation_crossover(candidates, **kwargs)
    else:
        report = aggregation_crossover(**kwargs)
    print(report.render())
    saved = len(report.candidates) - report.evaluations
    print(
        f"adaptive saving: {saved} evaluation(s) skipped vs the "
        f"exhaustive grid" if report.method == "bisect"
        else "exhaustive grid baseline"
    )
    if runner is not None:
        print(
            f"store {runner.store.root}: {runner.hits} point(s) served, "
            f"{runner.misses} simulated"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the machine model").set_defaults(fn=cmd_info)

    for name, doc in (
        ("fig5", "Figure 5: throughput vs processes"),
        ("fig67", "Figures 6/7: throughput vs file size + OOM"),
        ("fig910", "Figures 9/10: ART, TCIO vs vanilla MPI-IO"),
        ("table3", "Table III + effort metrics"),
    ):
        p = sub.add_parser(name, help=doc)
        if name != "table3":  # static analysis: no grid to shrink
            p.add_argument("--smoke", action="store_true", help="tiny grid")
        p.set_defaults(fn=cmd_section)

    p = sub.add_parser("bench", help="run one synthetic benchmark point")
    p.add_argument("--method", default="tcio", help="ocio | tcio | mpiio (or 0|1|2)")
    p.add_argument("--procs", type=int, default=16)
    p.add_argument("--len", type=int, default=512, help="LENarray (elements)")
    p.add_argument(
        "--aggregation", choices=["flat", "node"], default="flat",
        help="intra-node aggregation mode (docs/topology.md)",
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "faults", help="benchmark under seeded fault injection + verification"
    )
    p.add_argument(
        "target", nargs="?", default="bench",
        choices=["bench", "ocio", "tcio", "mpiio"],
        help="'bench' uses --method; a method name runs that method",
    )
    p.add_argument(
        "--crash-at", default=None, metavar="STEP",
        help="run the crash-differential matrix instead: kill rank 1 at "
             "this protocol step ('each-step' runs all five; docs/faults.md)",
    )
    p.add_argument(
        "--crash-procs", type=int, default=4,
        help="ranks for the crash matrix (only with --crash-at)",
    )
    p.add_argument(
        "--ft", action="store_true",
        help="with --crash-at: run the survive column instead — TCIO FT on, "
             "the job must complete degraded (docs/faults.md)",
    )
    p.add_argument("--seed", type=int, default=1, help="fault plan seed")
    p.add_argument("--rate", type=float, default=0.05, help="injection rate")
    p.add_argument("--procs", type=int, default=16)
    p.add_argument("--len", type=int, default=256, help="LENarray (elements)")
    p.add_argument("--method", default="tcio", help="ocio | tcio | mpiio")
    p.add_argument(
        "--aggregation", choices=["flat", "node"], default="flat",
        help="intra-node aggregation mode (docs/topology.md)",
    )
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "fsck", help="journaled faulted run + per-byte file verification"
    )
    p.add_argument("file", help="shared file name inside the simulated PFS")
    p.add_argument("--seed", type=int, default=1, help="fault plan seed")
    p.add_argument("--rate", type=float, default=0.05, help="injection rate")
    p.add_argument("--procs", type=int, default=16)
    p.add_argument("--len", type=int, default=256, help="LENarray (elements)")
    p.add_argument(
        "--journal", choices=["off", "epoch"], default="epoch",
        help="TCIO durability mode (docs/faults.md)",
    )
    p.add_argument(
        "--aggregation", choices=["flat", "node"], default="flat",
        help="intra-node aggregation mode (docs/topology.md)",
    )
    p.set_defaults(fn=cmd_fsck)

    p = sub.add_parser(
        "topo", help="flat-vs-node aggregation ablation (message counts)"
    )
    p.add_argument("--procs", type=int, default=64)
    p.add_argument(
        "--cores-per-node", type=int, default=4, help="simulated ranks per node"
    )
    p.add_argument("--len", type=int, default=1024, help="LENarray (elements)")
    p.set_defaults(fn=cmd_topo)

    p = sub.add_parser(
        "ioserver",
        help="delegate I/O servers: trace-driven load test (docs/io-server.md)",
    )
    p.add_argument("--smoke", action="store_true", help="small CI-sized run")
    p.add_argument("--seed", type=int, default=11, help="trace seed")
    p.add_argument("--clients", type=int, default=64, help="logical clients")
    p.add_argument("--ranks", type=int, default=6, help="simulated ranks")
    p.add_argument(
        "--cores-per-node", type=int, default=3, help="simulated ranks per node"
    )
    p.add_argument(
        "--delegates", default=None,
        help="comma-separated delegate ranks (default: node leaders)",
    )
    p.add_argument(
        "--metrics-out", default=None, help="write the metrics JSON here"
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip the byte-differential vs direct TCIO",
    )
    p.add_argument(
        "--crash-step", default=None, metavar="STEP",
        help="run the server-mode crash matrix instead: kill a delegate at "
             "this service-loop step ('each-step' runs all six)",
    )
    p.add_argument(
        "--failover", action="store_true",
        help="with --crash-step: run the survive column instead — delegate "
             "failover on, the session must complete with zero loss",
    )
    p.add_argument(
        "--ablate-delegates", default=None, metavar="COUNTS",
        help="sweep delegate counts over one fixed trace instead of a "
             "single run: comma-separated counts and/or 'leaders' "
             "(e.g. '1,2,4,leaders')",
    )
    p.set_defaults(fn=cmd_ioserver)

    p = sub.add_parser(
        "tenancy",
        help="multi-job tenancy: concurrent apps on one PFS (docs/tenancy.md)",
    )
    p.add_argument("--smoke", action="store_true", help="small CI-sized run")
    p.add_argument("--seed", type=int, default=3, help="scenario seed")
    p.add_argument(
        "--jobs", default=None, metavar="SPECS",
        help="space-separated job specs 'name:workload:nranks[:len]' "
             "(default: the canonical 2-job tcio+mpiio scenario)",
    )
    p.add_argument(
        "--qos", default="fifo", choices=("fifo", "fair"),
        help="OST token-issue policy",
    )
    p.add_argument(
        "--jitter", type=float, default=0.0, help="seeded arrival jitter (s)"
    )
    p.add_argument(
        "--cores-per-node", type=int, default=4, help="simulated ranks per node"
    )
    p.add_argument(
        "--matrix", action="store_true",
        help="run the full interference matrix (each job solo, then shared) "
             "and enforce byte identity + fsck cleanliness",
    )
    p.add_argument(
        "--metrics-out", default=None, help="write the metrics JSON here"
    )
    p.set_defaults(fn=cmd_tenancy)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection soak over crash scenarios (docs/faults.md)",
    )
    p.add_argument(
        "--iterations", type=int, default=50, help="scenarios to run"
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--families", default=None, metavar="F1,F2",
        help="comma-separated subset of tenancy,tcio-survive,server-failover "
             "(default: all three)",
    )
    p.add_argument(
        "--metrics-out", default=None,
        help="write the deterministic soak JSON here (same seed -> same bytes)",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress per-iteration progress; print the full report at the end",
    )
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "trace", help="scaled-down experiment with tracing -> Chrome trace JSON"
    )
    p.add_argument(
        "target", choices=["fig5", "fig67", "fig910", "bench"],
        help="which experiment to rerun traced",
    )
    p.add_argument("--procs", type=int, default=None, help="simulated ranks")
    p.add_argument("--out", default="trace_out", help="output directory")
    p.add_argument("--tiny", action="store_true", help="smallest possible run")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("report", help="full campaign -> EXPERIMENTS.md")
    p.add_argument("--output", default="EXPERIMENTS.md")
    p.add_argument("--smoke", action="store_true")
    p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan points across N worker processes (0 = one per CPU)",
    )
    p.add_argument(
        "--store", default=None,
        help="result store directory (held points are not re-run)",
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "campaign",
        help="campaign analysis platform: sweeps, store, reports, explorer "
             "(docs/campaigns.md)",
    )
    camp_sub = p.add_subparsers(dest="campaign_command", required=True)

    cr = camp_sub.add_parser(
        "run", help="execute a declarative sweep spec into the result store"
    )
    cr.add_argument("spec", help="sweep spec file (JSON; docs/campaigns.md)")
    cr.add_argument("--store", default=None, help="result store directory")
    cr.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: serial; 0 = one per CPU)",
    )
    cr.set_defaults(fn=cmd_campaign_run)

    ci = camp_sub.add_parser(
        "ingest", help="import metrics.json snapshots into the result store"
    )
    ci.add_argument("--store", default=None, help="result store directory")
    ci.add_argument(
        "--metrics", action="append", default=None, metavar="FILE",
        help="a *.metrics.json snapshot to import (repeatable)",
    )
    ci.set_defaults(fn=cmd_campaign_ingest)

    cq = camp_sub.add_parser("query", help="filter and print stored records")
    cq.add_argument("--store", default=None, help="result store directory")
    cq.add_argument(
        "--experiment", default=None, help="filter to one experiment"
    )
    cq.add_argument(
        "--source", default=None,
        help="filter to one source (campaign | metrics)",
    )
    cq.add_argument(
        "--where", action="append", default=None, metavar="K=V",
        help="parameter equality filter (repeatable)",
    )
    cq.add_argument(
        "--distinct", default=None, metavar="PARAM",
        help="print the distinct values of one parameter instead",
    )
    cq.add_argument("--json", action="store_true", help="full records as JSON")
    cq.set_defaults(fn=cmd_campaign_query)

    cp = camp_sub.add_parser(
        "report",
        help="render tables/charts or EXPERIMENTS.md sections from the store",
    )
    cp.add_argument("--store", default=None, help="result store directory")
    cp.add_argument(
        "--smoke", action="store_true",
        help="build the two-point smoke store and print the deterministic "
             "smoke report (the CI bit-determinism check)",
    )
    cp.add_argument(
        "--out", default=None, help="write the smoke report here"
    )
    cp.add_argument(
        "--section", default=None,
        help="regenerate one EXPERIMENTS.md section from stored results "
             "(header, table3, fig5, fig67, fig910)",
    )
    cp.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="campaign scale the --section replay renders at",
    )
    cp.add_argument("--experiment", default=None, help="experiment to chart")
    cp.add_argument("-x", default=None, help="swept parameter (x axis)")
    cp.add_argument("-y", default=None, help="result metric (y axis)")
    cp.add_argument(
        "--where", action="append", default=None, metavar="K=V",
        help="parameter equality filter (repeatable)",
    )
    cp.add_argument("--svg", default=None, metavar="FILE", help="also write an SVG chart")
    cp.set_defaults(fn=cmd_campaign_report)

    ce = camp_sub.add_parser(
        "explore",
        help="adaptively bisect the flat-vs-node aggregation crossover",
    )
    ce.add_argument(
        "--store", default=None,
        help="serve evaluated pairs from, and record new ones in, this store",
    )
    ce.add_argument(
        "--search", choices=("bisect", "grid"), default="bisect",
        help="adaptive bisection or the exhaustive baseline",
    )
    ce.add_argument(
        "--candidates", default=None, metavar="P1,P2,...",
        help="ordered process-count axis (default 8,12,16,24,32,48,64,96)",
    )
    ce.set_defaults(fn=cmd_campaign_explore)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
