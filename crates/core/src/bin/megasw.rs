//! The `megasw` command-line tool.
//!
//! ```text
//! megasw generate --length 1000000 --seed 42 --out-human h.fa --out-chimp c.fa
//! megasw compare  <a.fasta> <b.fasta> [--gpus N] [--env1|--env2] [--block N]
//!                 [--capacity N] [--equal]
//! megasw align    <a.fasta> <b.fasta> [--width N] [same platform flags]
//! megasw simulate --m 47000000 --n 49000000 [--env1|--env2] [--gantt]
//! megasw tune     --m 4000000 --n 4000000 [--env1|--env2]
//! ```
//!
//! Argument parsing is deliberately dependency-free (a tiny `ArgStream`
//! helper below); every subcommand maps onto the public library API, so
//! this binary doubles as living documentation of the crate surface.

use megasw::gpusim::trace::render_gantt;
use megasw::multigpu::autotune::autotune;
use megasw::multigpu::stages::multigpu_local_align_live;
use megasw::prelude::*;
use megasw::seq::fasta::{read_single_fasta, write_fasta, FastaRecord};
use std::fs::File;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `megasw help` for usage");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut stream = ArgStream::new(args);
    match stream.next_positional().as_deref() {
        Some("generate") => cmd_generate(stream),
        Some("compare") => cmd_compare(stream),
        Some("batch") => cmd_batch(stream),
        Some("align") => cmd_align(stream),
        Some("simulate") => cmd_simulate(stream),
        Some("tune") => cmd_tune(stream),
        Some("screen") => cmd_screen(stream),
        Some("serve") => cmd_serve(stream),
        Some("submit") => cmd_submit(stream),
        Some("serve-metrics") => cmd_serve_metrics(stream),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

const USAGE: &str = "\
megasw — fine-grain multi-GPU megabase Smith-Waterman (simulated platform)

subcommands:
  generate  --length N [--seed S] [--divergence human-chimp|snp:RATE|none]
            [--out-human PATH] [--out-chimp PATH]
            write a synthetic homologous FASTA pair
  compare   A.fasta B.fasta [platform flags]
            stage 1: best score and end point, plus the simulated GCUPS
  batch     A.fasta B.fasta | --manifest FILE   [platform flags]
            [--threshold-cells N] [--bins N] [--scores]
            many-pair batch engine: record i of A aligns against record i
            of B (or one `a.fa b.fa` line per pair in --manifest FILE);
            pairs are length-sorted into bins and drained over a device
            work-queue — small pairs dispatched whole to idle devices,
            pairs with >= N cells (--threshold-cells, default 16777216)
            through the full slab pipeline; prints the BatchReport
            (aggregate GCUPS + latency percentiles; --scores adds the
            per-pair score table) and the DES twin's packed-vs-serial
            packing speedup
  align     A.fasta B.fasta [--width N] [platform flags]
            stages 1-3: retrieve and render the optimal local alignment
  simulate  --m ROWS --n COLS [platform flags] [--identity Q] [--gantt]
            [--drift DEV:ROW:FACTOR[,..]]
            discrete-event run (no sequence data needed); --identity Q
            (0..=1) sets the modelled pair identity the pruning mirror
            uses (default 0.25, i.e. unrelated sequences); --drift
            multiplies device DEV's clock by FACTOR from block-row ROW
            onward (0.5 = thermal throttling halves it) — pair with
            --rebalance on to watch the controller shift columns
  tune      --m ROWS --n COLS [platform flags]
            sweep block height x ring capacity on the simulator
  screen    A.fasta B.fasta [--k N] [--plot]
            alignment-free prefilter: k-mer Jaccard similarity, estimated
            alignment band, optional ASCII dotplot
  serve     --addr HOST:PORT [platform flags] [kernel-policy flags]
            [--recover [--max-device-failures N]] [--events-interval-ms N]
            resident alignment service: owns the platform and drains a
            prioritized job queue submitted over HTTP (POST /jobs,
            GET /jobs[/ID[/events]], DELETE /jobs/ID, plus /metrics,
            /health, /flight); the kernel-policy flags set the per-job
            defaults, --recover makes every job survive device loss, and
            per-job latency p50/p99 SLOs land on /metrics; runs until
            killed, printing each completed job
  submit    --addr HOST:PORT  A.fasta B.fasta
            | --batch A.fasta B.fasta | --manifest FILE | --cancel ID
            [--priority N] [--scores] [--no-wait] [kernel-policy flags]
            [--fault SPEC | --batch-fault PAIR@DEV:ROW[:PHASE],..]
            HTTP client for a running `megasw serve`: submits one pair
            (or a record-by-record batch) as a job, forwards exactly the
            policy flags you give (the rest stay on the server's
            defaults), then polls the job to completion (--no-wait just
            prints the id; --cancel ID sends DELETE instead)
  serve-metrics
            --metrics-addr HOST:PORT [--length N] [--seed S] [--runs N]
            [platform flags] [kernel-policy flags]
            run synthetic comparisons in a loop (forever unless --runs is
            given) while serving /metrics, /health and /flight over HTTP;
            point Prometheus or `megasw-metrics-scrape` at it

platform flags:
  --env1            2x GTX 680 (default: env2)
  --env2            GTX Titan + Tesla K20 + GTX 580
  --gpus N          use only the first N devices
  --block N         square tile side (default 512)
  --capacity N      ring capacity in borders (default 8)

kernel-policy flags (compare, align, simulate, tune):
  --kernel ENGINE   DP engine: auto | scalar | sse41 | avx2 | avx512
                    (default auto);
                    auto picks the widest SIMD engine the CPU supports,
                    forcing an unsupported engine is an error — every
                    engine returns bit-identical results
  --prune MODE      block pruning: off | local | distributed (default off);
                    local skips tiles its own device has already beaten,
                    distributed also folds neighbour watermarks from the
                    ring and a shared global watermark — the best score
                    stays bit-identical either way
  --equal           equal split instead of performance-proportional
  --checkpoint-rows N
                    checkpoint every N block-rows (default 8)
  --rebalance MODE  off | on | on:THRESHOLD (default off) — re-split the
                    column slabs at checkpoint boundaries when the predicted
                    makespan improvement clears THRESHOLD (default 0.05);
                    workers resume from the boundary checkpoint's full-width
                    border wave, so no cell is recomputed and the score
                    stays bit-identical (needs a checkpoint cadence)

fault-tolerance flags (compare, simulate):
  --fault SPEC      inject deterministic device failures; SPEC is a
                    comma-separated list of DEV:ROW[:PHASE] with PHASE one
                    of ring-pop|compute|ring-push|transfer (default compute)
  --recover         survive injected failures: blacklist the device,
                    repartition its columns across the survivors, rewind to
                    the newest checkpoint wave and resume (bit-identical
                    score; recovery accounting printed with the report)
  --max-device-failures N
                    give up after N device failures (default 1; needs
                    --recover)

observability flags (compare, align, simulate):
  --trace-out PATH  write a Chrome trace-event JSON of the run; open it in
                    chrome://tracing or https://ui.perfetto.dev
  --metrics         print the per-run metrics registry (GCUPS, ring
                    occupancy, stall accounting, span-duration percentiles)
  --metrics-format F
                    text | prom | json — how --metrics renders (default text;
                    prom is Prometheus text exposition)
  --obs-level L     off | kernels | full — how much the recorder keeps
                    (default: full when --trace-out is given, off otherwise)
  --progress        live progress line on stderr while the run executes:
                    percent done, instantaneous + cumulative GCUPS,
                    per-device imbalance and ring occupancy
  --progress-interval-ms N
                    sampling interval for --progress (default 500)
  --metrics-addr HOST:PORT
                    serve /metrics (Prometheus text), /health (JSON) and
                    /flight (JSONL flight recorder) over HTTP while the run
                    executes; live counters are republished continuously
                    and the final registry stays up until the command exits
                    (compare and simulate; port 0 picks a free port)
  --flight-dump PATH
                    keep a flight recorder (a ring of the last 256 events
                    per device) and dump it as JSONL to PATH when the run
                    ends — faulted or not (compare only)
";

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn cmd_generate(mut args: ArgStream) -> Result<(), String> {
    let length: usize = args.flag_value("--length")?.ok_or("--length is required")?;
    let seed: u64 = args.flag_value("--seed")?.unwrap_or(42);
    let divergence = args
        .flag_str("--divergence")
        .unwrap_or_else(|| "human-chimp".into());
    let out_human = args
        .flag_str("--out-human")
        .unwrap_or_else(|| "human.fasta".into());
    let out_chimp = args
        .flag_str("--out-chimp")
        .unwrap_or_else(|| "chimp.fasta".into());
    args.finish()?;

    let human = ChromosomeGenerator::new(GenerateConfig::sized(length, seed)).generate();
    let model = parse_divergence(&divergence, seed, length)?;
    let (chimp, summary) = model.apply(&human);

    write_one(&out_human, "human synthetic", &human)?;
    write_one(&out_chimp, "chimp synthetic", &chimp)?;
    println!(
        "wrote {} ({} bp) and {} ({} bp); {} SNPs, {} indel events",
        out_human,
        human.len(),
        out_chimp,
        chimp.len(),
        summary.substitutions,
        summary.insertions + summary.deletions
    );
    Ok(())
}

fn cmd_compare(mut args: ArgStream) -> Result<(), String> {
    let platform = cli_policy::parse_platform(&mut args)?;
    let cp = cli_policy::parse(&mut args)?;
    let config = cli_policy::parse_config(&mut args, cp.policy)?;
    let obs_opts = parse_obs(&mut args)?;
    let (faults, recovery) = (cp.faults, cp.recovery);
    let path_a = args.next_positional().ok_or("missing first FASTA path")?;
    let path_b = args.next_positional().ok_or("missing second FASTA path")?;
    args.finish()?;

    let a = load_fasta(&path_a)?;
    let b = load_fasta(&path_b)?;
    println!(
        "comparing {} ({} bp) x {} ({} bp) on {}",
        a.id(),
        a.seq.len(),
        b.id(),
        b.seq.len(),
        platform.name
    );

    let obs = obs_opts.recorder();
    let live = LiveTelemetry::new(
        platform.len(),
        (a.seq.len() as u64).saturating_mul(b.seq.len() as u64),
    );
    let sampler = obs_opts.spawn_progress(&live);
    let flight = obs_opts.flight(platform.len());
    let mut service = obs_opts.serve(&live, flight.as_ref())?;
    let mut run = PipelineRun::new(a.seq.codes(), b.seq.codes(), &platform)
        .config(config.clone())
        .observer(obs.clone())
        .live(Arc::clone(&live))
        .faults(faults);
    if let Some(fr) = &flight {
        run = run.flight(Arc::clone(fr));
    }
    if let Some(path) = &obs_opts.flight_dump {
        run = run.flight_dump_path(path);
    }
    if let Some(policy) = recovery {
        run = run.recover(policy);
    }
    let result = run.run();
    finish_progress(sampler);
    if let Some(path) = &obs_opts.flight_dump {
        println!("flight recorder dumped to {path}");
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            if let Some(svc) = service.as_mut() {
                svc.finish(live_registry(&live.snapshot()), false, "faulted");
            }
            return Err(e.to_string());
        }
    };
    let registry = report.metrics_with_spans(&obs.spans());
    print!("{report}");
    if obs_opts.metrics {
        obs_opts.print_metrics(&registry);
    }
    if let Some(svc) = service.as_mut() {
        svc.finish(registry, true, "complete");
    }
    obs_opts.export(&obs, &platform)?;

    let sim = DesSim::new(a.seq.len(), b.seq.len(), &platform)
        .config(config)
        .run();
    println!(
        "simulated on {}: {} ({:.2} GCUPS)",
        platform.name,
        sim.report.sim_time.unwrap(),
        sim.report.gcups_sim.unwrap()
    );
    if let Err(e) = sim.memory {
        println!("warning: {e}");
    }
    Ok(())
}

fn cmd_batch(mut args: ArgStream) -> Result<(), String> {
    let platform = cli_policy::parse_platform(&mut args)?;
    let cp = cli_policy::parse(&mut args)?;
    cp.reject_faults("batch")?;
    let config = cli_policy::parse_config(&mut args, cp.policy)?;
    let obs_opts = parse_obs(&mut args)?;
    obs_opts.reject_serving("batch")?;
    if obs_opts.trace_out.is_some() {
        return Err("batch does not support --trace-out".into());
    }
    let manifest = args.flag_str("--manifest");
    let threshold = args.flag_value::<u128>("--threshold-cells")?;
    let bins = args.flag_value::<usize>("--bins")?;
    let show_scores = args.take_flag("--scores");

    let jobs = if let Some(m) = manifest {
        if args.next_positional().is_some() {
            return Err("--manifest replaces the positional FASTA paths".into());
        }
        args.finish()?;
        jobs_from_manifest(&m)?
    } else {
        let pa = args
            .next_positional()
            .ok_or("batch needs two many-record FASTA paths or --manifest FILE")?;
        let pb = args.next_positional().ok_or("missing second FASTA path")?;
        args.finish()?;
        jobs_from_fasta_pair(&pa, &pb)?
    };
    if jobs.is_empty() {
        return Err("batch has no pairs".into());
    }

    let mut bcfg = BatchConfig::default().with_base(config);
    if let Some(t) = threshold {
        bcfg = bcfg.with_large_threshold_cells(t);
    }
    if let Some(b) = bins {
        bcfg = bcfg.with_bins(b);
    }
    bcfg.validate()?;

    let total_cells: u128 = jobs.iter().map(BatchJob::cells).sum();
    println!(
        "batching {} pairs ({:.3e} cells) on {}",
        jobs.len(),
        total_cells as f64,
        platform.name
    );

    let live = LiveTelemetry::new(
        platform.len(),
        u64::try_from(total_cells).unwrap_or(u64::MAX),
    );
    let sampler = obs_opts.spawn_progress(&live);
    let result = BatchRun::new(&jobs, &platform)
        .config(bcfg.clone())
        .live(Arc::clone(&live))
        .run();
    finish_progress(sampler);
    let report = result.map_err(|e| e.to_string())?;
    println!("{report}");
    if show_scores {
        for p in &report.pairs {
            println!(
                "  pair {:>5}  {:<24} {:>9} x {:<9} score {:>9}{}",
                p.pair,
                p.id,
                p.m,
                p.n,
                p.best.score,
                if p.large { "  [pipeline]" } else { "" }
            );
        }
    }
    if obs_opts.metrics {
        obs_opts.print_metrics(&report.metrics());
    }

    let specs: Vec<BatchSpec> = jobs
        .iter()
        .map(|j| BatchSpec {
            m: j.a.len(),
            n: j.b.len(),
        })
        .collect();
    let sim = BatchSim::new(&specs, &platform).config(bcfg).run();
    println!("{sim}");
    Ok(())
}

fn cmd_align(mut args: ArgStream) -> Result<(), String> {
    let platform = cli_policy::parse_platform(&mut args)?;
    let cp = cli_policy::parse(&mut args)?;
    cp.reject_faults("align")?;
    let config = cli_policy::parse_config(&mut args, cp.policy)?;
    let obs_opts = parse_obs(&mut args)?;
    obs_opts.reject_serving("align")?;
    let width: usize = args.flag_value("--width")?.unwrap_or(72);
    let path_a = args.next_positional().ok_or("missing first FASTA path")?;
    let path_b = args.next_positional().ok_or("missing second FASTA path")?;
    args.finish()?;

    let a = load_fasta(&path_a)?;
    let b = load_fasta(&path_b)?;
    let obs = obs_opts.recorder();
    // Sized for the forward matrix; stage 2's reversed-prefix rerun can
    // push the fraction past 1, which the snapshot clamps to 100%.
    let live = LiveTelemetry::new(
        platform.len(),
        (a.seq.len() as u64).saturating_mul(b.seq.len() as u64),
    );
    let sampler = obs_opts.spawn_progress(&live);
    let (aln, times) = multigpu_local_align_live(
        a.seq.codes(),
        b.seq.codes(),
        &platform,
        &config,
        &obs,
        Some(&live),
    )
    .map_err(|e| e.to_string())?;
    finish_progress(sampler);
    obs_opts.export(&obs, &platform)?;
    if aln.is_empty() {
        println!("no positive-scoring local alignment");
        return Ok(());
    }
    println!(
        "score {} | a[{}..={}] x b[{}..={}] | {} columns | identity {:.2}%",
        aln.score,
        aln.start_i,
        aln.end_i,
        aln.start_j,
        aln.end_j,
        aln.len(),
        aln.identity() * 100.0
    );
    println!(
        "stages: 1 {:?}  2 {:?}  3 {:?}",
        times.stage1, times.stage2, times.stage3
    );
    println!("CIGAR: {}\n", aln.cigar());
    print!(
        "{}",
        render_alignment(a.seq.codes(), b.seq.codes(), &aln, width)
    );
    Ok(())
}

fn cmd_simulate(mut args: ArgStream) -> Result<(), String> {
    let platform = cli_policy::parse_platform(&mut args)?;
    let cp = cli_policy::parse(&mut args)?;
    let config = cli_policy::parse_config(&mut args, cp.policy)?;
    let obs_opts = parse_obs(&mut args)?;
    let (faults, recovery) = (cp.faults, cp.recovery);
    let m: usize = args.flag_value("--m")?.ok_or("--m is required")?;
    let n: usize = args.flag_value("--n")?.ok_or("--n is required")?;
    let identity: Option<f64> = args.flag_value("--identity")?;
    if let Some(q) = identity {
        if !(0.0..=1.0).contains(&q) {
            return Err("--identity must be within 0..=1".into());
        }
    }
    let drifts = match args.flag_str("--drift") {
        Some(spec) => parse_drifts(&spec, platform.len())?,
        None => Vec::new(),
    };
    let gantt = args.take_flag("--gantt");
    args.finish()?;
    if obs_opts.flight_dump.is_some() {
        return Err("simulate does not record a flight box; --flight-dump needs compare".into());
    }

    let obs = obs_opts.recorder();
    // The DES solves the schedule instantaneously and replays kernel
    // completions through a manual (simulated-time) clock, so the progress
    // line reports the run's *simulated* trajectory: render the final
    // snapshot rather than racing a sampler against the replay.
    let live =
        LiveTelemetry::with_manual_clock(platform.len(), (m as u64).saturating_mul(n as u64));
    let mut service = obs_opts.serve(&live, None)?;
    let mut sim = DesSim::new(m, n, &platform)
        .config(config)
        .observer(obs.clone())
        .live(Arc::clone(&live))
        .faults(faults);
    if let Some(q) = identity {
        sim = sim.identity(q);
    }
    for d in drifts {
        sim = sim.drift(d);
    }
    if let Some(policy) = recovery {
        sim = sim.recover(policy);
    }
    let run = sim.run();
    if obs_opts.progress {
        eprintln!("{}", render_progress_line(&live.snapshot(), None));
    }
    for loss in &run.losses {
        println!(
            "device failure: gpu{} at block-row {} (t = {})",
            loss.device, loss.block_row, loss.at
        );
    }
    if let Some(e) = &run.aborted {
        if let Some(svc) = service.as_mut() {
            svc.finish(live_registry(&live.snapshot()), false, "aborted");
        }
        return Err(e.to_string());
    }
    let registry = run.report.metrics_with_spans(&obs.spans());
    print!("{}", run.report);
    if obs_opts.metrics {
        obs_opts.print_metrics(&registry);
    }
    if let Some(svc) = service.as_mut() {
        svc.finish(registry, true, "complete");
    }
    obs_opts.export(&obs, &platform)?;
    match &run.memory {
        Ok(plans) => {
            for (d, plan) in run.report.devices.iter().zip(plans) {
                println!(
                    "  gpu{} memory: {:.1} MiB required",
                    d.device,
                    plan.total() as f64 / (1024.0 * 1024.0)
                );
            }
        }
        Err(e) => println!("warning: {e}"),
    }
    if gantt {
        print!(
            "\n{}",
            render_gantt(
                run.schedule.spans(),
                &run.schedule.resource_list(),
                run.schedule.makespan(),
                100,
            )
        );
    }
    Ok(())
}

fn cmd_tune(mut args: ArgStream) -> Result<(), String> {
    let platform = cli_policy::parse_platform(&mut args)?;
    let cp = cli_policy::parse(&mut args)?;
    cp.reject_faults("tune")?;
    let config = cli_policy::parse_config(&mut args, cp.policy)?;
    let m: usize = args.flag_value("--m")?.ok_or("--m is required")?;
    let n: usize = args.flag_value("--n")?.ok_or("--n is required")?;
    args.finish()?;

    let tuned = autotune(m, n, &platform, &config);
    println!("{:>8} {:>9} {:>9}", "block_h", "capacity", "GCUPS");
    for c in &tuned.candidates {
        println!("{:>8} {:>9} {:>9.2}", c.block_h, c.buffer_capacity, c.gcups);
    }
    println!(
        "\nbest: block_h = {}, capacity = {} -> {:.2} GCUPS on {}",
        tuned.config.block_h, tuned.config.buffer_capacity, tuned.gcups, platform.name
    );
    Ok(())
}

fn cmd_screen(mut args: ArgStream) -> Result<(), String> {
    use megasw::seq::kmer::{dotplot, estimate_band, jaccard};

    let k: usize = args.flag_value("--k")?.unwrap_or(16);
    if !(1..=32).contains(&k) {
        return Err("--k must be within 1..=32".into());
    }
    let plot = args.take_flag("--plot");
    let path_a = args.next_positional().ok_or("missing first FASTA path")?;
    let path_b = args.next_positional().ok_or("missing second FASTA path")?;
    args.finish()?;

    let a = load_fasta(&path_a)?;
    let b = load_fasta(&path_b)?;
    let j = jaccard(&a.seq, &b.seq, k);
    println!(
        "{}-mer Jaccard similarity: {:.4}  ({})",
        k,
        j,
        if j > 0.2 {
            "strong homology — full comparison worthwhile"
        } else if j > 0.02 {
            "weak homology — expect short local alignments"
        } else {
            "no detectable homology"
        }
    );
    match estimate_band(&a.seq, &b.seq, k, 0.9, 64) {
        Some((lo, hi)) => println!(
            "estimated alignment band: diagonals {lo}..{hi} (width {})",
            hi - lo + 1
        ),
        None => println!("no shared {k}-mers: no band to estimate"),
    }
    if plot {
        println!("\ndotplot (rows = {}, cols = {}):", a.id(), b.id());
        print!("{}", dotplot(&a.seq, &b.seq, k, 72, 24));
    }
    Ok(())
}

/// `serve`: the resident alignment service. Owns the platform for the
/// process lifetime, drains the prioritized job queue, and serves the
/// whole control surface over the std-only HTTP listener: `POST /jobs`,
/// `GET /jobs`, `GET /jobs/ID`, `GET /jobs/ID/events` (NDJSON progress),
/// `DELETE /jobs/ID` (cooperative cancellation), plus the built-in
/// `/metrics`, `/health` and `/flight`. Runs until killed, printing each
/// job as its execution finishes.
fn cmd_serve(mut args: ArgStream) -> Result<(), String> {
    let platform = cli_policy::parse_platform(&mut args)?;
    let cp = cli_policy::parse(&mut args)?;
    if !cp.faults.is_empty() {
        return Err("serve takes no --fault; inject faults per job via `megasw submit`".into());
    }
    let config = cli_policy::parse_config(&mut args, cp.policy)?;
    let addr = args.flag_str("--addr").ok_or("--addr is required")?;
    let events_ms: u64 = args.flag_value("--events-interval-ms")?.unwrap_or(50);
    args.finish()?;
    if events_ms == 0 {
        return Err("--events-interval-ms must be at least 1".into());
    }

    let mut svc_cfg = ServiceConfig::new(config);
    svc_cfg.events_interval = Duration::from_millis(events_ms);
    if let Some(policy) = cp.recovery {
        svc_cfg = svc_cfg.with_recovery(policy);
    }
    let platform_name = platform.name.clone();
    let service = AlignService::start(platform, svc_cfg, MetricsHub::new());
    let server = MetricsServer::bind_routed(&addr, service.hub(), Some(service.handler()))
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "serving jobs on http://{}/ ({}; POST /jobs, GET /jobs[/ID[/events]], DELETE /jobs/ID, /metrics, /health, /flight)",
        server.local_addr(),
        platform_name
    );

    // Print each job as its execution finishes, in completion order.
    let mut printed = 0usize;
    loop {
        let done = service.completed_order();
        for &id in &done[printed..] {
            if let Some(s) = service.status(id) {
                println!(
                    "job {:>4}  {:<24} {:<9} {}",
                    s.id,
                    s.name,
                    s.state.name(),
                    match (&s.report, &s.error) {
                        (Some(r), _) => format!(
                            "best {}  {:.1} ms",
                            r.best_score(),
                            s.latency.unwrap_or_default().as_secs_f64() * 1e3
                        ),
                        (None, Some(e)) => e.clone(),
                        (None, None) => String::new(),
                    }
                );
            }
        }
        printed = done.len();
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// `submit`: the HTTP client for a running `megasw serve`. Builds the
/// `POST /jobs` JSON body (sequences ride along as FASTA text or raw
/// bases), forwards exactly the policy flags that were given — omitted
/// knobs stay on the server's defaults — then polls `GET /jobs/ID` until
/// the job is terminal.
fn cmd_submit(mut args: ArgStream) -> Result<(), String> {
    use megasw::obs::json::{self, escape, Value};

    let addr = args.flag_str("--addr").ok_or("--addr is required")?;
    if let Some(id) = args.flag_value::<u64>("--cancel")? {
        args.finish()?;
        let (head, body) = http_delete(&addr, &format!("/jobs/{id}"))
            .map_err(|e| format!("cannot reach {addr}: {e}"))?;
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!("cancel failed: {}", body.trim()));
        }
        let v = json::parse(&body).map_err(|e| format!("bad cancel response: {e}"))?;
        println!(
            "job {id} is now {}",
            v.get("state").and_then(Value::as_str).unwrap_or("?")
        );
        return Ok(());
    }

    let cp = cli_policy::parse(&mut args)?;
    if cp.recovery.is_some() {
        return Err("--recover is a serve-side flag; start the service with it".into());
    }
    let priority: i64 = args.flag_value("--priority")?.unwrap_or(0);
    let batch = args.take_flag("--batch");
    let manifest = args.flag_str("--manifest");
    let threshold = args.flag_value::<u128>("--threshold-cells")?;
    let bins = args.flag_value::<usize>("--bins")?;
    let batch_fault = args.flag_str("--batch-fault");
    let show_scores = args.take_flag("--scores");
    let no_wait = args.take_flag("--no-wait");

    let mut fields: Vec<String> = Vec::new();
    if priority != 0 {
        fields.push(format!("\"priority\": {priority}"));
    }
    if let Some(policy) = cp.raw.policy_json() {
        fields.push(format!("\"policy\": {policy}"));
    }
    if batch || manifest.is_some() {
        if !cp.faults.is_empty() {
            return Err("batch jobs take --batch-fault PAIR@DEV:ROW, not --fault".into());
        }
        let pairs: Vec<(String, String, String)> = if let Some(m) = manifest {
            if batch {
                return Err("--manifest replaces the --batch FASTA paths".into());
            }
            args.finish()?;
            jobs_from_manifest(&m)?
                .into_iter()
                .map(|j| {
                    let a = DnaSeq::from_codes(j.a).expect("manifest codes are valid");
                    let b = DnaSeq::from_codes(j.b).expect("manifest codes are valid");
                    (j.id, a.to_ascii_string(), b.to_ascii_string())
                })
                .collect()
        } else {
            let pa = args
                .next_positional()
                .ok_or("submit --batch needs two many-record FASTA paths")?;
            let pb = args.next_positional().ok_or("missing second FASTA path")?;
            args.finish()?;
            jobs_from_fasta_pair(&pa, &pb)?
                .into_iter()
                .map(|j| {
                    let a = DnaSeq::from_codes(j.a).expect("FASTA codes are valid");
                    let b = DnaSeq::from_codes(j.b).expect("FASTA codes are valid");
                    (j.id, a.to_ascii_string(), b.to_ascii_string())
                })
                .collect()
        };
        if pairs.is_empty() {
            return Err("batch has no pairs".into());
        }
        let rendered: Vec<String> = pairs
            .iter()
            .map(|(id, a, b)| {
                format!(
                    "{{\"id\": \"{}\", \"a\": \"{}\", \"b\": \"{}\"}}",
                    escape(id),
                    escape(a),
                    escape(b)
                )
            })
            .collect();
        fields.push(format!("\"pairs\": [{}]", rendered.join(", ")));
        if let Some(t) = threshold {
            fields.push(format!("\"threshold_cells\": {t}"));
        }
        if let Some(b) = bins {
            fields.push(format!("\"bins\": {b}"));
        }
        if let Some(spec) = batch_fault {
            let rendered: Vec<String> = spec
                .split(',')
                .map(|f| {
                    f.parse::<BatchFault>()?; // validate before shipping
                    Ok(format!("\"{}\"", escape(f)))
                })
                .collect::<Result<_, String>>()?;
            fields.push(format!("\"faults\": [{}]", rendered.join(", ")));
        }
    } else {
        if threshold.is_some() || bins.is_some() || batch_fault.is_some() {
            return Err(
                "--threshold-cells / --bins / --batch-fault need --batch or --manifest".into(),
            );
        }
        let pa = args.next_positional().ok_or("missing first FASTA path")?;
        let pb = args.next_positional().ok_or("missing second FASTA path")?;
        args.finish()?;
        let a_text = std::fs::read_to_string(&pa).map_err(|e| format!("cannot read {pa}: {e}"))?;
        let b_text = std::fs::read_to_string(&pb).map_err(|e| format!("cannot read {pb}: {e}"))?;
        fields.push(format!("\"id\": \"{}-vs-{}\"", escape(&pa), escape(&pb)));
        fields.push(format!("\"a\": \"{}\"", escape(&a_text)));
        fields.push(format!("\"b\": \"{}\"", escape(&b_text)));
        if let Some(spec) = &cp.raw.fault {
            fields.push(format!("\"fault\": \"{}\"", escape(spec)));
        }
    }

    let body = format!("{{{}}}", fields.join(", "));
    let (head, resp) =
        http_post(&addr, "/jobs", &body).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if !head.starts_with("HTTP/1.1 202") {
        return Err(format!("submit rejected: {}", resp.trim()));
    }
    let v = json::parse(&resp).map_err(|e| format!("bad submit response: {e}"))?;
    let id = v
        .get("job")
        .and_then(Value::as_f64)
        .ok_or("submit response carries no job id")? as u64;
    println!("job {id} queued on {addr}");
    if no_wait {
        return Ok(());
    }

    // Poll to a terminal state.
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let (_, body) = http_get(&addr, &format!("/jobs/{id}"))
            .map_err(|e| format!("lost {addr} while polling: {e}"))?;
        let v = json::parse(&body).map_err(|e| format!("bad status response: {e}"))?;
        let state = v.get("state").and_then(Value::as_str).unwrap_or("?");
        match state {
            "queued" | "running" => continue,
            "done" => {
                let report = v.get("report").ok_or("done job carries no report")?;
                println!(
                    "job {id} done: best {}  {:.1} ms  {:.2} GCUPS",
                    report
                        .get("best_score")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                    v.get("latency_ms").and_then(Value::as_f64).unwrap_or(0.0),
                    report.get("gcups").and_then(Value::as_f64).unwrap_or(0.0),
                );
                if show_scores {
                    let outcomes = report
                        .get("outcomes")
                        .and_then(Value::as_array)
                        .ok_or("report carries no outcomes")?;
                    for o in outcomes {
                        println!(
                            "  pair {:>5}  {:<24} score {:>9}",
                            o.get("pair").and_then(Value::as_f64).unwrap_or(-1.0),
                            o.get("id").and_then(Value::as_str).unwrap_or("?"),
                            o.get("score").and_then(Value::as_f64).unwrap_or(0.0),
                        );
                    }
                }
                return Ok(());
            }
            "cancelled" => {
                println!("job {id} cancelled");
                return Ok(());
            }
            other => {
                return Err(format!(
                    "job {id} {other}: {}",
                    v.get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("no detail")
                ));
            }
        }
    }
}

/// `serve-metrics`: a long-lived observability endpoint. Generates a fresh
/// synthetic pair each iteration, runs the threaded pipeline with live
/// telemetry and a flight recorder attached, and republishes the registry —
/// live counters during each run, the full post-run registry between runs —
/// while the std-only HTTP listener serves `/metrics`, `/health` and
/// `/flight`. Loops forever unless `--runs` bounds it.
fn cmd_serve_metrics(mut args: ArgStream) -> Result<(), String> {
    let platform = cli_policy::parse_platform(&mut args)?;
    let cp = cli_policy::parse(&mut args)?;
    cp.reject_faults("serve-metrics")?;
    let config = cli_policy::parse_config(&mut args, cp.policy)?;
    let addr = args
        .flag_str("--metrics-addr")
        .ok_or("--metrics-addr is required")?;
    let length: usize = args.flag_value("--length")?.unwrap_or(100_000);
    let seed: u64 = args.flag_value("--seed")?.unwrap_or(42);
    let runs: Option<u64> = args.flag_value("--runs")?;
    args.finish()?;
    if length == 0 {
        return Err("--length must be at least 1".into());
    }

    let hub = MetricsHub::new();
    let flight = FlightRecorder::new(platform.len(), megasw::obs::flight::DEFAULT_CAPACITY);
    hub.attach_flight(Arc::clone(&flight));
    hub.set_health(true, "idle");
    let server = MetricsServer::bind(&addr, Arc::clone(&hub))
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "serving /metrics /health /flight on http://{}/ ({} on {})",
        server.local_addr(),
        match runs {
            Some(n) => format!("{n} runs"),
            None => "looping until killed".into(),
        },
        platform.name
    );

    let mut iteration = 0u64;
    loop {
        iteration += 1;
        let a =
            ChromosomeGenerator::new(GenerateConfig::sized(length, seed ^ iteration)).generate();
        let (b, _) = DivergenceModel::test_scale(seed.wrapping_add(iteration)).apply(&a);
        let live = LiveTelemetry::new(
            platform.len(),
            (a.len() as u64).saturating_mul(b.len() as u64),
        );
        hub.set_health(true, "running");
        let publisher = {
            let hub = Arc::clone(&hub);
            ProgressSampler::spawn(
                Arc::clone(&live),
                Duration::from_millis(250),
                move |cur, _prev| hub.publish(live_registry(cur)),
            )
        };
        let result = PipelineRun::new(a.codes(), b.codes(), &platform)
            .config(config.clone())
            .live(Arc::clone(&live))
            .flight(Arc::clone(&flight))
            .run();
        publisher.stop();
        let report = result.map_err(|e| e.to_string())?;
        let mut registry = report.metrics();
        registry.describe("serve.iterations", "Comparisons completed by serve-metrics");
        registry.incr("serve.iterations", iteration);
        hub.publish(registry);
        hub.set_health(true, "idle");
        println!(
            "run {iteration}: best {} at ({}, {}) in {:.0?}",
            report.best.score,
            report.best.i,
            report.best.j,
            report.wall_time.unwrap_or_default()
        );
        if Some(iteration) == runs {
            break;
        }
    }
    server.shutdown();
    Ok(())
}

// ---------------------------------------------------------------------------
// Shared parsing helpers
// ---------------------------------------------------------------------------

/// How `--metrics` renders the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Text,
    Prom,
    Json,
}

impl std::str::FromStr for MetricsFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(MetricsFormat::Text),
            "prom" => Ok(MetricsFormat::Prom),
            "json" => Ok(MetricsFormat::Json),
            other => Err(format!(
                "unknown metrics format {other:?} (expected text, prom, or json)"
            )),
        }
    }
}

/// Observability choices shared by `compare`, `align` and `simulate`.
#[derive(Debug)]
struct ObsOptions {
    level: ObsLevel,
    trace_out: Option<String>,
    metrics: bool,
    metrics_format: MetricsFormat,
    progress: bool,
    progress_interval: Duration,
    metrics_addr: Option<String>,
    flight_dump: Option<String>,
}

impl ObsOptions {
    fn recorder(&self) -> Recorder {
        Recorder::new(self.level)
    }

    /// Build a flight recorder when anything will read it: either
    /// `--flight-dump` wants a post-run JSONL, or `--metrics-addr` serves
    /// the live `/flight` endpoint.
    fn flight(&self, lanes: usize) -> Option<Arc<FlightRecorder>> {
        (self.flight_dump.is_some() || self.metrics_addr.is_some())
            .then(|| FlightRecorder::new(lanes, megasw::obs::flight::DEFAULT_CAPACITY))
    }

    /// Reject the endpoint/flight flags on subcommands that cannot honour
    /// them (align's three-stage driver owns its own pipeline runs).
    fn reject_serving(&self, subcommand: &str) -> Result<(), String> {
        if self.metrics_addr.is_some() || self.flight_dump.is_some() {
            return Err(format!(
                "{subcommand} does not support --metrics-addr / --flight-dump"
            ));
        }
        Ok(())
    }

    /// Bind the `--metrics-addr` HTTP listener and start republishing the
    /// live counters into its hub. Returns `None` when the flag is absent.
    fn serve(
        &self,
        live: &Arc<LiveTelemetry>,
        flight: Option<&Arc<FlightRecorder>>,
    ) -> Result<Option<MetricsService>, String> {
        let Some(addr) = &self.metrics_addr else {
            return Ok(None);
        };
        let hub = MetricsHub::new();
        if let Some(fr) = flight {
            hub.attach_flight(Arc::clone(fr));
        }
        hub.set_health(true, "running");
        let server = MetricsServer::bind(addr, Arc::clone(&hub))
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        println!(
            "serving /metrics /health /flight on http://{}/",
            server.local_addr()
        );
        let publisher = {
            let hub = Arc::clone(&hub);
            ProgressSampler::spawn(
                Arc::clone(live),
                self.progress_interval.min(Duration::from_millis(250)),
                move |cur, _prev| hub.publish(live_registry(cur)),
            )
        };
        Ok(Some(MetricsService {
            hub,
            _server: server,
            publisher: Some(publisher),
        }))
    }

    /// Write the recorded spans as a Chrome trace, if requested.
    fn export(&self, obs: &Recorder, platform: &Platform) -> Result<(), String> {
        let Some(path) = &self.trace_out else {
            return Ok(());
        };
        let names: Vec<String> = platform.devices.iter().map(|d| d.name.clone()).collect();
        std::fs::write(path, chrome_trace(&obs.spans(), &names))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote {} spans to {path} (open in chrome://tracing or ui.perfetto.dev)",
            obs.len()
        );
        Ok(())
    }

    /// Render the registry in the chosen `--metrics-format`.
    fn print_metrics(&self, metrics: &MetricsRegistry) {
        match self.metrics_format {
            MetricsFormat::Text => print!("{metrics}"),
            MetricsFormat::Prom => print!("{}", prometheus(metrics)),
            MetricsFormat::Json => print!("{}", metrics_json(metrics)),
        }
    }

    /// Start the `--progress` sampler on `live`, writing the progress line
    /// to stderr. Returns `None` when `--progress` was not given; call
    /// [`finish_progress`] on the returned sampler after the run.
    fn spawn_progress(&self, live: &Arc<LiveTelemetry>) -> Option<ProgressSampler> {
        if !self.progress {
            return None;
        }
        Some(ProgressSampler::spawn(
            Arc::clone(live),
            self.progress_interval,
            |cur, prev| {
                // \r + erase-to-EOL keeps a single in-place TTY line.
                eprint!("\r\x1b[K{}", render_progress_line(cur, prev));
                let _ = std::io::stderr().flush();
            },
        ))
    }
}

/// Stop a `--progress` sampler (its shutdown sample prints the final 100%
/// line) and move stderr off the in-place line.
fn finish_progress(sampler: Option<ProgressSampler>) {
    if let Some(s) = sampler {
        s.stop();
        eprintln!();
    }
}

/// A live `--metrics-addr` endpoint for one run: the hub the handlers read
/// from, the HTTP listener, and a sampler that republishes the registry
/// from the live counters every few hundred milliseconds.
struct MetricsService {
    hub: Arc<MetricsHub>,
    _server: MetricsServer,
    publisher: Option<ProgressSampler>,
}

impl MetricsService {
    /// Swap in the final post-run registry and flip `/health` to `state`.
    /// The listener keeps serving until the service value is dropped, so a
    /// scraper arriving between run end and process exit still sees the
    /// complete picture.
    fn finish(&mut self, registry: MetricsRegistry, healthy: bool, state: &str) {
        if let Some(p) = self.publisher.take() {
            p.stop();
        }
        self.hub.publish(registry);
        self.hub.set_health(healthy, state);
    }
}

/// Render the in-flight counters as a registry for the `/metrics` endpoint:
/// overall progress plus the per-device phase clocks, in the same
/// `attr.d{N}` namespace the final report uses.
fn live_registry(s: &LiveSnapshot) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.describe("live.cells_done", "DP cells computed so far");
    m.describe("live.now_ns", "Run clock at the sample instant");
    m.describe("live.recoveries", "Device recoveries observed so far");
    m.incr("live.cells_done", s.cells_done());
    m.incr("live.now_ns", s.now_ns);
    m.incr("live.recoveries", s.recoveries);
    m.observe("live.fraction_done", s.fraction_done());
    m.observe("live.gcups_cumulative", s.gcups_cumulative());
    for (i, d) in s.devices.iter().enumerate() {
        m.incr(&format!("live.d{i}.rows_done"), d.rows_done);
        m.incr(&format!("live.d{i}.busy_ns"), d.busy_ns);
        m.incr(&format!("attr.d{i}.wait_input_ns"), d.wait_input_ns);
        m.incr(&format!("attr.d{i}.wait_output_ns"), d.wait_output_ns);
        m.incr(&format!("attr.d{i}.checkpoint_ns"), d.checkpoint_ns);
        m.incr(&format!("attr.d{i}.prune_skip_ns"), d.prune_skip_ns);
    }
    m
}

fn parse_obs(args: &mut ArgStream) -> Result<ObsOptions, String> {
    let trace_out = args.flag_str("--trace-out");
    let metrics = args.take_flag("--metrics");
    let metrics_addr = args.flag_str("--metrics-addr");
    let flight_dump = args.flag_str("--flight-dump");
    if let Some(addr) = &metrics_addr {
        if !addr.contains(':') {
            return Err(format!("--metrics-addr needs HOST:PORT, got {addr:?}"));
        }
    }
    let progress = args.take_flag("--progress");
    let interval_ms = args.flag_value::<u64>("--progress-interval-ms")?;
    let metrics_format = args.flag_str("--metrics-format");
    let explicit_level = args.flag_str("--obs-level");
    let level = match &explicit_level {
        Some(s) => s.parse::<ObsLevel>()?,
        None if trace_out.is_some() => ObsLevel::Full,
        None => ObsLevel::Off,
    };
    if trace_out.is_some() && level == ObsLevel::Off {
        return Err("--trace-out needs --obs-level kernels or full".into());
    }
    // --progress does not need the recorder (the live counters are
    // independent), but combining it with an *explicit* request to observe
    // nothing is a contradiction worth rejecting up front.
    if progress && explicit_level.as_deref() == Some("off") {
        return Err("--progress conflicts with --obs-level off".into());
    }
    // The progress line goes to stderr; a trace streamed to stdout would
    // interleave with it when both are piped through the same terminal.
    if progress {
        if let Some(t) = &trace_out {
            if t == "-" || t == "/dev/stdout" {
                return Err("--progress cannot be combined with --trace-out to stdout".into());
            }
        }
    }
    if metrics_format.is_some() && !metrics {
        return Err("--metrics-format requires --metrics".into());
    }
    if interval_ms.is_some() && !progress {
        return Err("--progress-interval-ms requires --progress".into());
    }
    if interval_ms == Some(0) {
        return Err("--progress-interval-ms must be at least 1".into());
    }
    let metrics_format = match metrics_format {
        Some(s) => s.parse::<MetricsFormat>()?,
        None => MetricsFormat::Text,
    };
    Ok(ObsOptions {
        level,
        trace_out,
        metrics,
        metrics_format,
        progress,
        progress_interval: Duration::from_millis(interval_ms.unwrap_or(500)),
        metrics_addr,
        flight_dump,
    })
}

/// The single parsing surface for every flag that shapes a run: the
/// platform (`--env1`/`--env2`/`--gpus`), the geometry
/// (`--block`/`--capacity`), everything that lands in a [`KernelPolicy`]
/// — `--kernel`, `--prune`, `--equal`, `--checkpoint-rows`,
/// `--rebalance` — plus the fault schedule and recovery budget that ride
/// along with it (`--fault`, `--recover`, `--max-device-failures`).
/// `compare`, `batch`, `align`, `simulate`, `tune`, `serve` and `submit`
/// all parse through here; no subcommand re-implements a flag.
mod cli_policy {
    use super::ArgStream;
    use megasw::obs::json::escape;
    use megasw::prelude::*;

    /// The policy flags exactly as the user gave them. `megasw submit`
    /// renders these as the `policy` object of `POST /jobs` — forwarding
    /// only what was explicit, so the serve-side defaults keep governing
    /// every omitted knob.
    #[derive(Debug, Default)]
    pub struct RawPolicy {
        pub kernel: Option<String>,
        pub prune: Option<String>,
        pub rebalance: Option<String>,
        pub checkpoint_rows: Option<usize>,
        pub equal: bool,
        pub fault: Option<String>,
    }

    impl RawPolicy {
        /// Render the explicitly-given policy flags as the JSON `policy`
        /// object; `None` when no policy flag was given.
        pub fn policy_json(&self) -> Option<String> {
            let mut fields: Vec<String> = Vec::new();
            if let Some(k) = &self.kernel {
                fields.push(format!("\"kernel\": \"{}\"", escape(k)));
            }
            if let Some(p) = &self.prune {
                fields.push(format!("\"prune\": \"{}\"", escape(p)));
            }
            if let Some(r) = &self.rebalance {
                fields.push(format!("\"rebalance\": \"{}\"", escape(r)));
            }
            if let Some(rows) = self.checkpoint_rows {
                fields.push(format!("\"checkpoint_rows\": {rows}"));
            }
            if self.equal {
                fields.push("\"equal\": true".into());
            }
            (!fields.is_empty()).then(|| format!("{{{}}}", fields.join(", ")))
        }
    }

    /// Everything the policy flags decide for a run.
    #[derive(Debug)]
    pub struct CliPolicy {
        pub policy: KernelPolicy,
        pub faults: FaultSchedule,
        pub recovery: Option<RecoveryPolicy>,
        pub raw: RawPolicy,
    }

    impl CliPolicy {
        /// Reject the fault-tolerance flags on subcommands that cannot
        /// inject faults (align runs the three-stage retrieval, tune only
        /// sweeps the simulator).
        pub fn reject_faults(&self, subcommand: &str) -> Result<(), String> {
            if !self.faults.is_empty() || self.recovery.is_some() {
                return Err(format!("{subcommand} does not support --fault / --recover"));
            }
            Ok(())
        }
    }

    pub fn parse(args: &mut ArgStream) -> Result<CliPolicy, String> {
        let mut raw = RawPolicy {
            kernel: args.flag_str("--kernel"),
            prune: args.flag_str("--prune"),
            rebalance: args.flag_str("--rebalance"),
            checkpoint_rows: args.flag_value::<usize>("--checkpoint-rows")?,
            equal: args.take_flag("--equal"),
            fault: args.flag_str("--fault"),
        };
        let mut policy = KernelPolicy::default();
        if let Some(spec) = &raw.kernel {
            policy = policy.with_dispatch(KernelDispatch::parse(spec)?);
        }
        if let Some(spec) = &raw.prune {
            policy = policy.with_pruning(PruneMode::parse(spec)?);
        }
        if raw.equal {
            policy = policy.with_partition(PartitionPolicy::Equal);
        }
        if let Some(rows) = raw.checkpoint_rows {
            if rows == 0 {
                return Err("--checkpoint-rows must be at least 1".into());
            }
            policy = policy.with_checkpoint(CheckpointCadence::EveryRows(rows));
        }
        if let Some(spec) = &raw.rebalance {
            policy = policy.with_rebalance(RebalanceMode::parse(spec)?);
        }
        let faults = match &raw.fault {
            Some(spec) => spec.parse::<FaultSchedule>()?,
            None => FaultSchedule::default(),
        };
        if faults.is_empty() {
            raw.fault = None; // an empty spec forwards nothing
        }
        let recover = args.take_flag("--recover");
        let max_failures = args.flag_value::<usize>("--max-device-failures")?;
        if !recover && max_failures.is_some() {
            return Err("--max-device-failures requires --recover".into());
        }
        let recovery = recover.then(|| RecoveryPolicy {
            max_device_failures: max_failures
                .unwrap_or(RecoveryPolicy::default().max_device_failures),
        });
        Ok(CliPolicy {
            policy,
            faults,
            recovery,
            raw,
        })
    }

    pub fn parse_platform(args: &mut ArgStream) -> Result<Platform, String> {
        let env1 = args.take_flag("--env1");
        let env2 = args.take_flag("--env2");
        if env1 && env2 {
            return Err("--env1 and --env2 are mutually exclusive".into());
        }
        let mut platform = if env1 {
            Platform::env1()
        } else {
            Platform::env2()
        };
        if let Some(gpus) = args.flag_value::<usize>("--gpus")? {
            if gpus == 0 {
                return Err("--gpus must be at least 1".into());
            }
            platform = platform.take(gpus);
        }
        Ok(platform)
    }

    pub fn parse_config(args: &mut ArgStream, policy: KernelPolicy) -> Result<RunConfig, String> {
        let mut config = RunConfig::paper_default().with_policy(policy);
        if let Some(block) = args.flag_value::<usize>("--block")? {
            config = config.with_block(block);
        }
        if let Some(cap) = args.flag_value::<usize>("--capacity")? {
            config = config.with_buffer_capacity(cap);
        }
        config.validate()?;
        Ok(config)
    }
}

/// `--drift` spec: comma-separated `DEV:ROW:FACTOR` entries. From block-row
/// ROW onward, device DEV's clock is multiplied by FACTOR (0.5 = the board
/// halves its clock, e.g. thermal throttling).
fn parse_drifts(spec: &str, devices: usize) -> Result<Vec<ClockDrift>, String> {
    spec.split(',')
        .map(|entry| {
            let parts: Vec<&str> = entry.split(':').collect();
            let [dev, row, factor] = parts.as_slice() else {
                return Err(format!(
                    "bad drift entry {entry:?} (expected DEV:ROW:FACTOR)"
                ));
            };
            let device: usize = dev
                .parse()
                .map_err(|_| format!("bad drift device {dev:?}"))?;
            if device >= devices {
                return Err(format!(
                    "drift device {device} out of range (platform has {devices})"
                ));
            }
            let after_row: usize = row.parse().map_err(|_| format!("bad drift row {row:?}"))?;
            let factor: f64 = factor
                .parse()
                .map_err(|_| format!("bad drift factor {factor:?}"))?;
            if !factor.is_finite() || factor <= 0.0 {
                return Err(format!("drift factor must be positive, got {factor}"));
            }
            Ok(ClockDrift {
                device,
                after_row,
                factor,
            })
        })
        .collect()
}

fn parse_divergence(spec: &str, seed: u64, len: usize) -> Result<DivergenceModel, String> {
    if spec == "human-chimp" {
        Ok(DivergenceModel::human_chimp_scaled(seed ^ 0x444, len))
    } else if spec == "none" {
        Ok(DivergenceModel::identity(seed))
    } else if let Some(rate) = spec.strip_prefix("snp:") {
        let rate: f64 = rate
            .parse()
            .map_err(|_| format!("bad SNP rate in {spec:?}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err("SNP rate must be within [0, 1]".into());
        }
        Ok(DivergenceModel::snp_only(seed ^ 0x555, rate))
    } else {
        Err(format!(
            "unknown divergence {spec:?} (expected human-chimp, none, or snp:RATE)"
        ))
    }
}

fn load_fasta(path: &str) -> Result<FastaRecord, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_single_fasta(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn write_one(path: &str, header: &str, seq: &DnaSeq) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    write_fasta(
        file,
        &[FastaRecord {
            header: header.into(),
            seq: seq.clone(),
        }],
        70,
    )
    .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Minimal argument stream: flags may appear anywhere; positionals keep
/// their relative order; every flag must be consumed exactly once.
struct ArgStream {
    args: Vec<String>,
}

impl ArgStream {
    fn new(args: Vec<String>) -> ArgStream {
        ArgStream { args }
    }

    /// Remove and return the first positional (non-`--`) argument.
    fn next_positional(&mut self) -> Option<String> {
        let idx = self.args.iter().position(|a| !a.starts_with("--"))?;
        Some(self.args.remove(idx))
    }

    /// Remove a boolean flag, returning whether it was present.
    fn take_flag(&mut self, name: &str) -> bool {
        if let Some(idx) = self.args.iter().position(|a| a == name) {
            self.args.remove(idx);
            true
        } else {
            false
        }
    }

    /// Remove `--name value`, parsing the value.
    fn flag_value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(idx) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if idx + 1 >= self.args.len() || self.args[idx + 1].starts_with("--") {
            return Err(format!("{name} requires a value"));
        }
        let value = self.args.remove(idx + 1);
        self.args.remove(idx);
        value
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("invalid value {value:?} for {name}"))
    }

    /// Remove `--name value` as a string.
    fn flag_str(&mut self, name: &str) -> Option<String> {
        self.flag_value::<String>(name).ok().flatten()
    }

    /// Error if anything is left unconsumed.
    fn finish(self) -> Result<(), String> {
        if self.args.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {:?}", self.args))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(args: &[&str]) -> ArgStream {
        ArgStream::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn positionals_and_flags_interleave() {
        let mut s = stream(&["--env1", "a.fa", "--block", "64", "b.fa"]);
        assert!(s.take_flag("--env1"));
        assert_eq!(s.flag_value::<usize>("--block").unwrap(), Some(64));
        assert_eq!(s.next_positional().as_deref(), Some("a.fa"));
        assert_eq!(s.next_positional().as_deref(), Some("b.fa"));
        assert!(s.finish().is_ok());
    }

    #[test]
    fn missing_value_is_an_error() {
        let mut s = stream(&["--block"]);
        assert!(s.flag_value::<usize>("--block").is_err());
        let mut s = stream(&["--block", "--env1"]);
        assert!(s.flag_value::<usize>("--block").is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        let mut s = stream(&["--block", "soup"]);
        assert!(s.flag_value::<usize>("--block").is_err());
    }

    #[test]
    fn leftovers_rejected() {
        let s = stream(&["--mystery"]);
        assert!(s.finish().unwrap_err().contains("--mystery"));
    }

    #[test]
    fn policy_flags_parse_schedule_and_recovery() {
        let mut s = stream(&[
            "--fault",
            "1:5,2:9:ring-push",
            "--recover",
            "--checkpoint-rows",
            "4",
        ]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert_eq!(cp.faults.faults.len(), 2);
        assert_eq!(cp.faults.faults[0].device, 1);
        assert_eq!(cp.faults.faults[0].block_row, 5);
        assert_eq!(cp.faults.faults[0].phase, FaultPhase::Compute);
        assert_eq!(cp.faults.faults[1].phase, FaultPhase::RingPush);
        assert_eq!(cp.policy.checkpoint, CheckpointCadence::EveryRows(4));
        let recovery = cp.recovery.unwrap();
        assert_eq!(
            recovery.max_device_failures,
            RecoveryPolicy::default().max_device_failures
        );
        assert!(s.finish().is_ok());
    }

    #[test]
    fn policy_flags_default_to_empty_schedule_without_recovery() {
        let mut s = stream(&[]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert!(cp.faults.faults.is_empty());
        assert!(cp.recovery.is_none());
        assert_eq!(cp.policy, KernelPolicy::default());
        assert_eq!(cp.policy.pruning, PruneMode::Off);
    }

    #[test]
    fn kernel_flag_parses_every_dispatch_once() {
        for (spec, want) in [
            ("auto", KernelDispatch::Auto),
            ("scalar", KernelDispatch::ForceScalar),
            ("sse41", KernelDispatch::ForceSse41),
            ("avx2", KernelDispatch::ForceAvx2),
            ("avx512", KernelDispatch::ForceAvx512),
        ] {
            let mut s = stream(&["--kernel", spec]);
            let cp = cli_policy::parse(&mut s).unwrap();
            assert_eq!(cp.policy.dispatch, want);
            assert!(s.finish().is_ok());
        }
        let mut s = stream(&["--kernel", "gpu"]);
        assert!(cli_policy::parse(&mut s).is_err());
        // Default is auto-detection.
        let mut s = stream(&[]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert_eq!(cp.policy.dispatch, KernelDispatch::Auto);
    }

    #[test]
    fn prune_flag_parses_every_mode_once() {
        for (spec, want) in [
            ("off", PruneMode::Off),
            ("local", PruneMode::Local),
            ("distributed", PruneMode::Distributed),
        ] {
            let mut s = stream(&["--prune", spec]);
            let cp = cli_policy::parse(&mut s).unwrap();
            assert_eq!(cp.policy.pruning, want);
            assert!(s.finish().is_ok());
        }
        let mut s = stream(&["--prune", "sometimes"]);
        assert!(cli_policy::parse(&mut s).is_err());
    }

    #[test]
    fn checkpoint_rows_is_a_policy_knob_and_recovery_keeps_its_budget_flag() {
        // The cadence no longer needs --recover: it is a KernelPolicy knob.
        let mut s = stream(&["--checkpoint-rows", "4"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert_eq!(cp.policy.checkpoint, CheckpointCadence::EveryRows(4));
        assert!(cp.recovery.is_none());
        // …but the recovery budget still does.
        let mut s = stream(&["--max-device-failures", "2"]);
        assert!(cli_policy::parse(&mut s).unwrap_err().contains("--recover"));
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let mut s = stream(&["--recover", "--checkpoint-rows", "0"]);
        assert!(cli_policy::parse(&mut s)
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn rebalance_flag_parses_and_rejects_nonsense() {
        let mut s = stream(&["--rebalance", "on"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert_eq!(cp.policy.rebalance, RebalanceMode::on());
        assert!(s.finish().is_ok());

        let mut s = stream(&["--rebalance", "on:0.1"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        let RebalanceMode::On { threshold, .. } = cp.policy.rebalance else {
            panic!("expected On, got {:?}", cp.policy.rebalance);
        };
        assert!((threshold - 0.1).abs() < 1e-12);

        let mut s = stream(&["--rebalance", "off"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert_eq!(cp.policy.rebalance, RebalanceMode::Off);

        let mut s = stream(&["--rebalance", "sometimes"]);
        assert!(cli_policy::parse(&mut s).is_err());
    }

    #[test]
    fn raw_policy_forwards_exactly_the_explicit_flags() {
        // Nothing given — nothing forwarded (the serve-side defaults win).
        let mut s = stream(&[]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert!(cp.raw.policy_json().is_none());
        assert!(cp.raw.fault.is_none());

        let mut s = stream(&[
            "--kernel",
            "scalar",
            "--prune",
            "local",
            "--checkpoint-rows",
            "4",
            "--equal",
            "--fault",
            "0:2",
        ]);
        let cp = cli_policy::parse(&mut s).unwrap();
        let json = cp.raw.policy_json().unwrap();
        assert!(json.contains("\"kernel\": \"scalar\""), "{json}");
        assert!(json.contains("\"prune\": \"local\""), "{json}");
        assert!(json.contains("\"checkpoint_rows\": 4"), "{json}");
        assert!(json.contains("\"equal\": true"), "{json}");
        assert!(!json.contains("rebalance"), "{json}");
        assert_eq!(cp.raw.fault.as_deref(), Some("0:2"));
        assert!(s.finish().is_ok());

        // A single knob forwards just itself.
        let mut s = stream(&["--rebalance", "on:0.1"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert_eq!(
            cp.raw.policy_json().as_deref(),
            Some("{\"rebalance\": \"on:0.1\"}")
        );
    }

    #[test]
    fn drift_spec_parses_lists_and_rejects_nonsense() {
        let ds = parse_drifts("0:100:0.5,2:0:2.0", 3).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(
            ds[0],
            ClockDrift {
                device: 0,
                after_row: 100,
                factor: 0.5
            }
        );
        assert_eq!(ds[1].device, 2);
        assert!(parse_drifts("5:0:0.5", 3).unwrap_err().contains("range"));
        assert!(parse_drifts("0:0", 3).is_err());
        assert!(parse_drifts("0:0:-1.0", 3).is_err());
        assert!(parse_drifts("0:0:0", 3).is_err());
        assert!(parse_drifts("a:b:c", 3).is_err());
    }

    #[test]
    fn malformed_fault_spec_is_an_error() {
        let mut s = stream(&["--fault", "1:5:naptime"]);
        assert!(cli_policy::parse(&mut s).is_err());
        let mut s = stream(&["--fault", "nonsense"]);
        assert!(cli_policy::parse(&mut s).is_err());
    }

    #[test]
    fn fault_flags_rejected_on_subcommands_without_fault_support() {
        let mut s = stream(&["--fault", "0:1"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        let err = cp.reject_faults("align").unwrap_err();
        assert!(err.contains("align"), "{err}");
        let mut s = stream(&["--recover"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        assert!(cp.reject_faults("tune").is_err());
    }

    #[test]
    fn platform_parsing() {
        let mut s = stream(&["--env1", "--gpus", "1"]);
        let p = cli_policy::parse_platform(&mut s).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.devices[0].name.contains("680"));

        let mut s = stream(&["--env1", "--env2"]);
        assert!(cli_policy::parse_platform(&mut s).is_err());

        let mut s = stream(&["--gpus", "0"]);
        assert!(cli_policy::parse_platform(&mut s).is_err());
    }

    #[test]
    fn config_parsing_validates() {
        let mut s = stream(&["--block", "128", "--capacity", "2", "--equal"]);
        let cp = cli_policy::parse(&mut s).unwrap();
        let c = cli_policy::parse_config(&mut s, cp.policy).unwrap();
        assert_eq!(c.block_h, 128);
        assert_eq!(c.buffer_capacity, 2);
        assert_eq!(c.policy.partition, PartitionPolicy::Equal);

        let mut s = stream(&["--capacity", "0"]);
        assert!(cli_policy::parse_config(&mut s, KernelPolicy::default()).is_err());
    }

    #[test]
    fn divergence_parsing() {
        assert!(parse_divergence("human-chimp", 1, 1_000_000).is_ok());
        assert!(parse_divergence("none", 1, 10).is_ok());
        let snp = parse_divergence("snp:0.05", 1, 10).unwrap();
        assert!((snp.snp_rate - 0.05).abs() < 1e-12);
        assert!(parse_divergence("snp:2.0", 1, 10).is_err());
        assert!(parse_divergence("wat", 1, 10).is_err());
    }

    #[test]
    fn obs_parsing() {
        let mut s = stream(&["--trace-out", "t.json", "--metrics"]);
        let o = parse_obs(&mut s).unwrap();
        assert_eq!(o.level, ObsLevel::Full); // tracing implies a live recorder
        assert!(o.metrics);
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));

        let mut s = stream(&[]);
        let o = parse_obs(&mut s).unwrap();
        assert_eq!(o.level, ObsLevel::Off);
        assert!(!o.metrics);

        let mut s = stream(&["--obs-level", "kernels"]);
        assert_eq!(parse_obs(&mut s).unwrap().level, ObsLevel::Kernels);

        let mut s = stream(&["--obs-level", "verbose"]);
        assert!(parse_obs(&mut s).is_err());

        let mut s = stream(&["--trace-out", "t.json", "--obs-level", "off"]);
        assert!(parse_obs(&mut s).is_err());
    }

    #[test]
    fn progress_parsing_and_conflicts() {
        // Defaults: progress off, 500 ms interval.
        let mut s = stream(&[]);
        let o = parse_obs(&mut s).unwrap();
        assert!(!o.progress);
        assert_eq!(o.progress_interval, Duration::from_millis(500));

        let mut s = stream(&["--progress", "--progress-interval-ms", "100"]);
        let o = parse_obs(&mut s).unwrap();
        assert!(o.progress);
        assert_eq!(o.progress_interval, Duration::from_millis(100));

        // --progress works with the default (implicit off) obs level: the
        // live counters do not need the recorder.
        let mut s = stream(&["--progress"]);
        assert!(parse_obs(&mut s).unwrap().progress);

        // …but an *explicit* --obs-level off contradicts it.
        let mut s = stream(&["--progress", "--obs-level", "off"]);
        let err = parse_obs(&mut s).unwrap_err();
        assert!(err.contains("--obs-level off"), "{err}");

        // A trace streamed to stdout would interleave with the line.
        for sink in ["-", "/dev/stdout"] {
            let mut s = stream(&["--progress", "--trace-out", sink]);
            let err = parse_obs(&mut s).unwrap_err();
            assert!(err.contains("stdout"), "{err}");
        }
        // A trace to a real file is fine.
        let mut s = stream(&["--progress", "--trace-out", "t.json"]);
        assert!(parse_obs(&mut s).is_ok());

        // The interval flag is meaningless without --progress, and zero is
        // rejected.
        let mut s = stream(&["--progress-interval-ms", "100"]);
        assert!(parse_obs(&mut s).is_err());
        let mut s = stream(&["--progress", "--progress-interval-ms", "0"]);
        assert!(parse_obs(&mut s).is_err());
    }

    #[test]
    fn metrics_format_parsing() {
        let mut s = stream(&["--metrics"]);
        assert_eq!(
            parse_obs(&mut s).unwrap().metrics_format,
            MetricsFormat::Text
        );

        for (spec, want) in [
            ("text", MetricsFormat::Text),
            ("prom", MetricsFormat::Prom),
            ("json", MetricsFormat::Json),
        ] {
            let mut s = stream(&["--metrics", "--metrics-format", spec]);
            assert_eq!(parse_obs(&mut s).unwrap().metrics_format, want);
        }

        let mut s = stream(&["--metrics", "--metrics-format", "xml"]);
        assert!(parse_obs(&mut s).is_err());

        let mut s = stream(&["--metrics-format", "prom"]);
        let err = parse_obs(&mut s).unwrap_err();
        assert!(err.contains("requires --metrics"), "{err}");
    }

    #[test]
    fn metrics_addr_and_flight_dump_parsing() {
        // Defaults: neither endpoint nor flight box.
        let mut s = stream(&[]);
        let o = parse_obs(&mut s).unwrap();
        assert!(o.metrics_addr.is_none());
        assert!(o.flight_dump.is_none());
        assert!(o.flight(3).is_none());
        assert!(o.reject_serving("align").is_ok());

        let mut s = stream(&["--metrics-addr", "127.0.0.1:0"]);
        let o = parse_obs(&mut s).unwrap();
        assert_eq!(o.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        // The endpoint serves /flight, so a recorder is kept even without
        // --flight-dump; one lane per device.
        let fr = o.flight(3).expect("endpoint keeps a flight recorder");
        assert_eq!(fr.num_lanes(), 3);
        assert!(o.reject_serving("align").is_err());

        let mut s = stream(&["--metrics-addr", "localhost"]);
        let err = parse_obs(&mut s).unwrap_err();
        assert!(err.contains("HOST:PORT"), "{err}");

        let mut s = stream(&["--flight-dump", "box.jsonl"]);
        let o = parse_obs(&mut s).unwrap();
        assert_eq!(o.flight_dump.as_deref(), Some("box.jsonl"));
        assert!(o.flight(2).is_some());
        assert!(o.reject_serving("align").is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(vec!["frobnicate".into()]).is_err());
        assert!(run(vec![]).is_ok()); // prints usage
    }
}
