//! `ltfb-cli` — command-line front end for the reproduction.
//!
//! ```text
//! ltfb-cli train    [--trainers K] [--steps N] [--seed S] [--distributed]
//!                   [--lr-spread F] [--by-index] [--kindep]
//!                   [--fault SPEC] [--ingest] [--store mmap[:<dir>]]
//!                   [--metrics [PATH]]
//! ltfb-cli classify [--trainers K] [--steps N] [--seed S]
//! ltfb-cli simulate <fig9|fig10|fig11>
//! ltfb-cli generate --dir PATH [--samples N] [--per-file M]
//! ltfb-cli serve-bench [--clients C] [--requests N] [--max-batch B] [--workers W]
//!                      [--open-rate RPS] [--inverse-frac F] [--cache N] [--img-size P]
//!                      [--checkpoint PATH] [--quant int8] [--csv PATH] [--json PATH]
//!                      [--metrics [PATH]]
//!                      [--shards N] [--slo-p99-us T] [--spill-depth D] [--shed-depth D]
//!                      [--no-adaptive] [--tail-alpha A] [--diurnal-amp F]
//!                      [--hot-keys N] [--zipf S] [--sweep-secs T]
//! ltfb-cli help
//! ```
//!
//! `--metrics` exports a unified `ltfb-obs` report (comm traffic, datastore
//! I/O and shuffle volume, tournament outcomes / per-round adoption rates,
//! serving latency) as JSON under the results directory.
//!
//! Argument parsing is hand-rolled (the reproduction keeps its dependency
//! set to the numeric/concurrency essentials).

use ltfb::comm::FaultPlan;
use ltfb::core::{
    record_run_outcome, run_classifier_population, run_k_independent, run_ltfb_distributed,
    run_ltfb_distributed_ft, run_ltfb_distributed_ft_obs, run_ltfb_distributed_obs,
    run_ltfb_serial, run_ltfb_serial_obs, run_ltfb_two_level, run_ltfb_two_level_obs,
    run_ltfb_with_failures, LtfbConfig, PartitionScheme,
};
use ltfb::hpcsim::{
    dp_placement, evaluate_config, paper_sweep, IngestMode, MachineSpec, TrainingModel,
    WorkloadSpec,
};
use ltfb::jag::{DatasetSpec, JagConfig};
use ltfb::obs::Registry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let flags = Flags::parse(&args[1..]);
    match cmd.as_str() {
        "train" => train(&flags),
        "classify" => classify(&flags),
        "simulate" => simulate(&flags),
        "generate" => generate(&flags),
        "serve-bench" => serve_bench(&flags),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag bag: `--key value` pairs, bare flags, and positionals.
struct Flags {
    kv: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut kv = Vec::new();
        let mut bare = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                let takes_value = i + 1 < args.len() && !args[i + 1].starts_with("--");
                if takes_value {
                    kv.push((key.to_string(), args[i + 1].clone()));
                    i += 2;
                } else {
                    kv.push((key.to_string(), String::new()));
                    i += 1;
                }
            } else {
                bare.push(a.clone());
                i += 1;
            }
        }
        Flags { kv, bare }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.kv
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    fn has(&self, key: &str) -> bool {
        self.kv.iter().any(|(k, _)| k == key)
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.kv
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Destination of a `--metrics [PATH]` export: the explicit PATH, or
/// `<results dir>/<default_name>` for the bare flag (the results dir
/// honours `LTFB_RESULTS_DIR`, like the bench binaries).
fn metrics_path(flags: &Flags, default_name: &str) -> PathBuf {
    match flags.get_str("metrics") {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => {
            let dir = std::env::var("LTFB_RESULTS_DIR").unwrap_or_else(|_| "results".into());
            PathBuf::from(dir).join(default_name)
        }
    }
}

fn write_metrics(registry: &Registry, path: &Path) {
    match registry.write_report(path) {
        Ok(()) => println!("wrote metrics {}", path.display()),
        Err(e) => eprintln!("cannot write metrics {}: {e}", path.display()),
    }
}

/// Store-backed ingest demo phase: a tiny 2-rank dynamic-mode ingest
/// over a throwaway dataset, epochs 0-1, driven through the
/// double-buffering [`Prefetcher`] so a `--metrics` run exports real
/// `datastore.rN.shuffled_bytes` *and* `train.prefetch_*` overlap
/// counters alongside the training metrics.
/// Runs the same work with or without a registry, so the metrics-overhead
/// smoke compares identical runs that differ only in recording.
fn ingest_demo(seed: u64, metrics: Option<&Registry>) {
    use ltfb::comm::{run_world, run_world_obs};
    use ltfb::datastore::{DataStore, PopulateMode, Prefetcher};
    use ltfb::jag::{cleanup_dataset_dir, temp_dataset_dir};

    const RANKS: usize = 2;
    let dir = temp_dataset_dir(&format!("cli-ingest-{seed}"));
    let spec = DatasetSpec::new(dir.clone(), JagConfig::small(4), 64, 8);
    if let Err(e) = spec.generate_all() {
        eprintln!("ingest demo: cannot generate dataset: {e}");
        return;
    }
    let reg = metrics.cloned();
    let body = move |comm: ltfb::comm::Comm| {
        let ids: Vec<u64> = (0..spec.n_samples).collect();
        let mut store = DataStore::new(
            comm,
            spec.clone(),
            ids,
            PopulateMode::Dynamic,
            8,
            seed,
            None,
        )
        .expect("tiny ingest partition always fits");
        let mut pf = Prefetcher::new();
        if let Some(r) = &reg {
            store.attach_obs(r);
            pf.attach_obs(r);
        }
        for epoch in 0..2 {
            pf.fetch_epoch(&mut store, epoch).expect("ingest epoch");
        }
        store.stats()
    };
    let stats = match metrics {
        Some(r) => run_world_obs(RANKS, r, body),
        None => run_world(RANKS, body),
    };
    let (reads, shuffled, bytes) = stats.iter().fold((0u64, 0u64, 0u64), |a, s| {
        (
            a.0 + s.fs_sample_reads,
            a.1 + s.shuffled_samples,
            a.2 + s.shuffled_bytes,
        )
    });
    println!(
        "ingest demo: {RANKS} ranks, {reads} epoch-0 sample reads, \
         {shuffled} samples / {bytes} B shuffled in epoch 1"
    );
    cleanup_dataset_dir(&dir);
}

/// Tiered-store demo phase (`--store mmap[:<dir>]`): a 2-rank trainer
/// runs the same golden-seed epochs twice — once over the in-memory
/// reference store, once over the tiered mmap-shard store with a hot-tier
/// budget below the partition — and prints a greppable
/// `bit_identical=<bool>` verdict plus the tier hit rate. A streaming
/// shard written through the workflow engine's [`StreamingIngest`] is
/// adopted at an epoch boundary mid-run, so a `--metrics` export carries
/// `store.rN.tier_*`, `store.rN.bytes_mapped`, `ingest.samples/bytes`
/// and `ingest.epoch_growth` alongside the training metrics.
fn store_demo(arg: &str, seed: u64, metrics: Option<&Registry>) -> bool {
    use ltfb::comm::{run_world, run_world_obs};
    use ltfb::datastore::{node_to_sample, DataStore, PopulateMode};
    use ltfb::gan::{batch_from_samples, CycleGan, CycleGanConfig, StepLosses};
    use ltfb::jag::{cleanup_dataset_dir, jag_schema, sample_payload, temp_dataset_dir, Sample};
    use ltfb::workflow::{StreamingIngest, WorkflowSpec};

    const RANKS: usize = 2;
    const N: u64 = 48;
    const EPOCHS: u64 = 3;
    let (dir, throwaway) = match arg.strip_prefix("mmap") {
        Some("") => (temp_dataset_dir(&format!("cli-store-{seed}")), true),
        Some(rest) => match rest.strip_prefix(':') {
            Some(d) if !d.is_empty() => (PathBuf::from(d), false),
            _ => {
                eprintln!("bad --store spec `{arg}`: use mmap or mmap:<dir>");
                return false;
            }
        },
        None => {
            eprintln!("bad --store spec `{arg}`: use mmap or mmap:<dir>");
            return false;
        }
    };
    let cfg = CycleGanConfig::small(4);
    let spec = DatasetSpec::new(dir.clone(), cfg.jag, N, 8);
    if let Err(e) = spec.generate_all() {
        eprintln!("store demo: cannot generate dataset: {e}");
        return false;
    }
    if let Err(e) = spec.generate_all_shards() {
        eprintln!("store demo: cannot generate shards: {e}");
        return false;
    }
    // Streaming side: the workflow engine generates four fresh samples
    // into an appendable shard the trainer adopts at an epoch boundary.
    let ingest_path = dir.join("ingest.ltbs");
    let sim = ltfb::jag::JagSimulator::new(spec.cfg);
    let ingested = (|| -> Result<u64, ltfb::bundle::CheckpointError> {
        let mut ing = StreamingIngest::create(&ingest_path, jag_schema(&spec.cfg))?;
        if let Some(r) = metrics {
            ing.attach_obs(r);
        }
        let tasks: Vec<u64> = (N..N + 4).collect();
        let (failures, _) = ing.generate_round(
            &WorkflowSpec {
                workers: 2,
                batch_size: 2,
                ..Default::default()
            },
            &tasks,
            |&id| Ok((id, sample_payload(&sim.simulate(spec.params_of(id))))),
        )?;
        if !failures.is_empty() {
            eprintln!("store demo: {} ingest tasks failed", failures.len());
        }
        Ok(ing.samples())
    })();
    let ingested = match ingested {
        Ok(n) => n,
        Err(e) => {
            eprintln!("store demo: ingest failed: {e}");
            return false;
        }
    };
    let reg = metrics.cloned();
    let spec2 = spec.clone();
    let ingest2 = ingest_path.clone();
    let loss_bits = |l: &StepLosses| {
        [
            l.d_loss.to_bits(),
            l.adv.to_bits(),
            l.fidelity.to_bits(),
            l.cycle.to_bits(),
            l.recon.to_bits(),
        ]
    };
    let body = move |comm: ltfb::comm::Comm| {
        let ids: Vec<u64> = (0..N).collect();
        let run = |mut store: DataStore| {
            if let Some(r) = &reg {
                store.attach_obs(r);
            }
            let mut gan = CycleGan::new(cfg, seed);
            let mut traj = Vec::new();
            for epoch in 0..EPOCHS {
                let plan = store.epoch_plan(epoch);
                for step in 0..plan.steps() {
                    let got = store.fetch_step(&plan, step, epoch).expect("fetch");
                    let samples: Vec<Sample> = got
                        .iter()
                        .map(|(_, n)| node_to_sample(n).expect("schema intact"))
                        .collect();
                    let refs: Vec<&Sample> = samples.iter().collect();
                    let (x, y) = batch_from_samples(&cfg, &refs);
                    traj.push(loss_bits(&gan.train_step(&x, &y)));
                }
            }
            (traj, store)
        };
        // Budget holds the whole per-rank working set: epoch 0 misses
        // once per sample, the warm epochs hit — the smoke test pins a
        // hit-rate floor on exactly this shape.
        let budget = (N + 8) * spec2.cfg.sample_bytes() as u64;
        let (mem_traj, _) = run(DataStore::new(
            comm.dup(),
            spec2.clone(),
            ids.clone(),
            PopulateMode::Preload,
            8,
            seed,
            None,
        )
        .expect("demo partition fits"));
        let (tier_traj, mut tier_store) =
            run(
                DataStore::new_tiered(comm, spec2.clone(), ids, 8, seed, budget, 1)
                    .expect("tiered store opens"),
            );
        // Streaming ingest: adopt the published shard at the epoch
        // boundary and run one more epoch over the grown partition.
        tier_store
            .attach_ingest(&ingest2)
            .expect("ingest shard attaches");
        let adopted = tier_store.refresh_ingest().expect("ingest refresh");
        let consumed: usize = {
            let plan = tier_store.epoch_plan(EPOCHS);
            (0..plan.steps())
                .map(|s| {
                    tier_store
                        .fetch_step(&plan, s, EPOCHS)
                        .expect("ingest epoch fetch")
                        .len()
                })
                .sum()
        };
        (
            mem_traj == tier_traj,
            adopted,
            consumed,
            tier_store.tier_stats(),
        )
    };
    let outcomes = match metrics {
        Some(r) => run_world_obs(RANKS, r, body),
        None => run_world(RANKS, body),
    };
    let identical = outcomes.iter().all(|(same, _, _, _)| *same);
    let adopted = outcomes.first().map_or(0, |(_, a, _, _)| *a);
    let consumed: usize = outcomes.iter().map(|(_, _, c, _)| c).sum();
    let (hits, misses, mapped) = outcomes.iter().fold((0u64, 0u64, 0u64), |a, (_, _, _, s)| {
        let s = s.as_ref().expect("tiered run has stats");
        (a.0 + s.hits, a.1 + s.misses, a.2 + s.bytes_mapped)
    });
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "store demo: {RANKS} ranks, {EPOCHS}+1 epochs, {ingested} samples ingested / \
         {adopted} adopted ({consumed} consumed post-adoption), \
         bit_identical={identical} tier_hit_rate={hit_rate:.2} bytes_mapped={mapped}"
    );
    if throwaway {
        cleanup_dataset_dir(&dir);
    }
    identical
}

/// Data-parallel overlap demo phase: a 2-replica pair drives
/// backward-overlapped training steps (`dp_train_step_overlapped` —
/// bucketed gradients over the nonblocking chunked ring allreduce), so a
/// `--metrics` run exports live `comm.rN.allreduce_chunk_inflight` and
/// `comm.rN.bucket_inflight` peaks alongside the training metrics —
/// direct evidence that subchunk send `k+1` overlaps reduce `k` and that
/// buckets enter the engine while backward is still running. Like
/// `ingest_demo`, the same work runs with or without a registry so the
/// metrics-overhead smoke compares identical runs.
fn dp_demo(seed: u64, metrics: Option<&Registry>) {
    use ltfb::comm::{run_world, run_world_obs};
    use ltfb::core::{dp_train_step_overlapped, DpOverlap};
    use ltfb::gan::{batch_from_samples, CycleGan, CycleGanConfig};
    use ltfb::jag::{r2_point, JagSimulator, Sample};
    use ltfb::nn::Workspace;

    const RANKS: usize = 2;
    const MB: usize = 16;
    const STEPS: usize = 8;
    let body = move |comm: ltfb::comm::Comm| {
        let cfg = CycleGanConfig::small(4);
        let sim = JagSimulator::new(cfg.jag);
        let samples: Vec<Sample> = (0..(2 * MB) as u64)
            .map(|i| sim.simulate(r2_point(seed.wrapping_add(i))))
            .collect();
        let batches: Vec<_> = samples
            .chunks(MB)
            .map(|chunk| {
                let refs: Vec<&Sample> = chunk.iter().collect();
                batch_from_samples(&cfg, &refs)
            })
            .collect();
        let shard = MB / RANKS;
        let (lo, hi) = (comm.rank() * shard, (comm.rank() + 1) * shard);
        let mut gan = CycleGan::new(cfg, seed);
        let mut ws = Workspace::new();
        let mut ov = DpOverlap::new();
        for step in 0..STEPS {
            let (x, y) = &batches[step % batches.len()];
            let (xs, ys) = (x.slice_rows(lo, hi), y.slice_rows(lo, hi));
            dp_train_step_overlapped(&mut gan, &xs, &ys, &comm, &mut ws, &mut ov);
        }
        gan.generator_fingerprint()
    };
    let fps = match metrics {
        Some(r) => run_world_obs(RANKS, r, body),
        None => run_world(RANKS, body),
    };
    let consistent = fps.windows(2).all(|w| w[0] == w[1]);
    println!("dp demo: {RANKS} replicas, {STEPS} overlapped-allreduce steps, replicas consistent: {consistent}");
}

fn build_cfg(flags: &Flags) -> LtfbConfig {
    let k = flags.get("trainers", 4usize);
    let mut cfg = LtfbConfig::small(k.max(1));
    cfg.steps = flags.get("steps", 200u64);
    cfg.ae_steps = flags.get("ae-steps", cfg.steps);
    cfg.seed = flags.get("seed", 2019u64);
    cfg.train_samples = flags.get("samples", 1024u64);
    cfg.exchange_interval = flags.get("exchange", 25u64);
    cfg.eval_interval = flags.get("eval", 50u64);
    cfg.lr_spread = flags.get("lr-spread", 1.0f32);
    if flags.has("by-index") {
        cfg.partition = PartitionScheme::ByIndex;
    }
    cfg
}

fn train(flags: &Flags) -> ExitCode {
    let cfg = build_cfg(flags);
    println!(
        "LTFB: K={} steps={} seed={} partition={:?} lr_spread={}",
        cfg.n_trainers, cfg.steps, cfg.seed, cfg.partition, cfg.lr_spread
    );
    let fault = match flags.get_str("fault") {
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("bad --fault spec `{spec}`: {e}\n");
                usage();
                return ExitCode::FAILURE;
            }
        },
        None => FaultPlan::none(),
    };
    let metrics = flags.has("metrics").then(Registry::new);
    let replicas = flags.get("replicas", 1usize);
    if !fault.is_empty() && (replicas > 1 || flags.has("kindep")) {
        eprintln!("--fault applies to the serial and --distributed LTFB drivers only");
        return ExitCode::FAILURE;
    }
    if replicas > 1 {
        println!("(two-level: {replicas} data-parallel replicas per trainer)");
        let out = match &metrics {
            Some(reg) => run_ltfb_two_level_obs(&cfg, replicas, reg),
            None => run_ltfb_two_level(&cfg, replicas),
        };
        for (t, h) in out.histories.iter().enumerate() {
            let pts: Vec<String> = h
                .points()
                .iter()
                .map(|(s, l)| format!("{s}:{l:.3}"))
                .collect();
            println!("trainer {t}: {}", pts.join("  "));
        }
        let (best, loss) = out.best();
        println!(
            "adoptions: {}  best: trainer {best} @ {loss:.4}  replicas consistent: {}",
            out.adoptions, out.replicas_consistent
        );
        if let Some(reg) = &metrics {
            write_metrics(reg, &metrics_path(flags, "ltfb_metrics.json"));
        }
        return ExitCode::SUCCESS;
    }
    let out = if flags.has("kindep") {
        println!("(K-independent baseline: tournaments disabled)");
        let out = run_k_independent(&cfg);
        if let Some(reg) = &metrics {
            record_run_outcome(reg, &out);
        }
        out
    } else if flags.has("distributed") {
        println!("(distributed driver: one rank per trainer)");
        if fault.is_empty() {
            match &metrics {
                Some(reg) => run_ltfb_distributed_obs(&cfg, reg),
                None => run_ltfb_distributed(&cfg),
            }
        } else {
            println!(
                "(fault plan: {} kill(s), degrading to the survivor pool)",
                fault.kill_count()
            );
            match &metrics {
                Some(reg) => run_ltfb_distributed_ft_obs(&cfg, &fault, reg),
                None => run_ltfb_distributed_ft(&cfg, &fault),
            }
        }
    } else if !fault.is_empty() {
        // The serial driver models fail-stop kills only; scripted delays
        // and message drops need the distributed driver's real clocks.
        let kills: Vec<(usize, u64)> = (0..cfg.n_trainers)
            .filter_map(|r| fault.kill_step(r).map(|s| (r, s)))
            .collect();
        if kills.len() < fault.events.len() {
            eprintln!("(serial driver: only kill events apply; use --distributed for delay/drop)");
        }
        println!(
            "(fault plan: {} kill(s), survivors keep training)",
            kills.len()
        );
        let out = run_ltfb_with_failures(&cfg, &kills);
        if let Some(reg) = &metrics {
            record_run_outcome(reg, &out);
        }
        out
    } else {
        match &metrics {
            Some(reg) => run_ltfb_serial_obs(&cfg, reg),
            None => run_ltfb_serial(&cfg),
        }
    };
    if flags.has("ingest") {
        ingest_demo(cfg.seed, metrics.as_ref());
        dp_demo(cfg.seed, metrics.as_ref());
    }
    if let Some(spec) = flags.get_str("store") {
        if !store_demo(spec, cfg.seed, metrics.as_ref()) {
            return ExitCode::FAILURE;
        }
    }
    for (t, h) in out.histories.iter().enumerate() {
        let pts: Vec<String> = h
            .points()
            .iter()
            .map(|(s, l)| format!("{s}:{l:.3}"))
            .collect();
        println!("trainer {t}: {}", pts.join("  "));
    }
    let (best, loss) = out.best();
    println!(
        "adoptions: {}  best: trainer {best} @ {loss:.4}",
        out.adoptions
    );
    if let Some(reg) = &metrics {
        write_metrics(reg, &metrics_path(flags, "ltfb_metrics.json"));
    }
    ExitCode::SUCCESS
}

fn classify(flags: &Flags) -> ExitCode {
    let cfg = build_cfg(flags);
    println!("classifier LTFB: K={} steps={}", cfg.n_trainers, cfg.steps);
    let out = run_classifier_population(&cfg, !flags.has("kindep"));
    for (t, (ce, acc)) in out.final_ce.iter().zip(&out.final_accuracy).enumerate() {
        println!(
            "trainer {t}: cross-entropy {ce:.4}, accuracy {:.1}%",
            acc * 100.0
        );
    }
    println!("adoptions: {}", out.adoptions);
    ExitCode::SUCCESS
}

fn simulate(flags: &Flags) -> ExitCode {
    let m = MachineSpec::lassen();
    let w = WorkloadSpec::icf_cyclegan();
    let t = TrainingModel::default();
    match flags.bare.first().map(String::as_str) {
        Some("fig9") => {
            for gpus in [1usize, 2, 4, 8, 16] {
                let out = evaluate_config(
                    &m,
                    &w,
                    &t,
                    dp_placement(gpus),
                    1_000_000,
                    IngestMode::NoStore,
                    1,
                );
                println!(
                    "{gpus:>3} GPUs: {:>7.0} s/epoch",
                    out.steady_total().unwrap()
                );
            }
        }
        Some("fig10") => {
            for mode in [
                IngestMode::NoStore,
                IngestMode::DynamicStore,
                IngestMode::Preloaded,
            ] {
                let out = evaluate_config(&m, &w, &t, dp_placement(16), 1_000_000, mode, 1);
                match out.steady_total() {
                    Some(s) => println!("{mode:?}: {s:.0} s/epoch steady"),
                    None => println!("{mode:?}: OOM"),
                }
            }
        }
        Some("fig11") => {
            let pts = paper_sweep(&m, &w, &t);
            let base = pts[0].epoch_time;
            for p in &pts {
                println!(
                    "{:>2} trainers ({:>4} GPUs): {:>7.1} s/epoch  speedup {:>5.1}x  preload {:>6.1} s",
                    p.trainers,
                    p.gpus,
                    p.epoch_time,
                    base / p.epoch_time,
                    p.preload_time
                );
            }
        }
        _ => {
            eprintln!("simulate needs one of: fig9 fig10 fig11");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn generate(flags: &Flags) -> ExitCode {
    let Some(dir) = flags.get_str("dir") else {
        eprintln!("generate requires --dir PATH");
        return ExitCode::FAILURE;
    };
    let samples = flags.get("samples", 10_000u64);
    let per_file = flags.get("per-file", 1000usize);
    let img = flags.get("img-size", 16usize);
    let spec = DatasetSpec::new(dir, JagConfig::small(img), samples, per_file);
    println!(
        "generating {} samples ({} files x {}, {} B/sample) into {}",
        spec.n_samples,
        spec.n_files(),
        spec.samples_per_file,
        spec.cfg.sample_bytes(),
        spec.dir.display()
    );
    match spec.generate_all() {
        Ok(()) => {
            println!("done");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("generation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Benchmark the sharded serving fleet: measure closed-loop capacity,
/// then sweep open-loop heavy-tailed diurnal Zipf traffic at 0.5×/1×/2×
/// capacity and record the goodput-under-overload curve, coordinated-
/// omission-corrected percentiles, and shed counts. Writes
/// `results/serve_fleet.csv` plus a JSON summary, `results/serve_fleet.json`;
/// no gate reads either (performance is judged by `benchmark/`).
fn serve_fleet_bench(flags: &Flags) -> ExitCode {
    use ltfb::gan::{CycleGan, CycleGanConfig};
    use ltfb::serve::{
        run_load, run_traffic, BatchPolicy, Fleet, FleetConfig, LoadGenConfig, LoadMode,
        LoadReport, ModelRegistry, SloPolicy, TrafficModel,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let shards = flags.get("shards", 2usize);
    let clients = flags.get("clients", 8usize);
    let requests = flags.get("requests", 400usize);
    let img = flags.get("img-size", 8usize);
    let seed = flags.get("seed", 2019u64);
    let sweep_secs = flags.get("sweep-secs", 1.0f64);
    let policy = BatchPolicy {
        max_batch: flags.get("max-batch", 32usize),
        flush_deadline: Duration::from_micros(flags.get("flush-us", 50u64)),
        queue_cap: flags.get("queue-cap", 1024usize),
        workers: flags.get("workers", 2usize),
        // Fleet traffic is Zipf-skewed, so the cache defaults ON here
        // (plain serve-bench keeps it off for a pure batching number).
        cache_capacity: flags.get("cache", 256usize),
        cache_quantum: flags.get("cache-quantum", 1.0e-3f32),
        ..BatchPolicy::default()
    };
    let slo = SloPolicy {
        p99_target_us: flags.get("slo-p99-us", 5_000.0f64),
        spill_depth: flags.get("spill-depth", 16usize),
        shed_depth: flags.get("shed-depth", 128usize),
        adaptive: !flags.has("no-adaptive"),
        ..SloPolicy::default()
    };
    for (what, v, min) in [
        ("--shards", shards, 1usize),
        ("--clients", clients, 1),
        ("--requests", requests, 1),
        ("--img-size", img, 4),
        ("--max-batch", policy.max_batch, 1),
        ("--workers", policy.workers, 1),
        ("--shed-depth", slo.shed_depth, 1),
    ] {
        if v < min {
            eprintln!("serve-bench: {what} must be at least {min} (got {v})");
            return ExitCode::FAILURE;
        }
    }
    if !sweep_secs.is_finite() || sweep_secs <= 0.0 {
        eprintln!("serve-bench: --sweep-secs must be positive");
        return ExitCode::FAILURE;
    }

    let gan_cfg = CycleGanConfig::small(img);
    let cfg = FleetConfig {
        shards,
        policy,
        slo,
    };
    let make_fleet = |metrics: Option<&Registry>| -> Fleet {
        // Every shard starts from the same seed, so replicas are
        // identical — exactly the invariant publish fan-out maintains.
        let regs: Vec<Arc<ModelRegistry>> = (0..shards)
            .map(|_| Arc::new(ModelRegistry::new(CycleGan::new(gan_cfg, seed), 1)))
            .collect();
        match metrics {
            Some(m) => Fleet::start_with_obs(regs, cfg, m),
            None => Fleet::start(regs, cfg),
        }
    };
    let (x_dim, y_dim) = (gan_cfg.x_dim(), gan_cfg.y_dim());
    let tm_base = TrafficModel {
        diurnal_amp: flags.get("diurnal-amp", 0.3f64),
        tail_alpha: flags.get("tail-alpha", 1.5f64),
        hot_keys: flags.get("hot-keys", 256usize),
        zipf_exponent: flags.get("zipf", 1.1f64),
        inverse_fraction: flags.get("inverse-frac", 0.25f64),
        seed,
        ..TrafficModel::default()
    };

    println!(
        "serve-bench (fleet): {shards} shards, {clients} clients, y_dim={}, \
         slo p99 {:.0}us, shed depth {}",
        gan_cfg.y_dim(),
        cfg.slo.p99_target_us,
        cfg.slo.shed_depth,
    );

    let describe = |label: &str, offered: f64, r: &LoadReport| {
        println!(
            "{label:>9}: offered {offered:>7.0} rps  goodput {:>7.0} rps  \
             p50 {:>6.0}us  p99 {:>7.0}us  p99.9 {:>7.0}us  shed {}  rejected {}",
            r.goodput_rps(),
            r.lat_p50_us,
            r.lat_p99_us,
            r.lat_p999_us,
            r.shed,
            r.rejected,
        );
    };

    // Capacity probe: closed-loop saturation throughput of the fleet.
    let fleet = make_fleet(None);
    let load = LoadGenConfig {
        clients,
        requests_per_client: requests,
        inverse_fraction: tm_base.inverse_fraction,
        mode: LoadMode::Closed,
        seed,
        co_baseline: false,
    };
    let cap_report = run_load(&fleet.client(), &load, x_dim, y_dim);
    let _ = fleet.shutdown();
    let capacity = cap_report.throughput_rps();
    if capacity <= 0.0 {
        eprintln!("serve-bench: capacity probe completed no requests");
        return ExitCode::FAILURE;
    }
    describe("capacity", capacity, &cap_report);

    // Overload sweep: open-loop heavy-tailed diurnal Zipf traffic at
    // 0.5×, 1× and 2× the measured capacity. The 2× point is where
    // admission control earns its keep — the metrics registry (if any)
    // watches that run so the causal trace records real shed episodes.
    let metrics = flags.has("metrics").then(Registry::new);
    let mults = [0.5f64, 1.0, 2.0];
    let mut sweep: Vec<(f64, f64, LoadReport, u64, u64, u64)> = Vec::new();
    for &mult in &mults {
        let rate = capacity * mult;
        let total = ((rate * sweep_secs) as usize).clamp(200, 100_000);
        let obs = (mult == 2.0).then_some(metrics.as_ref()).flatten();
        let fleet = make_fleet(obs);
        let tm = TrafficModel {
            base_rate: rate,
            ..tm_base
        };
        let report = run_traffic(&fleet.client(), &tm, clients, total, x_dim, y_dim);
        let stats = fleet.shutdown();
        describe(
            match mult {
                m if m < 1.0 => "0.5x",
                m if m > 1.0 => "2x",
                _ => "1x",
            },
            rate,
            &report,
        );
        sweep.push((mult, rate, report, stats.routed, stats.spills, stats.sheds));
    }
    let at_2x = &sweep[sweep.len() - 1].2;
    let goodput_frac = at_2x.goodput_rps() / capacity;
    println!(
        "goodput under 2x overload: {:.0}/{:.0} rps = {:.2} of capacity \
         ({} shed); corrected p99 {:.0}us vs send-clock p99 {:.0}us",
        at_2x.goodput_rps(),
        capacity,
        goodput_frac,
        at_2x.shed,
        at_2x.lat_p99_us,
        at_2x.send_lat_p99_us,
    );

    // results/serve_fleet.csv: the goodput-under-overload curve.
    let dir = std::env::var("LTFB_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let csv_path = flags
        .get_str("csv")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(&dir).join("serve_fleet.csv"));
    let write_csv = || -> std::io::Result<()> {
        if let Some(parent) = csv_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        use std::io::Write;
        let mut f = std::fs::File::create(&csv_path)?;
        writeln!(
            f,
            "label,offered_rps,goodput_rps,p50_us,p99_us,p999_us,\
             submitted,completed,shed,rejected,routed,spills"
        )?;
        let mut row = |label: &str, offered: f64, r: &LoadReport, routed: u64, spills: u64| {
            writeln!(
                f,
                "{label},{offered:.1},{:.1},{:.1},{:.1},{:.1},{},{},{},{},{routed},{spills}",
                r.goodput_rps(),
                r.lat_p50_us,
                r.lat_p99_us,
                r.lat_p999_us,
                r.submitted,
                r.completed,
                r.shed,
                r.rejected,
            )
        };
        row("capacity", capacity, &cap_report, 0, 0)?;
        for (mult, rate, r, routed, spills, _) in &sweep {
            row(&format!("open_{mult}x"), *rate, r, *routed, *spills)?;
        }
        Ok(())
    };
    match write_csv() {
        Ok(()) => println!("wrote {}", csv_path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", csv_path.display()),
    }

    // JSON summary of the sweep, for the record only.
    let json_path = flags
        .get_str("json")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("LTFB_SERVE_JSON").map(PathBuf::from))
        .unwrap_or_else(|| Path::new(&dir).join("serve_fleet.json"));
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"serve_fleet_bench\",\n");
    j.push_str(&format!(
        "  \"config\": {{\"shards\": {shards}, \"clients\": {clients}, \"workers\": {}, \
         \"max_batch\": {}, \"cache\": {}, \"spill_depth\": {}, \"shed_depth\": {}, \
         \"slo_p99_us\": {:.1}, \"adaptive\": {}, \"seed\": {seed}}},\n",
        cfg.policy.workers,
        cfg.policy.max_batch,
        cfg.policy.cache_capacity,
        cfg.slo.spill_depth,
        cfg.slo.shed_depth,
        cfg.slo.p99_target_us,
        cfg.slo.adaptive,
    ));
    j.push_str(&format!("  \"capacity_rps\": {capacity:.1},\n"));
    for (mult, rate, r, routed, spills, sheds) in &sweep {
        j.push_str(&format!(
            "  \"open_{mult}x\": {{\"offered_rps\": {rate:.1}, \"goodput_rps\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"shed\": {}, \
             \"routed\": {routed}, \"spills\": {spills}, \"router_sheds\": {sheds}}},\n",
            r.goodput_rps(),
            r.lat_p50_us,
            r.lat_p99_us,
            r.lat_p999_us,
            r.shed,
        ));
    }
    j.push_str(&format!(
        "  \"goodput_frac_at_2x\": {goodput_frac:.3},\n  \"shed_at_2x\": {},\n",
        at_2x.shed
    ));
    j.push_str(&format!(
        "  \"co_corrected_p99_us\": {:.1},\n  \"co_send_clock_p99_us\": {:.1}\n}}\n",
        at_2x.lat_p99_us, at_2x.send_lat_p99_us
    ));
    match std::fs::write(&json_path, j) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", json_path.display()),
    }

    if let Some(reg) = &metrics {
        write_metrics(reg, &metrics_path(flags, "serve_fleet_metrics.json"));
    }
    ExitCode::SUCCESS
}

/// Benchmark the serving engine: drive the same load through a
/// micro-batching server and a forced batch-size-1 server and report the
/// throughput/latency difference.
fn serve_bench(flags: &Flags) -> ExitCode {
    use ltfb::gan::{CycleGan, CycleGanConfig};
    use ltfb::serve::{
        check_quantized, run_load, BatchPolicy, LoadGenConfig, LoadMode, ModelRegistry, QuantMode,
        ServeStats, Server,
    };
    use std::sync::Arc;
    use std::time::Duration;

    if flags.has("shards") {
        return serve_fleet_bench(flags);
    }

    let quant_mode = match flags.get_str("quant") {
        None | Some("f32") => QuantMode::F32,
        Some("int8") => QuantMode::Int8,
        Some(other) => {
            eprintln!("serve-bench: unknown --quant mode '{other}' (expected int8 or f32)");
            return ExitCode::FAILURE;
        }
    };

    let clients = flags.get("clients", 8usize);
    let requests = flags.get("requests", 500usize);
    let img = flags.get("img-size", 8usize);
    let policy = BatchPolicy {
        max_batch: flags.get("max-batch", 32usize),
        flush_deadline: Duration::from_micros(flags.get("flush-us", 50u64)),
        queue_cap: flags.get("queue-cap", 1024usize),
        workers: flags.get("workers", 2usize),
        cache_capacity: flags.get("cache", 0usize),
        cache_quantum: flags.get("cache-quantum", 1.0e-3f32),
        ..BatchPolicy::default()
    };
    for (what, v, min) in [
        ("--clients", clients, 1usize),
        ("--requests", requests, 1),
        ("--img-size", img, 4),
        ("--max-batch", policy.max_batch, 1),
        ("--workers", policy.workers, 1),
        ("--queue-cap", policy.queue_cap, 1),
    ] {
        if v < min {
            eprintln!("serve-bench: {what} must be at least {min} (got {v})");
            return ExitCode::FAILURE;
        }
    }
    let gan_cfg = CycleGanConfig::small(img);
    let load = LoadGenConfig {
        clients,
        requests_per_client: requests,
        inverse_fraction: flags.get("inverse-frac", 0.25f64),
        mode: match flags.get_str("open-rate") {
            Some(r) => LoadMode::Open {
                rate_per_sec: r.parse().unwrap_or_else(|_| {
                    eprintln!("bad --open-rate {r}, using 10000");
                    10_000.0
                }),
            },
            None => LoadMode::Closed,
        },
        seed: flags.get("seed", 2019u64),
        co_baseline: false,
    };

    let make_gan = || -> Option<(CycleGan, u64)> {
        match flags.get_str("checkpoint") {
            Some(path) => {
                match ltfb::core::checkpoint::load_surrogate(std::path::Path::new(path), &gan_cfg) {
                    Ok((gan, version)) => {
                        println!("serving checkpoint {path} (version {version})");
                        Some((gan, version))
                    }
                    Err(e) => {
                        eprintln!("cannot load checkpoint {path}: {e}");
                        None
                    }
                }
            }
            None => Some((CycleGan::new(gan_cfg, flags.get("seed", 2019u64)), 1)),
        }
    };
    let build_registry = |mode: QuantMode| -> Option<Arc<ModelRegistry>> {
        let (gan, version) = make_gan()?;
        let reg = ModelRegistry::with_mode(gan, version, mode);
        if mode == QuantMode::Int8 && !reg.current().is_quantized() {
            eprintln!("serve-bench: int8 quantization degraded to f32 (see registry gate)");
        }
        Some(Arc::new(reg))
    };

    // Accuracy probe: under --quant int8, re-run the registry's own
    // publication gate out loud so the bench records that the served
    // path honours its analytic error bound.
    if quant_mode == QuantMode::Int8 {
        let Some((gan, version)) = make_gan() else {
            return ExitCode::FAILURE;
        };
        match gan.quantize_int8() {
            Ok(q) => match check_quantized(&gan, &q, version) {
                Ok(()) => println!("int8 accuracy probe: within analytic error bound"),
                Err(reason) => {
                    eprintln!("int8 accuracy probe FAILED: {reason}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("int8 quantization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The batched arm records into the shared registry; the unbatched
    // baseline arm does not, so the export describes the headline config.
    let metrics = flags.has("metrics").then(Registry::new);
    let run_one = |label: &str,
                   policy: BatchPolicy,
                   obs: Option<&Registry>,
                   mode: QuantMode|
     -> Option<ServeStats> {
        let registry = build_registry(mode)?;
        if let Some(m) = obs {
            // Stamp registry lifecycle events onto the causal trace so
            // `ltfb-analyze trace serve_metrics.json` can audit the run.
            registry.attach_obs(m);
        }
        let server = match obs {
            Some(m) => Server::start_with_obs(registry, policy, m),
            None => Server::start(registry, policy),
        };
        let (x_dim, y_dim) = {
            let m = server.registry().current();
            (m.x_dim(), m.y_dim())
        };
        let report = run_load(&server.client(), &load, x_dim, y_dim);
        let stats = server.shutdown();
        println!(
            "{label:>10}: {:.0} req/s  p50 {:.0}us  p95 {:.0}us  p99 {:.0}us  \
             mean batch {:.2}  rejected {}",
            report.throughput_rps(),
            stats.latency_p50_us,
            stats.latency_p95_us,
            stats.latency_p99_us,
            stats.mean_batch,
            report.rejected,
        );
        Some(stats)
    };

    println!(
        "serve-bench: {clients} clients x {requests} reqs, {} mode, y_dim={}",
        match load.mode {
            LoadMode::Closed => "closed-loop".to_string(),
            LoadMode::Open { rate_per_sec } => format!("open-loop @ {rate_per_sec} req/s"),
        },
        gan_cfg.y_dim(),
    );
    let batched_label = match quant_mode {
        QuantMode::F32 => "batched",
        QuantMode::Int8 => "int8",
    };
    let Some(batched) = run_one(batched_label, policy, metrics.as_ref(), quant_mode) else {
        return ExitCode::FAILURE;
    };
    // Under --quant int8 an extra f32 arm with the same batching policy
    // isolates the numeric-path speedup from the batching speedup.
    let f32_batched = if quant_mode == QuantMode::Int8 {
        let Some(stats) = run_one("f32", policy, None, QuantMode::F32) else {
            return ExitCode::FAILURE;
        };
        Some(stats)
    } else {
        None
    };
    let Some(unbatched) = run_one(
        "unbatched",
        BatchPolicy {
            workers: policy.workers,
            ..BatchPolicy::sequential()
        },
        None,
        QuantMode::F32,
    ) else {
        return ExitCode::FAILURE;
    };
    if unbatched.throughput_rps > 0.0 {
        println!(
            "micro-batching speedup: {:.2}x throughput",
            batched.throughput_rps / unbatched.throughput_rps
        );
    }
    if let Some(f32_arm) = &f32_batched {
        if f32_arm.throughput_rps > 0.0 {
            println!(
                "int8 speedup vs f32 (same batching): {:.2}x throughput",
                batched.throughput_rps / f32_arm.throughput_rps
            );
        }
    }

    if let Some(path) = flags.get_str("csv") {
        let path = std::path::Path::new(path);
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            use std::io::Write;
            let mut f = std::fs::File::create(path)?;
            writeln!(f, "{}", ServeStats::csv_header())?;
            writeln!(f, "{}", batched.csv_row(batched_label))?;
            if let Some(f32_arm) = &f32_batched {
                writeln!(f, "{}", f32_arm.csv_row("f32"))?;
            }
            writeln!(f, "{}", unbatched.csv_row("unbatched"))?;
            Ok(())
        };
        match write() {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if let Some(path) = flags.get_str("json") {
        match batched.write_json(std::path::Path::new(path)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    if let Some(reg) = &metrics {
        write_metrics(reg, &metrics_path(flags, "serve_metrics.json"));
    }
    ExitCode::SUCCESS
}

fn usage() {
    eprintln!(
        "ltfb-cli — LTFB tournament training reproduction\n\n\
         commands:\n  \
         train    [--trainers K] [--steps N] [--samples N] [--seed S] [--exchange N]\n           \
         [--lr-spread F] [--by-index] [--distributed] [--replicas R] [--kindep]\n           \
         [--fault SPEC] [--ingest] [--store mmap[:<dir>]] [--metrics [PATH]]\n  \
         classify [--trainers K] [--steps N] [--kindep]\n  \
         simulate <fig9|fig10|fig11>\n  \
         generate --dir PATH [--samples N] [--per-file M] [--img-size P]\n  \
         serve-bench [--clients C] [--requests N] [--max-batch B] [--workers W]\n              \
         [--flush-us U] [--open-rate RPS] [--inverse-frac F] [--cache N]\n              \
         [--img-size P] [--checkpoint PATH] [--quant int8] [--csv PATH]\n              \
         [--json PATH] [--metrics [PATH]]\n              \
         [--shards N] [--slo-p99-us T] [--spill-depth D] [--shed-depth D]\n              \
         [--no-adaptive] [--tail-alpha A] [--diurnal-amp F] [--hot-keys N]\n              \
         [--zipf S] [--sweep-secs T]\n  \
         help\n\n\
         --shards N runs the sharded serving fleet: closed-loop capacity probe,\n\
         then an open-loop heavy-tailed Zipf overload sweep (0.5x/1x/2x capacity)\n\
         with SLO admission control; writes results/serve_fleet.csv and\n\
         results/serve_fleet.json (or $LTFB_SERVE_JSON / --json PATH).\n\
         --fault injects failures, e.g. \"kill:2@15\" (trainer 2 dies at step 15),\n\
         \"delay:1@5:2000us\" (straggler), \"drop:0@10\" (skip that exchange);\n\
         comma-separate events. Survivors re-pair and finish the run.\n\
         --metrics without PATH writes to <results dir>/ltfb_metrics.json or\n\
         serve_metrics.json\n\
         (results dir honours LTFB_RESULTS_DIR); --ingest adds 2-rank data-store\n\
         ingest (prefetch double-buffering) and fused-allreduce DP demo phases so\n\
         datastore shuffle/prefetch and gradient-overlap metrics land in the export.\n\
         --store mmap[:<dir>] adds a tiered-store demo: trains over mmap shards +\n\
         hot tier, checks bit-identity against the in-memory store, and adopts a\n\
         streaming-ingest shard mid-run (store.rN.tier_* / ingest.* metrics)."
    );
}
