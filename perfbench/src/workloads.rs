//! The four workloads, each measured untraced (end-to-end metrics) or
//! traced (per-layer metrics).
//!
//! | workload           | what it is                                          |
//! |--------------------|-----------------------------------------------------|
//! | `fifo_clean`       | BBRv1 vs CUBIC, FIFO, 2 BDP, 10 Gbps, 200 flows     |
//! | `red_lossy`        | the same cell with RED                              |
//! | `grid_1g`          | the quick-preset 1 Gbps slice of `paper_grid`       |
//! | `observed_fqcodel` | BBRv1 vs late CUBIC, FQ-CoDel, 1 Gbps, observed     |
//!
//! Every run of the program is an operation; so is every output check.
//! A failed run or check counts in `failed`.

use crate::cell::{build_sim, run_traced, RunCounters, TracedRun};
use crate::trace::{self, span, Layer, Trace};
use elephants_analysis::{
    fairness_dynamics, late_joiner_response, ConvergenceSpec, FairnessDynamics, LateJoinReport,
};
use elephants_experiments::prelude::*;
use elephants_experiments::{par_try_map_with_workers, try_sweep_with_workers, RunResult};
use elephants_json::ToJson;
use elephants_netsim::{CheckMode, SimDuration};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fifo_clean", "red_lossy", "grid_1g", "observed_fqcodel"];

/// Simulated seconds of the 10 Gbps single-cell workloads.
pub const CELL_SECS: u64 = 2;
/// Seeds a run of `fifo_clean` or `red_lossy` cycles through.
pub const CELL_SEEDS: u64 = 4;
/// Seeds a run of `observed_fqcodel` cycles through.
pub const OBSERVED_SEEDS: u64 = 4;
/// Simulated seconds of the observed FQ-CoDel cell.
pub const OBSERVED_SECS: u64 = 10;
/// When the observed cell's CUBIC group joins.
pub const JOIN_MS: u64 = 2_000;
/// Analysis window of the observed cell.
pub const WINDOW_S: f64 = 0.25;
/// Sweep workers of `grid_1g` (the reference host has two cores).
pub const GRID_WORKERS: usize = 2;
/// Set-ups timed before the first iteration and after each one.
pub const SETUP_REPS: usize = 3;

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Scratch directory of this workload; emptied before the run.
    pub work_dir: PathBuf,
}

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Operations attempted and failed, with the metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: runs and output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Count one operation; a failure is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Print the spread of one metric's per-iteration samples.
    fn samples(&self, name: &str, v: &[f64]) {
        println!(
            "samples {name}: n={} min={:.6} p25={:.6} median={:.6} p75={:.6} max={:.6}",
            v.len(),
            quantile(v, 0.0),
            quantile(v, 0.25),
            quantile(v, 0.5),
            quantile(v, 0.75),
            quantile(v, 1.0)
        );
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1e3)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Call `iter` until `budget` seconds have passed and it ran at least
/// `min` times, or until it returns `false`; sample `setup` after each call.
fn repeat(
    budget: f64,
    min: usize,
    mut setup: Option<&mut Setup>,
    mut iter: impl FnMut(usize) -> bool,
) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || secs(start) < budget {
        if !iter(n) {
            break;
        }
        if let Some(setup) = setup.as_deref_mut() {
            setup.sample();
        }
        n += 1;
    }
}

/// Set-up time. Host speed drifts over seconds, so the set-up is timed
/// [`SETUP_REPS`] times before the first iteration and again after every
/// iteration; the median of the samples spans the run like the other
/// metrics do.
struct Setup<'a> {
    build: Box<dyn FnMut() -> Result<(), String> + 'a>,
    times: Vec<f64>,
    error: Option<String>,
}

impl<'a> Setup<'a> {
    fn new(build: impl FnMut() -> Result<(), String> + 'a) -> Self {
        let mut setup = Setup { build: Box::new(build), times: Vec::new(), error: None };
        setup.sample();
        setup
    }

    fn sample(&mut self) {
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let out = (self.build)();
            self.times.push(secs(start));
            if let Err(e) = out {
                self.error.get_or_insert(e);
            }
        }
    }

    /// Median set-up seconds; a failed set-up is one failed operation.
    fn finish(self, report: &mut Report) -> f64 {
        report.op(self.error.is_none(), || {
            format!("set-up: {}", self.error.clone().unwrap_or_default())
        });
        median(&self.times)
    }
}

fn size_of_dir(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn read_dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| {
                    let bytes = std::fs::read(e.path()).ok()?;
                    Some((e.file_name().to_string_lossy().into_owned(), bytes))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The 10 Gbps BBRv1-vs-CUBIC dumbbell cell of `fifo_clean`/`red_lossy`.
pub fn cell_config(aqm: AqmKind, seed: u64) -> Result<ScenarioConfig, String> {
    let opts = RunOptions { seed, ..RunOptions::standard() };
    ScenarioConfig::builder(CcaKind::BbrV1, CcaKind::Cubic, aqm, 2.0, 10_000_000_000, &opts)
        .duration(SimDuration::from_secs(CELL_SECS))
        .build()
}

/// The observed cell: CUBIC joins [`JOIN_MS`] after BBRv1 under FQ-CoDel.
pub fn observed_config(seed: u64) -> Result<ScenarioConfig, String> {
    let opts = RunOptions { seed, ..RunOptions::standard() };
    ScenarioConfig::builder(
        CcaKind::BbrV1,
        CcaKind::Cubic,
        AqmKind::FqCodel,
        2.0,
        1_000_000_000,
        &opts,
    )
    .duration(SimDuration::from_secs(OBSERVED_SECS))
    .start_offset_ms(vec![0, JOIN_MS])
    .build()
}

/// The 162 cells of `grid_1g`: 9 pairs × {FIFO, RED, FQ-CoDel} × 6 queues.
pub fn grid_configs(seed: u64) -> Result<Vec<ScenarioConfig>, String> {
    let opts = RunOptions { seed, ..RunOptions::quick() };
    let cells: Vec<ScenarioConfig> =
        paper_grid(&opts).into_iter().filter(|c| c.bw_bps == 1_000_000_000).collect();
    for c in &cells {
        c.validate()?;
    }
    Ok(cells)
}

fn observed_recording(dir: &Path) -> Recording {
    Recording { queue: true, ..Recording::flows_only() }.out_dir(dir).svg(true)
}

/// Run one workload.
pub fn run(workload: &str, p: &Params, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "fifo_clean" => single_cell(&mut report, p, AqmKind::Fifo, traced)?,
        "red_lossy" => single_cell(&mut report, p, AqmKind::Red, traced)?,
        "grid_1g" => grid(&mut report, p, traced)?,
        "observed_fqcodel" => observed(&mut report, p, traced)?,
        other => return Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
    Ok(report)
}

// ---------------------------------------------------------------- cells

/// Untraced iterations of one cell: host seconds and events per run, and
/// the first result at each seed.
struct CellRuns {
    walls: Vec<f64>,
    rates: Vec<f64>,
    firsts: Vec<RunResult>,
}

/// Run the cells round robin, iteration `i` on `cfgs[i % cfgs.len()]`;
/// a repeat at a seed must reproduce that seed's first result.
fn run_cell_iterations(
    report: &mut Report,
    cfgs: &[ScenarioConfig],
    budget: f64,
    min: usize,
    setup: Option<&mut Setup>,
) -> CellRuns {
    let mut runs = CellRuns { walls: Vec::new(), rates: Vec::new(), firsts: Vec::new() };
    repeat(budget, min, setup, |i| {
        let cfg = &cfgs[i % cfgs.len()];
        let start = Instant::now();
        let out = Runner::new(cfg).seed(cfg.seed).run();
        let wall = secs(start);
        let Ok(out) = out else {
            report.op(false, || format!("run {}: {}", cfg.label(), out.unwrap_err()));
            return false;
        };
        report.op(true, String::new);
        let r = out.into_first();
        runs.walls.push(wall);
        runs.rates.push(r.events as f64 / wall);
        match runs.firsts.get(i % cfgs.len()) {
            None => runs.firsts.push(r),
            Some(first) => {
                let same = first.to_json_string() == r.to_json_string();
                report.op(same, || format!("repeat run at seed {} changed RunMetrics", cfg.seed));
            }
        }
        true
    });
    runs
}

/// Seed of the `i`-th cell a run measures: `--seed` picks a block of
/// seeds, so one run averages over several inputs.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// Everything the first iteration of `fifo_clean`/`red_lossy` needs.
fn cell_setup(aqm: AqmKind, seed: u64) -> Result<Vec<ScenarioConfig>, String> {
    let cfgs: Vec<ScenarioConfig> =
        (0..CELL_SEEDS).map(|i| cell_config(aqm, sub_seed(seed, i))).collect::<Result<_, _>>()?;
    for c in &cfgs {
        build_sim(c, c.seed, None, CheckMode::Off, false)?;
    }
    Ok(cfgs)
}

fn single_cell(report: &mut Report, p: &Params, aqm: AqmKind, traced: bool) -> Result<(), String> {
    let cfgs = cell_setup(aqm, p.seed)?;
    if traced {
        return traced_cell(report, p, &cfgs[0]);
    }
    let mut setup = Setup::new(|| cell_setup(aqm, p.seed).map(drop));
    // At least one seed runs twice, so the repeat check always runs.
    let runs = run_cell_iterations(report, &cfgs, p.seconds, cfgs.len() + 1, Some(&mut setup));
    let setup_s = setup.finish(report);
    // What a sweep would cache for one run: its RunResult JSON.
    let artifact = runs.firsts.iter().map(|r| r.to_json_pretty().len()).sum::<usize>() as f64
        / runs.firsts.len().max(1) as f64;
    if aqm == AqmKind::Red {
        for r in &runs.firsts {
            report.op(r.sender_mbps[0] > r.sender_mbps[1], || {
                format!(
                    "Fig 4 shape: BBRv1 {:.1} Mbps not above CUBIC {:.1} Mbps under RED",
                    r.sender_mbps[0], r.sender_mbps[1]
                )
            });
        }
    }
    report.samples("wall_s", &runs.walls);
    report.metric("setup_s", setup_s, "s");
    report.metric("wall_s", median(&runs.walls), "s");
    report.metric("events_per_s", median(&runs.rates), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // No observer is attached to these cells.
    report.metric("observer_overhead", 1.0, "ratio");
    report.metric("artifact_mb", artifact / 1e6, "MB");
    Ok(())
}

/// Traced runs of one cell, each checked against the untraced reference.
struct TracedCell {
    trace: Trace,
    counters: RunCounters,
    walls: Vec<f64>,
    runs: u64,
}

fn traced_cell_iterations(
    report: &mut Report,
    cfg: &ScenarioConfig,
    reference: &RunResult,
    budget: f64,
) -> TracedCell {
    let mut out = TracedCell {
        trace: Trace::default(),
        counters: RunCounters::default(),
        walls: Vec::new(),
        runs: 0,
    };
    trace::reset();
    repeat(budget, 1, None, |_| {
        let start = Instant::now();
        let run = run_traced(cfg, cfg.seed, None, CheckMode::Off);
        out.walls.push(secs(start));
        out.trace.merge(trace::take());
        let Ok(run) = run else {
            report.op(false, || {
                format!("traced run {}: {}", cfg.label(), run.err().unwrap_or_default())
            });
            return false;
        };
        report.op(true, String::new);
        report.op(run.result.to_json_string() == reference.to_json_string(), || {
            format!("traced run of {} differs from the untraced run", cfg.label())
        });
        out.counters.add(&run.counters);
        out.runs += 1;
        true
    });
    out
}

fn traced_cell(report: &mut Report, p: &Params, cfg: &ScenarioConfig) -> Result<(), String> {
    let untraced = run_cell_iterations(report, std::slice::from_ref(cfg), p.seconds / 2.0, 1, None);
    let reference = untraced.firsts.first().ok_or("untraced run failed")?;
    let t = traced_cell_iterations(report, cfg, reference, p.seconds / 2.0);
    check_closure(report, &t.trace);
    if cfg.aqm == AqmKind::Red {
        let fifo = cell_config(AqmKind::Fifo, cfg.seed)?;
        let fifo_ref = Runner::new(&fifo).seed(fifo.seed).run().map_err(|e| e.to_string())?;
        report.op(true, String::new);
        let f = traced_cell_iterations(report, &fifo, fifo_ref.first(), 0.0);
        print_split(&t, &f);
    }
    let overhead = median(&t.walls) / median(&untraced.walls);
    layer_metrics(report, &t.trace, &t.counters, t.runs as f64);
    zero_metrics(report, &NO_OBSERVER);
    zero_metrics(report, &NO_SWEEP);
    trace_metrics(report, overhead);
    write_trace(&p.work_dir, &t.trace)
}

/// ns/event of each layer's self time, for the RED-vs-FIFO split.
fn ns_per_event(t: &TracedCell) -> Vec<(&'static str, f64)> {
    let events = t.counters.events.max(1) as f64;
    let groups: [(&str, &[Layer]); 6] = [
        ("netsim.core", &[Layer::Core, Layer::Finalize]),
        ("tcp.sender", &[Layer::Sender]),
        ("tcp.receiver", &[Layer::Receiver]),
        ("cca", &[Layer::CcaAck, Layer::CcaLoss, Layer::CcaOther]),
        ("aqm", &[Layer::AqmEnqueue, Layer::AqmDequeue]),
        ("other", &[Layer::Probe, Layer::Sample, Layer::Check]),
    ];
    groups
        .iter()
        .map(|(name, layers)| {
            (*name, layers.iter().map(|&l| t.trace.self_time(l)).sum::<u64>() as f64 / events)
        })
        .collect()
}

fn print_split(red: &TracedCell, fifo: &TracedCell) {
    let (r, f) = (ns_per_event(red), ns_per_event(fifo));
    let (rt, ft): (f64, f64) = (r.iter().map(|x| x.1).sum(), f.iter().map(|x| x.1).sum());
    let extra = rt - ft;
    println!("split red_lossy vs fifo_clean: {rt:.1} vs {ft:.1} traced ns/event, extra {extra:.1}");
    for ((name, a), (_, b)) in r.iter().zip(&f) {
        let share = if extra != 0.0 { (a - b) / extra * 100.0 } else { 0.0 };
        println!("split   {name:<13} red {a:>8.1}  fifo {b:>8.1}  extra {:>+8.1} ns/event ({share:>5.1}% of extra)", a - b);
    }
}

// ----------------------------------------------------------- per layer

fn per_call(t: &Trace, layers: &[Layer]) -> f64 {
    let calls: u64 = layers.iter().map(|&l| t.calls(l)).sum();
    let ns: u64 = layers.iter().map(|&l| t.self_time(l)).sum();
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

/// The layer metrics every traced workload reports: counts are per run of
/// the workload (`runs` of them were traced).
fn layer_metrics(report: &mut Report, t: &Trace, c: &RunCounters, runs: f64) {
    let per_run = |n: u64| n as f64 / runs;
    let events = c.events.max(1) as f64;
    let core_self = (t.self_time(Layer::Core) + t.self_time(Layer::Finalize)) as f64;
    report.metric("netsim.core.self_ns_per_event", core_self / events, "ns");
    report.metric("netsim.events", per_run(c.events), "count");
    report.metric("tcp.sender.self_ns_per_call", per_call(t, &[Layer::Sender]), "ns");
    report.metric("tcp.sender.calls", per_run(t.calls(Layer::Sender)), "count");
    report.metric("tcp.retransmits", per_run(c.retransmits), "count");
    report.metric("tcp.rtos", per_run(c.rtos), "count");
    let useful = if c.segments_sent == 0 {
        0.0
    } else {
        1.0 - c.retransmits as f64 / c.segments_sent as f64
    };
    report.metric("tcp.useful_frac", useful, "ratio");
    report.metric("tcp.receiver.self_ns_per_call", per_call(t, &[Layer::Receiver]), "ns");
    report.metric("tcp.receiver.calls", per_run(t.calls(Layer::Receiver)), "count");
    report.metric("cca.on_ack_ns", per_call(t, &[Layer::CcaAck]), "ns");
    let cca_calls = t.calls(Layer::CcaAck) + t.calls(Layer::CcaLoss) + t.calls(Layer::CcaOther);
    report.metric("cca.calls", per_run(cca_calls), "count");
    report.metric("cca.loss_events", per_run(t.calls(Layer::CcaLoss)), "count");
    report.metric("aqm.enqueue_ns", per_call(t, &[Layer::AqmEnqueue]), "ns");
    report.metric("aqm.dequeue_ns", per_call(t, &[Layer::AqmDequeue]), "ns");
    report.metric(
        "aqm.calls",
        per_run(t.calls(Layer::AqmEnqueue) + t.calls(Layer::AqmDequeue)),
        "count",
    );
    let offered = t.calls(Layer::AqmEnqueue);
    let drop_frac = if offered == 0 { 0.0 } else { c.aqm_drops as f64 / offered as f64 };
    report.metric("aqm.drop_frac", drop_frac, "ratio");
}

/// Per-layer metrics of the sweep and the cache, which only `grid_1g`
/// exercises; the other workloads report them as 0.
const NO_SWEEP: [(&str, &str); 6] = [
    ("sweep.cell_p50_s", "s"),
    ("sweep.cell_p90_s", "s"),
    ("sweep.busy_frac", "ratio"),
    ("cache.put_us", "us"),
    ("cache.get_us", "us"),
    ("cache.hit_frac", "ratio"),
];

/// Per-layer metrics of the observers, which only `observed_fqcodel`
/// exercises; the other workloads report them as 0.
const NO_OBSERVER: [(&str, &str); 8] = [
    ("telemetry.sample_ns", "ns"),
    ("telemetry.samples", "count"),
    ("telemetry.serialize_s", "s"),
    ("telemetry.parse_s", "s"),
    ("telemetry.svg_s", "s"),
    ("telemetry.record_bytes", "B"),
    ("check.audit_s", "s"),
    ("analysis.s", "s"),
];

fn zero_metrics(report: &mut Report, metrics: &[(&str, &'static str)]) {
    for &(name, unit) in metrics {
        report.metric(name, 0.0, unit);
    }
}

fn trace_metrics(report: &mut Report, overhead: f64) {
    report.metric("trace.overhead", overhead, "ratio");
    report.metric("trace.clock_ns", trace::clock_ns(), "ns");
}

/// The traced books must close: the duration of every top-level span
/// (a `run_until` slice, a sweep cell, a serialisation, ...) equals its
/// own self time plus the self time of every span opened inside it.
fn check_closure(report: &mut Report, t: &Trace) {
    for root in Layer::ALL {
        let r = root as usize;
        if t.root_ns[r] > 0 {
            let own = t.self_ns[r][r];
            let children: u64 = t.self_ns[r].iter().sum::<u64>() - own;
            println!(
                "closure: {} {} ns = own self {own} ns + child spans {children} ns",
                root.name(),
                t.root_ns[r],
            );
        }
    }
    let open = t.unclosed_roots();
    report.op(open.is_empty(), || format!("trace accounting does not close: {open:?}"));
}

/// Write the spans kept in memory: per-layer sums and every coarse span.
fn write_trace(dir: &Path, t: &Trace) -> Result<(), String> {
    println!("{:<26} {:>12} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
    let mut layers = Vec::new();
    for l in Layer::ALL {
        let i = l as usize;
        if t.calls[i] > 0 {
            println!(
                "{:<26} {:>12} {:>14.3} {:>14.3}",
                l.name(),
                t.calls[i],
                t.total_ns[i] as f64 / 1e6,
                t.self_time(l) as f64 / 1e6
            );
        }
        layers.push(format!(
            "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            l.name(),
            t.calls[i],
            t.total_ns[i],
            t.self_time(l)
        ));
    }
    let spans: Vec<String> = t
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer.name(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.dur_ns
            )
        })
        .collect();
    let text = format!("{{\"layers\":[{}],\"spans\":[{}]}}\n", layers.join(","), spans.join(",\n"));
    let path = dir.join("trace.json");
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

// ----------------------------------------------------------------- grid

fn cold_pass_bytes(out: &SweepOutput) -> Vec<String> {
    out.results.iter().flat_map(|a| a.runs.iter().map(|r| r.to_json_string())).collect()
}

/// One untraced cold pass into a fresh cache, then a warm pass over it.
struct GridPass {
    cold_s: f64,
    events: u64,
    cache_bytes: u64,
    bytes: Vec<String>,
}

fn grid_pass(report: &mut Report, cells: &[ScenarioConfig], dir: &Path) -> Option<GridPass> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = RunCache::new(dir);
    let start = Instant::now();
    let cold = try_sweep_with_workers(cells, 1, &cache, GRID_WORKERS);
    let cold_s = secs(start);
    report.ops(cells.len() as u64, cold.failed.len() as u64);
    for f in &cold.failed {
        eprintln!("perfbench: FAILED: cell {} seed {}: {}", f.config.label(), f.seed, f.error);
    }
    report.op(cold.cache_put_errors == 0, || {
        format!("{} cache writes failed", cold.cache_put_errors)
    });
    if !cold.failed.is_empty() {
        return None;
    }
    let bytes = cold_pass_bytes(&cold);
    let cache_bytes = size_of_dir(dir);
    // Every cell must be in the cache before the warm pass, so the warm
    // pass only reads.
    let cached: Vec<String> =
        cells.iter().filter_map(|c| cache.get(c, c.seed)).map(|r| r.to_json_string()).collect();
    report.op(cached == bytes, || {
        format!("cache holds {} of {} cold results", cached.len(), cells.len())
    });
    let warm = try_sweep_with_workers(cells, 1, &RunCache::new(dir), GRID_WORKERS);
    report.ops(cells.len() as u64, warm.failed.len() as u64);
    report.op(cold_pass_bytes(&warm) == bytes, || {
        "warm pass results differ from the cold pass".into()
    });
    let events = cold.results.iter().flat_map(|a| &a.runs).map(|r| r.events).sum();
    let _ = std::fs::remove_dir_all(dir);
    Some(GridPass { cold_s, events, cache_bytes, bytes })
}

fn grid_passes(
    report: &mut Report,
    cells: &[ScenarioConfig],
    p: &Params,
    budget: f64,
    min: usize,
    setup: Option<&mut Setup>,
) -> Vec<GridPass> {
    let mut passes: Vec<GridPass> = Vec::new();
    repeat(budget, min, setup, |i| {
        let Some(pass) = grid_pass(report, cells, &p.work_dir.join(format!("cache-{i}"))) else {
            return false;
        };
        if let Some(first) = passes.first() {
            report.op(first.bytes == pass.bytes, || {
                "repeat grid pass at one seed changed results".into()
            });
        }
        passes.push(pass);
        true
    });
    passes
}

/// Everything the first pass of `grid_1g` needs, its cache directory
/// included (made and removed again).
fn grid_setup(p: &Params) -> Result<Vec<ScenarioConfig>, String> {
    let cells = grid_configs(p.seed)?;
    for c in &cells {
        build_sim(c, c.seed, None, CheckMode::Off, false)?;
    }
    let dir = p.work_dir.join("cache-setup");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cache directory: {e}"))?;
    std::fs::remove_dir(&dir).map_err(|e| format!("cache directory: {e}"))?;
    Ok(cells)
}

fn grid(report: &mut Report, p: &Params, traced: bool) -> Result<(), String> {
    let cells = grid_setup(p)?;
    if traced {
        return traced_grid(report, p, &cells);
    }
    let mut setup = Setup::new(|| grid_setup(p).map(drop));
    let passes = grid_passes(report, &cells, p, p.seconds, 2, Some(&mut setup));
    let setup_s = setup.finish(report);
    let walls: Vec<f64> = passes.iter().map(|g| g.cold_s).collect();
    let rates: Vec<f64> = passes.iter().map(|g| g.events as f64 / g.cold_s).collect();
    let artifact = passes.first().map_or(0, |g| g.cache_bytes);
    report.samples("wall_s", &walls);
    report.metric("setup_s", setup_s, "s");
    report.metric("wall_s", median(&walls), "s");
    report.metric("events_per_s", median(&rates), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // A sweep attaches no observer.
    report.metric("observer_overhead", 1.0, "ratio");
    report.metric("artifact_mb", artifact as f64 / 1e6, "MB");
    Ok(())
}

/// What one traced sweep cell hands back to the main thread.
type CellOut = (Result<TracedRun, String>, Trace);

fn traced_grid(report: &mut Report, p: &Params, cells: &[ScenarioConfig]) -> Result<(), String> {
    let untraced = grid_passes(report, cells, p, p.seconds / 2.0, 1, None);
    let reference = untraced.first().ok_or("untraced grid pass failed")?.bytes.clone();
    let untraced_s = median(&untraced.iter().map(|g| g.cold_s).collect::<Vec<_>>());

    // Cold pass: `RunCache::run_checked`'s get-miss, run, put, with the
    // run traced layer by layer on its worker.
    let dir = p.work_dir.join("cache-traced");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::new(&dir);
    trace::reset();
    let start = Instant::now();
    let outs: Vec<Result<CellOut, String>> = span(Layer::Sweep, || {
        par_try_map_with_workers(cells, GRID_WORKERS, |c| {
            trace::reset();
            let hit = cache.get(c, c.seed);
            let run = span(Layer::Cell, || run_traced(c, c.seed, None, CheckMode::Off));
            if let (None, Ok(r)) = (hit, &run) {
                span(Layer::CachePut, || cache.put(c, c.seed, &r.result));
            }
            (run, trace::take())
        })
    });
    let traced_s = secs(start);
    let mut t = Trace::default();
    let mut counters = RunCounters::default();
    let mut bytes = Vec::new();
    for out in outs {
        let ok = matches!(&out, Ok((Ok(_), _)));
        report.op(ok, || "traced grid cell failed".into());
        if let Ok((run, cell_trace)) = out {
            t.merge(cell_trace);
            if let Ok(run) = run {
                counters.add(&run.counters);
                bytes.push(run.result.to_json_string());
            }
        }
    }
    report.op(bytes == reference, || "traced grid pass differs from the untraced pass".into());

    // Warm pass: every cell is a cache hit.
    let warm_cache = RunCache::new(&dir);
    let warm: Vec<Result<(Option<RunResult>, Trace), String>> = span(Layer::Sweep, || {
        par_try_map_with_workers(cells, GRID_WORKERS, |c| {
            trace::reset();
            let got = span(Layer::CacheGet, || warm_cache.get(c, c.seed));
            (got, trace::take())
        })
    });
    // The two pass spans, from this thread.
    t.merge(trace::take());
    let mut warm_bytes = Vec::new();
    for (got, cell_trace) in warm.into_iter().flatten() {
        t.merge(cell_trace);
        warm_bytes.extend(got.map(|r| r.to_json_string()));
    }
    let hit_frac = warm_bytes.len() as f64 / cells.len() as f64;
    report
        .op(warm_bytes == reference, || format!("warm pass hit {hit_frac:.3} of cells or differs"));
    let _ = std::fs::remove_dir_all(&dir);

    check_closure(report, &t);
    layer_metrics(report, &t, &counters, 1.0);
    zero_metrics(report, &NO_OBSERVER);
    let cell_s: Vec<f64> =
        t.span_durations(Layer::Cell).iter().map(|&ns| ns as f64 / 1e9).collect();
    report.metric("sweep.cell_p50_s", quantile(&cell_s, 0.5), "s");
    report.metric("sweep.cell_p90_s", quantile(&cell_s, 0.9), "s");
    let busy = cell_s.iter().sum::<f64>() / (GRID_WORKERS as f64 * traced_s);
    report.metric("sweep.busy_frac", busy, "ratio");
    report.metric("cache.put_us", per_call_total(&t, Layer::CachePut) / 1e3, "us");
    report.metric("cache.get_us", per_call_total(&t, Layer::CacheGet) / 1e3, "us");
    report.metric("cache.hit_frac", hit_frac, "ratio");
    trace_metrics(report, traced_s / untraced_s);
    write_trace(&p.work_dir, &t)
}

fn per_call_total(t: &Trace, l: Layer) -> f64 {
    if t.calls(l) == 0 {
        0.0
    } else {
        t.total(l) as f64 / t.calls(l) as f64
    }
}

// ------------------------------------------------------------- observed

/// How the late-joining CUBIC group (group 1) claimed its fair share.
fn late_joiner(d: &FairnessDynamics) -> LateJoinReport {
    let spec = ConvergenceSpec { epsilon: 0.1, hold_s: 1.0 };
    late_joiner_response(d, 1, JOIN_MS as f64 / 1e3, &spec)
}

fn late_is_finite(l: &LateJoinReport) -> bool {
    l.time_to_fair_share_s.is_some_and(f64::is_finite) && l.concession.is_finite()
}

/// What one untraced observed iteration produced.
struct ObservedIter {
    wall_s: f64,
    bare_s: f64,
    observed_s: f64,
    events: u64,
    output: ObservedOutput,
}

/// The output of one observed iteration, compared across repeats.
#[derive(PartialEq)]
struct ObservedOutput {
    bare: String,
    observed: String,
    artifacts: BTreeMap<String, Vec<u8>>,
}

impl ObservedOutput {
    fn empty() -> Self {
        ObservedOutput { bare: String::new(), observed: String::new(), artifacts: BTreeMap::new() }
    }
}

fn observed_iteration(
    report: &mut Report,
    cfg: &ScenarioConfig,
    rec: &Recording,
) -> Option<ObservedIter> {
    let start = Instant::now();
    let bare = Runner::new(cfg).seed(cfg.seed).run();
    let bare_s = secs(start);
    let obs_start = Instant::now();
    let observed =
        Runner::new(cfg).seed(cfg.seed).recorder(rec.clone()).check(CheckMode::Audit).run();
    let observed_s = secs(obs_start);
    let (bare, observed) = match (bare, observed) {
        (Ok(b), Ok(o)) => (b, o),
        (b, o) => {
            report.op(false, || format!("observed cell runs: {:?} / {:?}", b.err(), o.err()));
            return None;
        }
    };
    report.ops(2, 0);
    let record = observed.load_record();
    let late = observed.analysis(WINDOW_S).map(|d| late_joiner(&d));
    let wall_s = secs(start);
    report.op(record.is_ok(), || format!("load_record: {:?}", record.as_ref().err()));
    report.op(late.as_ref().is_ok_and(late_is_finite), || {
        format!("late-joiner result is not finite: {late:?}")
    });
    report.op(observed.check_violations() == 0, || {
        format!("audit reported {} invariant violations", observed.check_violations())
    });
    let (b, o) = (bare.into_first(), observed.into_first());
    report.op(
        b.metrics().to_json_string() == o.metrics().to_json_string() && b.events == o.events,
        || "recording and auditing changed the run's metrics".into(),
    );
    report.op(b.jain >= 0.9, || format!("Fig 6 shape: Jain {:.4} < 0.9 under FQ-CoDel", b.jain));
    let output = ObservedOutput {
        bare: b.to_json_string(),
        observed: o.to_json_string(),
        artifacts: read_dir_bytes(&rec.out_dir),
    };
    Some(ObservedIter { wall_s, bare_s, observed_s, events: b.events, output })
}

/// Run the observed cells round robin, iteration `i` on cell
/// `i % cells.len()`; a repeat at a seed must reproduce that seed's first
/// output, artifacts included.
fn observed_iterations(
    report: &mut Report,
    cells: &[(ScenarioConfig, Recording)],
    budget: f64,
    min: usize,
    setup: Option<&mut Setup>,
) -> (Vec<ObservedIter>, Vec<ObservedOutput>) {
    let mut iters: Vec<ObservedIter> = Vec::new();
    let mut firsts: Vec<ObservedOutput> = Vec::new();
    repeat(budget, min, setup, |i| {
        let (cfg, rec) = &cells[i % cells.len()];
        let Some(mut it) = observed_iteration(report, cfg, rec) else {
            return false;
        };
        let output = std::mem::replace(&mut it.output, ObservedOutput::empty());
        match firsts.get(i % cells.len()) {
            None => firsts.push(output),
            Some(first) => {
                report.op(*first == output, || {
                    format!("repeat observed run at seed {} changed its output", cfg.seed)
                });
            }
        }
        iters.push(it);
        true
    });
    (iters, firsts)
}

/// Everything the first iteration of `observed_fqcodel` needs.
fn observed_setup(p: &Params) -> Result<Vec<(ScenarioConfig, Recording)>, String> {
    (0..OBSERVED_SEEDS)
        .map(|i| {
            let cfg = observed_config(sub_seed(p.seed, i))?;
            let rec = observed_recording(&p.work_dir.join(format!("records-{i}")));
            build_sim(&cfg, cfg.seed, None, CheckMode::Off, false)?;
            build_sim(&cfg, cfg.seed, Some(&rec), CheckMode::Audit, false)?;
            Ok((cfg, rec))
        })
        .collect()
}

fn observed(report: &mut Report, p: &Params, traced: bool) -> Result<(), String> {
    let cells = observed_setup(p)?;
    if traced {
        let (cfg, rec) = &cells[0];
        return traced_observed(report, p, cfg, rec);
    }
    let mut setup = Setup::new(|| observed_setup(p).map(drop));
    // At least one seed runs twice, so the repeat check always runs.
    let (iters, firsts) =
        observed_iterations(report, &cells, p.seconds, cells.len() + 1, Some(&mut setup));
    let setup_s = setup.finish(report);
    let pick = |f: fn(&ObservedIter) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let artifact: usize = firsts.iter().flat_map(|o| o.artifacts.values()).map(Vec::len).sum();
    report.samples("wall_s", &iters.iter().map(|it| it.wall_s).collect::<Vec<_>>());
    report.metric("setup_s", setup_s, "s");
    report.metric("wall_s", pick(|it| it.wall_s), "s");
    report.metric("events_per_s", pick(|it| it.events as f64 / it.bare_s), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("observer_overhead", pick(|it| it.observed_s / it.bare_s), "ratio");
    report.metric("artifact_mb", artifact as f64 / firsts.len().max(1) as f64 / 1e6, "MB");
    Ok(())
}

fn traced_observed(
    report: &mut Report,
    p: &Params,
    cfg: &ScenarioConfig,
    rec: &Recording,
) -> Result<(), String> {
    let (untraced, firsts) =
        observed_iterations(report, &[(cfg.clone(), rec.clone())], p.seconds / 2.0, 1, None);
    let reference = firsts.first().ok_or("untraced observed iteration failed")?;
    let untraced_s = median(&untraced.iter().map(|it| it.wall_s).collect::<Vec<_>>());

    let mut all = Trace::default();
    let mut counters = RunCounters::default();
    let (mut walls, mut audit_s, mut runs) = (Vec::new(), 0.0, 0u64);
    trace::reset();
    repeat(p.seconds / 2.0, 1, None, |_| {
        let start = Instant::now();
        let bare = run_traced(cfg, cfg.seed, None, CheckMode::Off);
        let bare_trace = trace::take();
        let observed = run_traced(cfg, cfg.seed, Some(rec), CheckMode::Audit);
        let (bare, observed) = match (bare, observed) {
            (Ok(b), Ok(o)) => (b, o),
            (b, o) => {
                report.op(false, || format!("traced observed runs: {:?} / {:?}", b.err(), o.err()));
                return false;
            }
        };
        report.ops(2, 0);
        let outcome = RunOutcome {
            config: cfg.clone(),
            runs: vec![observed.result.clone()],
            check_reports: Vec::new(),
        };
        // Like the untraced iteration: `load_record`, then `analysis`,
        // which loads the record again.
        let loaded = span(Layer::Parse, || outcome.load_record());
        let late =
            loaded.and_then(|_| span(Layer::Parse, || outcome.load_record())).map(|record| {
                span(Layer::Analysis, || {
                    late_joiner(&fairness_dynamics(
                        &record,
                        &outcome.flow_groups(),
                        WINDOW_S,
                        cfg.bw_bps as f64,
                    ))
                })
            });
        walls.push(secs(start));
        report.op(late.as_ref().is_ok_and(late_is_finite), || {
            format!("traced late-joiner result is not finite: {late:?}")
        });
        let observed_trace = trace::take();
        let violations = observed.check.as_ref().map_or(0, |r| r.violations_total);
        report.op(violations == 0, || format!("audit reported {violations} invariant violations"));
        let same = bare.result.to_json_string() == reference.bare
            && observed.result.to_json_string() == reference.observed
            && read_dir_bytes(&rec.out_dir) == reference.artifacts;
        report.op(same, || {
            "traced observed runs differ from the untraced runs (flight record included)".into()
        });
        let core = |t: &Trace| t.self_time(Layer::Core) as f64 / 1e9;
        audit_s += core(&observed_trace) - core(&bare_trace)
            + observed_trace.total(Layer::Check) as f64 / 1e9;
        counters.add(&bare.counters);
        counters.add(&observed.counters);
        all.merge(bare_trace);
        all.merge(observed_trace);
        runs += 1;
        true
    });
    let n = runs.max(1) as f64;
    check_closure(report, &all);
    // Each traced iteration holds two simulator runs: bare and observed.
    layer_metrics(report, &all, &counters, 2.0 * n);
    let samples = all.calls(Layer::Sample);
    let sample_ns = if samples == 0 {
        0.0
    } else {
        (all.total(Layer::Probe) + all.total(Layer::Sample)) as f64 / samples as f64
    };
    report.metric("telemetry.sample_ns", sample_ns, "ns");
    report.metric("telemetry.samples", samples as f64 / n, "count");
    report.metric("telemetry.serialize_s", all.total(Layer::Serialize) as f64 / 1e9 / n, "s");
    report.metric("telemetry.parse_s", all.total(Layer::Parse) as f64 / 1e9 / n, "s");
    report.metric("telemetry.svg_s", all.total(Layer::Svg) as f64 / 1e9 / n, "s");
    report.metric("telemetry.record_bytes", counters.record_bytes as f64 / n, "B");
    report.metric("check.audit_s", audit_s / n, "s");
    report.metric("analysis.s", all.total(Layer::Analysis) as f64 / 1e9 / n, "s");
    zero_metrics(report, &NO_SWEEP);
    trace_metrics(report, median(&walls) / untraced_s);
    write_trace(&p.work_dir, &all)
}
