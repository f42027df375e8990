//! The benchmark's copy of `Runner`'s single-run path, with every layer
//! wrapped in a timing decorator.
//!
//! [`build_sim`] builds the same `Simulator` that `Runner::run` builds for
//! one `(config, seed)`: same topology, same AQM on every shaped hop, same
//! flow plan, same per-flow CCA seeds, same recorder and checker. With
//! `timed` set, it wraps the TCP endpoints, the CCAs, the bottleneck AQMs
//! and the flight recorder in the decorators of [`crate::trace`].
//! [`run_traced`] drives it the way `Runner` does and assembles the same
//! `RunResult`. Its output must equal `Runner`'s byte for byte — flight
//! record included — which the benchmark checks on every traced run; that
//! identity is what keeps this copy honest.

use crate::trace::{span, Layer, TimedAqm, TimedCca, TimedEndpoint, TimedRecorder};
use elephants_aqm::build_aqm;
use elephants_cca::build_cca_seeded;
use elephants_experiments::runner::emit_dynamics_figures;
use elephants_experiments::{LinkResult, Recording, RunResult, ScenarioConfig};
use elephants_json::ToJson;
use elephants_netsim::{
    Aqm, CheckMode, CheckReport, FlowEndpoint, RecorderConfig, RunSummary, SimConfig, SimDuration,
    SimTime, Simulator,
};
use elephants_tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use elephants_telemetry::FlightRecorder;
use elephants_workload::{group_specs, plan_flows, GroupSpec};

/// A simulator ready to run, with what is needed to turn its summary into
/// a `RunResult`.
pub struct BuiltSim {
    sim: Simulator,
    groups: Vec<GroupSpec>,
    flows: u32,
}

/// Build the simulator `Runner::run` would build for `(cfg, seed)`.
pub fn build_sim(
    cfg: &ScenarioConfig,
    seed: u64,
    recording: Option<&Recording>,
    check: CheckMode,
    timed: bool,
) -> Result<BuiltSim, String> {
    cfg.validate()?;
    let bw = cfg.bandwidth();
    let mut topo = cfg.topology.build(bw, cfg.rtt())?;
    for bn in topo.bottleneck_links().to_vec() {
        let aqm = build_aqm(cfg.aqm, cfg.queue_bytes(), cfg.bw_bps, cfg.mss, cfg.ecn, seed);
        let aqm: Box<dyn Aqm> = if timed { Box::new(TimedAqm::new(aqm)) } else { aqm };
        topo.set_aqm_on(bn, aqm);
    }
    let mut groups = group_specs(&topo);
    elephants_workload::apply_start_offsets(&mut groups, &cfg.start_offsets());

    // `Runner` clamps a warmup at or past the end of the run to zero.
    let warmup = if cfg.duration <= cfg.warmup && !cfg.duration.is_zero() {
        SimDuration::ZERO
    } else {
        cfg.warmup
    };
    let sim_cfg = SimConfig { duration: cfg.duration, warmup, max_events: cfg.max_events };
    let mut sim = Simulator::new(topo, sim_cfg, seed);
    sim.set_check_mode(check);

    if let Some(rec) = recording {
        if rec.flows || rec.queue {
            let recorder = FlightRecorder::new();
            let config =
                RecorderConfig { interval: rec.interval, flows: rec.flows, queue: rec.queue };
            if timed {
                sim.install_recorder(Box::new(TimedRecorder::new(recorder)), config);
            } else {
                sim.install_recorder(Box::new(recorder), config);
            }
        }
        if rec.events {
            if let Some(bn) = sim.topology().bottleneck_link() {
                sim.topology_mut().link_mut(bn).enable_trace(rec.event_capacity);
            }
        }
    }

    if let Some(&bn) = sim.topology().bottleneck_links().get(cfg.fault_link as usize) {
        sim.topology_mut().link_mut(bn).loss_model = cfg.loss;
        if !cfg.faults.is_empty() {
            sim.install_fault_plan(bn, &cfg.faults);
        }
    }

    let plan = plan_flows(bw, groups.len() as u32, cfg.flow_scale, seed);
    let rx_cfg = if cfg.coalesce { ReceiverConfig::coalesced() } else { ReceiverConfig::default() };
    for (group, starts) in plan.starts.iter().enumerate() {
        let g = &groups[group];
        let kind = if g.cca_slot == 0 { cfg.cca1 } else { cfg.cca2 };
        for (i, &start) in starts.iter().enumerate() {
            let flow_seed =
                seed.wrapping_mul(0x100000001B3).wrapping_add((group as u64) << 32 | i as u64);
            let mut cca = build_cca_seeded(kind, cfg.mss, flow_seed);
            if timed {
                cca = Box::new(TimedCca::new(cca));
            }
            let tx = TcpSender::new(
                SenderConfig { mss: cfg.mss, ecn: cfg.ecn, ..Default::default() },
                g.receiver,
                cca,
            );
            let rx = TcpReceiver::new(rx_cfg, g.sender);
            let (tx, rx): (Box<dyn FlowEndpoint>, Box<dyn FlowEndpoint>) = if timed {
                (
                    Box::new(TimedEndpoint::new(Box::new(tx), Layer::Sender)),
                    Box::new(TimedEndpoint::new(Box::new(rx), Layer::Receiver)),
                )
            } else {
                (Box::new(tx), Box::new(rx))
            };
            sim.add_flow(g.sender, g.receiver, tx, rx, start + g.start_offset);
        }
    }
    Ok(BuiltSim { sim, groups, flows: plan.total() })
}

/// Counters of one traced run that `RunResult` does not carry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunCounters {
    /// Events the simulator processed.
    pub events: u64,
    /// Data segments sent, retransmissions included.
    pub segments_sent: u64,
    /// Retransmitted segments over the whole run.
    pub retransmits: u64,
    /// Retransmission timeouts over the whole run.
    pub rtos: u64,
    /// Packets the bottleneck AQMs dropped.
    pub aqm_drops: u64,
    /// Bytes of flight-record JSON written.
    pub record_bytes: u64,
}

impl RunCounters {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &RunCounters) {
        self.events += other.events;
        self.segments_sent += other.segments_sent;
        self.retransmits += other.retransmits;
        self.rtos += other.rtos;
        self.aqm_drops += other.aqm_drops;
        self.record_bytes += other.record_bytes;
    }
}

/// What [`run_traced`] produced.
pub struct TracedRun {
    /// Must equal `Runner::run`'s first result byte for byte.
    pub result: RunResult,
    /// The invariant checker's report, when checking was on.
    pub check: Option<CheckReport>,
    /// Run-level counters for the per-layer metrics.
    pub counters: RunCounters,
}

/// Run one `(config, seed)` with every layer timed, the way `Runner::run`
/// runs its base seed: 64 `run_until` slices, `finalize`, then the flight
/// record and its figures. `Runner`'s wall-clock watchdog is left out; it
/// never fires on a run that completes.
pub fn run_traced(
    cfg: &ScenarioConfig,
    seed: u64,
    recording: Option<&Recording>,
    check: CheckMode,
) -> Result<TracedRun, String> {
    let BuiltSim { mut sim, groups, flows } = build_sim(cfg, seed, recording, check, true)?;
    let end = SimTime::ZERO + cfg.duration;
    let slice = SimDuration::from_nanos((cfg.duration.as_nanos() / 64).max(1));
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + slice).min(end);
        span(Layer::Core, || sim.run_until(t));
        if sim.budget_exhausted() {
            return Err(format!(
                "event budget exhausted: {} events processed of max {}",
                sim.events_processed(),
                cfg.max_events
            ));
        }
    }
    let summary = span(Layer::Finalize, || sim.finalize());
    let check_report = sim.take_check_report();
    let (record_path, record_bytes) = match recording {
        Some(rec) => {
            let (path, bytes) = write_record(&mut sim, cfg, seed, rec)?;
            (Some(path), bytes)
        }
        None => (None, 0),
    };
    let result = assemble(cfg, &summary, &groups, flows, record_path);
    let counters = RunCounters {
        events: summary.events_processed,
        segments_sent: summary.flows.iter().map(|f| f.sender.data_segments_sent).sum(),
        retransmits: summary.flows.iter().map(|f| f.sender.retransmits).sum(),
        rtos: summary.flows.iter().map(|f| f.sender.rto_count).sum(),
        aqm_drops: summary.links.iter().map(|l| l.report.aqm.dropped_total()).sum(),
        record_bytes,
    };
    Ok(TracedRun { result, check: check_report, counters })
}

/// `Runner`'s record writer: drain the recorder, serialise, write, draw.
fn write_record(
    sim: &mut Simulator,
    cfg: &ScenarioConfig,
    seed: u64,
    rec: &Recording,
) -> Result<(String, u64), String> {
    let mut recorder = match sim.take_recorder() {
        Some(mut boxed) => std::mem::take(
            boxed
                .as_any_mut()
                .downcast_mut::<TimedRecorder>()
                .ok_or("the traced run installs a TimedRecorder")?,
        )
        .into_inner(),
        None => FlightRecorder::new(),
    };
    if rec.events {
        if let Some(bn) = sim.topology().bottleneck_link() {
            if let Some(ring) = sim.topology_mut().link_mut(bn).take_trace() {
                use elephants_netsim::Recorder;
                for e in ring.events() {
                    recorder.on_trace_event(e);
                }
                if ring.truncated() > 0 {
                    recorder.on_trace_truncated(ring.truncated());
                }
            }
        }
    }
    let record = recorder.into_record(cfg.label(), seed, rec.interval);
    std::fs::create_dir_all(&rec.out_dir).map_err(|e| format!("creating record directory: {e}"))?;
    let stem = cfg.cache_key(seed);
    let path = rec.out_dir.join(format!("{stem}.flight.json"));
    let text = span(Layer::Serialize, || record.to_json_string());
    std::fs::write(&path, &text).map_err(|e| format!("writing flight record: {e}"))?;
    if rec.svg {
        span(Layer::Svg, || emit_dynamics_figures(&record, &rec.out_dir, &stem))
            .map_err(|e| format!("writing dynamics figure: {e}"))?;
    }
    Ok((path.display().to_string(), text.len() as u64))
}

/// `Runner`'s summary-to-result step.
fn assemble(
    cfg: &ScenarioConfig,
    summary: &RunSummary,
    groups: &[GroupSpec],
    flows: u32,
    record_path: Option<String>,
) -> RunResult {
    let window = summary.window;
    let flow_goodputs: Vec<(u32, f64)> = summary
        .flows
        .iter()
        .map(|f| {
            let group = groups
                .iter()
                .position(|g| g.sender == f.sender_node)
                .expect("flow sender is one of the topology's sender hosts");
            (group as u32, f.window_goodput_bps(window))
        })
        .collect();
    let retransmits: u64 = summary.flows.iter().map(|f| f.sender.retransmits_window).sum();
    let rtos: u64 = summary.flows.iter().map(|f| f.sender.rto_count).sum();
    let drops = summary.bottleneck.aqm.dropped_total() + summary.bottleneck.fault_losses;
    let senders = elephants_metrics::per_sender_goodput(&flow_goodputs);
    let tputs: Vec<f64> = senders.iter().map(|s| s.goodput_bps).collect();
    let jain = elephants_metrics::jain_index(&tputs);
    let window_s = summary.window.as_secs_f64();
    let wire_bps = if window_s > 0.0 {
        summary.bottleneck.bytes_tx_window as f64 * 8.0 / window_s
    } else {
        0.0
    };
    let utilization = elephants_metrics::link_utilization(wire_bps, cfg.bw_bps as f64);
    let links = summary
        .links
        .iter()
        .map(|l| {
            let link_bps =
                if window_s > 0.0 { l.report.bytes_tx_window as f64 * 8.0 / window_s } else { 0.0 };
            LinkResult {
                link: l.link.0,
                drops: l.report.aqm.dropped_total() + l.report.fault_losses,
                down_drops: l.report.down_drops,
                peak_queue_pkts: l.report.peak_qlen_pkts,
                utilization: elephants_metrics::link_utilization(link_bps, l.rate_bps as f64),
            }
        })
        .collect();
    RunResult {
        sender_mbps: senders.iter().map(|s| s.goodput_bps / 1e6).collect(),
        jain,
        utilization,
        retransmits,
        rtos,
        drops,
        down_drops: summary.bottleneck.down_drops,
        flows,
        events: summary.events_processed,
        peak_queue_pkts: summary.bottleneck.peak_qlen_pkts,
        fault_events_applied: summary.bottleneck.fault_events_applied,
        record_path,
        links,
    }
}
