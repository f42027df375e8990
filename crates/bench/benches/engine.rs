//! Engine micro-benchmarks: event heap, AQM hot paths, flight-record
//! JSON codec, end-to-end simulation throughput (events/second).

use elephants_aqm::{build_aqm, AqmKind};
use elephants_bench::bench_scenario;
use elephants_bench::harness::{BenchmarkId, Criterion, Throughput};
use elephants_bench::criterion_group;
use elephants_cca::CcaKind;
use elephants_experiments::Runner;
use elephants_json::ToJson;
use elephants_netsim::{Event, EventQueue, FlowId, NodeId, Packet, SimTime, TimerKind};
use elephants_netsim::{SeedableRng, SmallRng};
use elephants_telemetry::{FlightRecord, FlowPoint, QueuePoint, FLIGHT_RECORD_VERSION};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for n in [1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule(
                        SimTime::from_nanos((i * 37) % 1_000_000),
                        Event::Timer {
                            flow: FlowId(i as u32),
                            dir: elephants_netsim::Dir::Sender,
                            kind: TimerKind::Rto,
                            gen: 0,
                        },
                    );
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            })
        });
    }
    g.finish();
}

fn bench_aqm_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("aqm_enqueue_dequeue");
    for kind in [AqmKind::Fifo, AqmKind::Red, AqmKind::FqCodel, AqmKind::Codel] {
        g.throughput(Throughput::Elements(10_000));
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut aqm = build_aqm(kind, 10_000_000, 1_000_000_000, 1500, false, 7);
                let mut rng = SmallRng::seed_from_u64(1);
                let mut now = SimTime::ZERO;
                let mut delivered = 0u64;
                for i in 0..10_000u64 {
                    now += elephants_netsim::SimDuration::from_micros(12);
                    let pkt = Packet::data(FlowId((i % 64) as u32), NodeId(0), NodeId(1), i, 1500, now);
                    aqm.enqueue(pkt, now, &mut rng);
                    if i % 2 == 0
                        && aqm.dequeue(now, &mut rng).pkt.is_some() {
                            delivered += 1;
                        }
                }
                delivered
            })
        });
    }
    g.finish();
}

/// A synthetic record shaped like a 10 s, 20-flow run sampled every
/// 10 ms: 1,000 ticks of 20 flow rows plus one queue row, 21k samples.
fn synthetic_record() -> FlightRecord {
    const PHASES: [&str; 4] = ["probe_bw:1.25", "probe_bw:0.75", "congestion_avoidance", "drain"];
    let mut flow_samples = Vec::new();
    let mut queue_samples = Vec::new();
    for tick in 1..=1_000u64 {
        let t_s = tick as f64 * 0.01;
        for flow in 0..20u32 {
            let cwnd = 14_480 * (1 + (tick * 7 + flow as u64 * 13) % 400);
            flow_samples.push(FlowPoint {
                t_s,
                flow,
                cwnd,
                pacing_bps: (flow % 2 == 0).then_some(cwnd * 8 * 16),
                srtt_s: Some(0.062 + (tick % 17) as f64 * 1e-4),
                inflight: cwnd * 3 / 4,
                phase: PHASES[(tick as usize + flow as usize) % PHASES.len()].to_string(),
                delivered_bytes: tick * 1_250_000 + flow as u64,
                retx: tick / 9,
            });
        }
        queue_samples.push(QueuePoint {
            t_s,
            link: 0,
            backlog_pkts: tick % 300,
            backlog_bytes: (tick % 300) * 1_500,
            dropped: tick / 3,
            marked: 0,
            control: None,
        });
    }
    FlightRecord {
        schema_version: FLIGHT_RECORD_VERSION,
        label: "BBRv1 vs CUBIC, fq_codel, 2 BDP, 1Gbps".into(),
        seed: 1,
        sample_interval_s: 0.01,
        flow_samples,
        queue_samples,
        events: Vec::new(),
        events_truncated: 0,
    }
}

/// The flight-record text codec (untracked): serialize and re-parse the
/// synthetic 21k-sample record.
fn bench_record_codec(c: &mut Criterion) {
    let record = synthetic_record();
    let text = record.to_json_string();
    let mut g = c.benchmark_group("record_codec");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("serialize_21k", |b| b.iter(|| record.to_json_string().len()));
    g.bench_function("parse_21k", |b| {
        b.iter(|| FlightRecord::parse(&text).expect("synthetic record parses").flow_samples.len())
    });
    g.finish();
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    for (name, cca) in [("cubic", CcaKind::Cubic), ("bbr2", CcaKind::BbrV2)] {
        g.bench_function(format!("2s_100mbps_{name}"), |b| {
            let cfg = bench_scenario(cca, CcaKind::Cubic, AqmKind::Fifo, 2.0);
            b.iter(|| Runner::new(&cfg).seed(1).run());
        });
    }
    g.finish();
}

/// The tracked scenarios behind `BENCH_netsim.json`: the paper's 25 Gbps
/// FIFO cell at quick scale (the regression gate's subject), the same
/// cell at the standard preset — Table 2's 500-flow workload at
/// paper-faithful scale — and the 3-hop parking lot exercising the
/// multi-bottleneck path. See `elephants_bench::report`.
fn bench_regression(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(5);
    g.bench_function("25gbps_fifo_quick", |b| {
        let cfg = elephants_bench::regression_scenario();
        b.iter(|| Runner::new(&cfg).seed(1).run());
    });
    g.bench_function("25gbps_fifo_table2", |b| {
        let cfg = elephants_bench::table2_scenario();
        b.iter(|| Runner::new(&cfg).seed(1).run());
    });
    g.bench_function("1gbps_parkinglot3_quick", |b| {
        let cfg = elephants_bench::parkinglot_scenario();
        b.iter(|| Runner::new(&cfg).seed(1).run());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_aqm_hot_path,
    bench_record_codec,
    bench_sim_throughput,
    bench_regression
);

// Hand-rolled main instead of `criterion_main!`: after the benches run, the
// tracked measurements are folded into the BENCH_netsim.json trajectory and
// (when BENCH_GATE=1) the regression gate decides the exit code.
fn main() {
    let mut c = elephants_bench::harness::Criterion::configured_from_args();
    benches(&mut c);
    c.final_summary();
    elephants_bench::report::emit_engine_report(&c);
    if let Err(e) = elephants_bench::report::gate_from_env(&c) {
        eprintln!("bench gate: FAIL: {e}");
        std::process::exit(1);
    }
}
