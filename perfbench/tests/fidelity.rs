//! The traced run must be the program's run: for every CCA × AQM kind, a
//! small recorded and audited cell gives the same RunResult, check report
//! and artifact bytes traced as through `Runner`. A decorator that fails
//! to forward a trait method (`telemetry_probe`, `check_invariants`,
//! `on_mark`, `control_state`, `bw_estimate`, `state_snapshot`, ...) shows
//! up here as a byte difference.

use elephants_experiments::prelude::*;
use elephants_experiments::RunResult;
use elephants_json::ToJson;
use elephants_netsim::{CheckMode, SimDuration};
use perfbench::cell::run_traced;
use perfbench::trace::{self, Layer};
use std::collections::BTreeMap;
use std::path::Path;

const AQMS: [AqmKind; 5] =
    [AqmKind::Fifo, AqmKind::Red, AqmKind::FqCodel, AqmKind::Codel, AqmKind::Pie];

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("record directory exists")
        .map(|e| {
            let e = e.expect("directory entry");
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read"))
        })
        .collect()
}

fn without_path(r: &RunResult) -> String {
    RunResult { record_path: None, ..r.clone() }.to_json_string()
}

#[test]
fn traced_runs_match_runner_for_every_cca_and_aqm() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fidelity");
    let _ = std::fs::remove_dir_all(&root);
    let opts = RunOptions { seed: 3, ..RunOptions::quick() };
    for cca in CcaKind::ALL {
        for aqm in AQMS {
            let cfg = ScenarioConfig::builder(cca, CcaKind::Cubic, aqm, 1.0, 100_000_000, &opts)
                .duration(SimDuration::from_secs(2))
                .start_offset_ms(vec![0, 300])
                .build()
                .expect("valid cell");
            let label = cfg.label();
            let rec = |side: &str| {
                Recording::parse("flows,queue,events")
                    .expect("recording spec")
                    .interval(SimDuration::from_millis(20))
                    .event_capacity(2_000)
                    .out_dir(root.join(format!("{}-{}-{side}", cca.name(), aqm.name())))
            };
            let (plain_rec, traced_rec) = (rec("runner"), rec("traced"));
            let plain = Runner::new(&cfg)
                .seed(cfg.seed)
                .recorder(plain_rec.clone())
                .check(CheckMode::Audit)
                .run()
                .expect("runner");
            trace::reset();
            let traced =
                run_traced(&cfg, cfg.seed, Some(&traced_rec), CheckMode::Audit).expect("traced");
            let t = trace::take();

            assert_eq!(without_path(plain.first()), without_path(&traced.result), "{label}");
            assert_eq!(
                plain.first().metrics().to_json_string(),
                traced.result.metrics().to_json_string(),
                "{label}"
            );
            let report = traced.check.expect("audit report");
            assert_eq!(plain.check_reports[0].to_json_string(), report.to_json_string(), "{label}");
            assert_eq!(report.violations_total, 0, "{label}");
            assert_eq!(files(&plain_rec.out_dir), files(&traced_rec.out_dir), "{label}");

            // Every decorated layer saw traffic, and the books close.
            for layer in [
                Layer::Sender,
                Layer::Receiver,
                Layer::CcaAck,
                Layer::AqmEnqueue,
                Layer::Probe,
                Layer::Sample,
                Layer::Check,
            ] {
                assert!(t.calls(layer) > 0, "{label}: no {} spans", layer.name());
            }
            assert!(t.unclosed_roots().is_empty(), "{label}: {:?}", t.unclosed_roots());
        }
    }
}

#[test]
fn traced_run_without_observers_matches_runner() {
    let opts = RunOptions { seed: 11, ..RunOptions::quick() };
    let cfg = ScenarioConfig::builder(
        CcaKind::BbrV1,
        CcaKind::Cubic,
        AqmKind::Red,
        2.0,
        100_000_000,
        &opts,
    )
    .duration(SimDuration::from_secs(3))
    .build()
    .expect("valid cell");
    let plain = Runner::new(&cfg).seed(cfg.seed).run().expect("runner");
    let traced = run_traced(&cfg, cfg.seed, None, CheckMode::Off).expect("traced");
    assert_eq!(plain.first().to_json_string(), traced.result.to_json_string());
    assert!(traced.check.is_none());
    assert_eq!(traced.counters.record_bytes, 0);
    assert_eq!(traced.counters.events, plain.first().events);
}
