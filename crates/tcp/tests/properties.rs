//! Property-based tests for the TCP machinery (seeded harness).

use elephants_netsim::prop::{run_cases, vec_of, DEFAULT_CASES};
use elephants_netsim::{prop_check, prop_check_eq, RngExt, SimDuration, SimTime, SmallRng};
use elephants_tcp::{PktMeta, PktState, RttEstimator, Scoreboard};

fn meta(t: u64) -> PktMeta {
    PktMeta {
        state: PktState::Outstanding,
        tx_time: SimTime::from_nanos(t),
        retx: false,
        delivered_at_send: 0,
        delivered_time_at_send: SimTime::ZERO,
        first_tx_at_send: SimTime::ZERO,
        app_limited_at_send: false,
    }
}

/// Random scoreboard operations that mirror what the sender does.
#[derive(Debug, Clone)]
enum Op {
    Send(u8),
    CumAck(u8),
    Sack { lo: u8, len: u8 },
    DetectLosses,
    RetxOne,
    MarkAllLost,
    Revert,
}

fn gen_ops(rng: &mut SmallRng) -> Vec<Op> {
    vec_of(rng, 1, 200, |r| {
        // Weights mirror the old proptest strategy: 4:2:2:1:1:1:1.
        match r.random_range(0u32..12) {
            0..=3 => Op::Send(r.random_range(1u8..8)),
            4..=5 => Op::CumAck(r.random_range(1u8..8)),
            6..=7 => Op::Sack { lo: r.random_range(0u8..40), len: r.random_range(1u8..6) },
            8 => Op::DetectLosses,
            9 => Op::RetxOne,
            10 => Op::MarkAllLost,
            _ => Op::Revert,
        }
    })
}

/// Conservation: every tracked segment is in exactly one state, SACKs
/// are idempotent, cumulative ACKs only move forward.
#[test]
fn scoreboard_conservation() {
    run_cases("scoreboard_conservation", DEFAULT_CASES, |rng| {
        let ops = gen_ops(rng);
        let mut sb = Scoreboard::new();
        let mut t = 0u64;
        for op in &ops {
            match *op {
                Op::Send(n) => {
                    for _ in 0..n {
                        t += 1;
                        let seq = sb.snd_nxt();
                        sb.push_sent(seq, meta(t));
                    }
                }
                Op::CumAck(n) => {
                    let target = (sb.snd_una() + n as u64).min(sb.snd_nxt());
                    let mut prev = None;
                    sb.advance_una(target, |seq, _| {
                        if let Some(p) = prev {
                            assert_eq!(seq, p + 1, "cum ack must visit in order");
                        }
                        prev = Some(seq);
                    });
                    prop_check_eq!(sb.snd_una(), target);
                }
                Op::Sack { lo, len } => {
                    let s = sb.snd_una() + lo as u64;
                    let e = s + len as u64;
                    let before = sb.sacked_count();
                    let mut newly = 0;
                    sb.apply_sack(s, e, |_, _| newly += 1);
                    prop_check_eq!(sb.sacked_count(), before + newly);
                    // Idempotent.
                    let mut again = 0;
                    sb.apply_sack(s, e, |_, _| again += 1);
                    prop_check_eq!(again, 0);
                }
                Op::DetectLosses => {
                    sb.detect_losses(3, |_| {});
                }
                Op::RetxOne => {
                    if let Some(seq) = sb.next_lost() {
                        t += 1;
                        sb.mark_retransmitted(seq, meta(t));
                        prop_check!(sb.get(seq).unwrap().retx);
                    }
                }
                Op::MarkAllLost => sb.mark_all_lost(),
                Op::Revert => {
                    sb.revert_lost_to_outstanding();
                    prop_check_eq!(sb.lost_pending(), 0);
                }
            }
            prop_check!(sb.check_conservation(), "state counters drifted");
            prop_check!(sb.snd_una() <= sb.snd_nxt());
            prop_check!(
                sb.inflight_segments() as usize + sb.lost_pending() + sb.sacked_count() <= sb.len()
            );
        }
        Ok(())
    });
}

/// The RTO estimator never returns less than the minimum or more than
/// the maximum, and is monotone under backoff.
#[test]
fn rto_bounds() {
    run_cases("rto_bounds", DEFAULT_CASES, |rng| {
        let samples = vec_of(rng, 1, 100, |r| r.random_range(1u64..5_000));
        let backoffs = rng.random_range(0u32..20);
        let mut e = RttEstimator::new();
        for &ms in &samples {
            e.on_sample(SimDuration::from_millis(ms));
            prop_check!(e.rto() >= elephants_tcp::MIN_RTO);
            prop_check!(e.rto() <= elephants_tcp::MAX_RTO);
            let srtt = e.srtt().unwrap();
            prop_check!(e.rto() >= srtt, "RTO must exceed SRTT");
        }
        let mut prev = e.rto();
        for _ in 0..backoffs {
            e.backoff();
            prop_check!(e.rto() >= prev);
            prev = e.rto();
        }
        Ok(())
    });
}

/// SRTT stays within the convex hull of its samples.
#[test]
fn srtt_bounded_by_samples() {
    run_cases("srtt_bounded_by_samples", DEFAULT_CASES, |rng| {
        let samples = vec_of(rng, 1, 200, |r| r.random_range(1u64..10_000));
        let mut e = RttEstimator::new();
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &ms in &samples {
            lo = lo.min(ms);
            hi = hi.max(ms);
            e.on_sample(SimDuration::from_millis(ms));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        prop_check!(
            srtt >= lo as f64 - 1.0 && srtt <= hi as f64 + 1.0,
            "srtt {srtt} outside [{lo},{hi}]"
        );
        prop_check_eq!(e.min_rtt().unwrap(), SimDuration::from_millis(lo));
        Ok(())
    });
}

/// Rate samples never exceed the true send/ack rate envelope.
#[test]
fn rate_sample_honest() {
    run_cases("rate_sample_honest", DEFAULT_CASES, |rng| {
        let delivered_delta = rng.random_range(1u64..10_000_000);
        let snd_us = rng.random_range(1u64..1_000_000);
        let ack_us = rng.random_range(1u64..1_000_000);
        let t0 = SimTime::ZERO;
        let rate = elephants_tcp::rate::delivery_rate_bps(
            delivered_delta,
            0,
            t0 + SimDuration::from_micros(snd_us),
            t0,
            t0 + SimDuration::from_micros(snd_us + ack_us),
            t0 + SimDuration::from_micros(snd_us),
        )
        .unwrap();
        // Max of both intervals: rate is at most delta/max(snd,ack).
        let max_int = snd_us.max(ack_us) as f64 / 1e6;
        let ceiling = delivered_delta as f64 * 8.0 / max_int;
        prop_check!(rate as f64 <= ceiling * 1.001, "rate {rate} over ceiling {ceiling}");
        Ok(())
    });
}

/// Reference model of [`Scoreboard`], written from its doc comments with
/// no cleverness: a flat `Vec` indexed by `seq - base`, every query a full
/// scan from the front. The differential property below holds the real
/// scoreboard to it op for op.
#[derive(Debug, Default)]
struct NaiveScoreboard {
    base: u64,
    entries: Vec<PktMeta>,
    highest_sacked: Option<u64>,
}

impl NaiveScoreboard {
    fn snd_nxt(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    fn push_sent(&mut self, meta: PktMeta) {
        self.entries.push(meta);
    }

    /// Remove every segment below `new_una`, in order; stale ACKs are no-ops
    /// and ACKs past `snd_nxt` stop at `snd_nxt`.
    fn advance_una(&mut self, new_una: u64) -> Vec<(u64, PktState)> {
        let n = new_una.saturating_sub(self.base).min(self.entries.len() as u64) as usize;
        let removed: Vec<_> =
            self.entries.drain(..n).enumerate().map(|(i, m)| (self.base + i as u64, m.state)).collect();
        self.base += n as u64;
        removed
    }

    /// Mark every tracked segment in `[start, end)` Sacked; report the
    /// ones that were not Sacked already.
    fn apply_sack(&mut self, start: u64, end: u64) -> Vec<(u64, PktState)> {
        let (lo, hi) = (start.max(self.base), end.min(self.snd_nxt()));
        let mut newly = vec![];
        for seq in lo..hi {
            let m = &mut self.entries[(seq - self.base) as usize];
            if m.state != PktState::Sacked {
                m.state = PktState::Sacked;
                newly.push((seq, m.state));
            }
        }
        if hi > lo {
            self.highest_sacked = Some(self.highest_sacked.map_or(hi - 1, |h| h.max(hi - 1)));
        }
        newly
    }

    /// FACK: every Outstanding segment more than `max(dupthresh, 1)`
    /// below the highest SACK becomes Lost.
    fn detect_losses(&mut self, dupthresh: u64) -> Vec<u64> {
        let Some(hs) = self.highest_sacked else { return vec![] };
        let cutoff = hs.saturating_sub(dupthresh.max(1) - 1);
        let mut lost = vec![];
        for (i, m) in self.entries.iter_mut().enumerate() {
            let seq = self.base + i as u64;
            if seq < cutoff && m.state == PktState::Outstanding {
                m.state = PktState::Lost;
                lost.push(seq);
            }
        }
        lost
    }

    fn next_lost(&self) -> Option<u64> {
        let idx = self.entries.iter().position(|m| m.state == PktState::Lost)?;
        Some(self.base + idx as u64)
    }

    fn mark_retransmitted(&mut self, seq: u64, fresh: PktMeta) {
        let m = &mut self.entries[(seq - self.base) as usize];
        assert_eq!(m.state, PktState::Lost);
        *m = PktMeta { state: PktState::LostRetx, retx: true, ..fresh };
    }

    fn mark_all_lost(&mut self) {
        for m in &mut self.entries {
            if matches!(m.state, PktState::Outstanding | PktState::LostRetx) {
                m.state = PktState::Lost;
            }
        }
    }

    fn revert_lost_to_outstanding(&mut self) -> usize {
        let mut reverted = 0;
        for m in &mut self.entries {
            if m.state == PktState::Lost {
                m.state = PktState::Outstanding;
                reverted += 1;
            }
        }
        reverted
    }

    fn first_inflight_tx_time(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .find(|m| matches!(m.state, PktState::Outstanding | PktState::LostRetx))
            .map(|m| m.tx_time)
    }

    fn state_counts(&self) -> (usize, usize, usize, usize) {
        let count = |st| self.entries.iter().filter(|m| m.state == st).count();
        (
            count(PktState::Outstanding),
            count(PktState::Sacked),
            count(PktState::Lost),
            count(PktState::LostRetx),
        )
    }
}

/// A per-op transmission stamp distinct in every rate-sampler field, so a
/// retransmission that updated the wrong segment shows up in `get`.
fn stamp(t: u64) -> PktMeta {
    PktMeta { delivered_at_send: t, ..meta(t) }
}

/// Differential: random push / cumulative-ACK / SACK / loss-detection /
/// retransmission / RTO / revert sequences drive the real scoreboard and
/// the naive reference model in lockstep. After every op the callback
/// lists, every query and every tracked segment must agree.
#[test]
fn scoreboard_matches_naive_reference() {
    run_cases("scoreboard_matches_naive_reference", DEFAULT_CASES, |rng| {
        let mut sb = Scoreboard::new();
        let mut naive = NaiveScoreboard::default();
        let mut t = 0u64;
        let ops = rng.random_range(1usize..300);
        for op in 0..ops {
            let kind = rng.random_range(0u32..16);
            match kind {
                0..=3 => {
                    for _ in 0..rng.random_range(1u64..12) {
                        t += 1;
                        sb.push_sent(sb.snd_nxt(), meta(t));
                        naive.push_sent(meta(t));
                    }
                }
                4 | 5 => {
                    // Anywhere from a stale ACK below snd_una to past snd_nxt.
                    let target = rng.random_range(0..sb.snd_nxt() + 4);
                    let mut got = vec![];
                    sb.advance_una(target, |seq, m| got.push((seq, m.state)));
                    prop_check_eq!(got, naive.advance_una(target), "advance_una({target}) at op {op}");
                }
                6..=8 => {
                    // Ranges may start below snd_una, end past snd_nxt, or be empty.
                    let lo = rng.random_range(0..sb.snd_nxt() + 4);
                    let hi = lo + rng.random_range(0u64..8);
                    let mut got = vec![];
                    sb.apply_sack(lo, hi, |seq, m| got.push((seq, m.state)));
                    prop_check_eq!(got, naive.apply_sack(lo, hi), "apply_sack({lo},{hi}) at op {op}");
                }
                9 | 10 => {
                    let dupthresh = rng.random_range(0u64..5);
                    let mut got = vec![];
                    let n = sb.detect_losses(dupthresh, |seq| got.push(seq));
                    prop_check_eq!(n, got.len() as u64);
                    prop_check_eq!(got, naive.detect_losses(dupthresh), "detect_losses({dupthresh}) at op {op}");
                }
                11 | 12 => {
                    for _ in 0..rng.random_range(1u32..4) {
                        let seq = sb.next_lost();
                        prop_check_eq!(seq, naive.next_lost(), "next_lost at op {op}");
                        let Some(seq) = seq else { break };
                        t += 1;
                        sb.mark_retransmitted(seq, stamp(t));
                        naive.mark_retransmitted(seq, stamp(t));
                    }
                }
                13 => {
                    sb.mark_all_lost();
                    naive.mark_all_lost();
                }
                14 => {
                    prop_check_eq!(sb.revert_lost_to_outstanding(), naive.revert_lost_to_outstanding());
                }
                _ => {
                    // A whole spurious-RTO episode: RTO, a few retransmissions,
                    // the F-RTO revert, then a SACK landing on the reverted run.
                    sb.mark_all_lost();
                    naive.mark_all_lost();
                    for _ in 0..rng.random_range(0u32..3) {
                        if let Some(seq) = naive.next_lost() {
                            prop_check_eq!(sb.next_lost(), Some(seq));
                            t += 1;
                            sb.mark_retransmitted(seq, stamp(t));
                            naive.mark_retransmitted(seq, stamp(t));
                        }
                    }
                    prop_check_eq!(sb.revert_lost_to_outstanding(), naive.revert_lost_to_outstanding());
                    let lo = sb.snd_una() + rng.random_range(0u64..8);
                    let hi = lo + rng.random_range(1u64..4);
                    let mut got = vec![];
                    sb.apply_sack(lo, hi, |seq, m| got.push((seq, m.state)));
                    prop_check_eq!(got, naive.apply_sack(lo, hi));
                }
            }
            prop_check_eq!(sb.snd_una(), naive.base, "snd_una after op {op} (kind {kind})");
            prop_check_eq!(sb.snd_nxt(), naive.snd_nxt());
            prop_check_eq!(sb.state_counts(), naive.state_counts(), "state_counts after op {op} (kind {kind})");
            prop_check_eq!(sb.highest_sacked(), naive.highest_sacked);
            prop_check_eq!(
                sb.first_inflight_tx_time(),
                naive.first_inflight_tx_time(),
                "first_inflight_tx_time after op {op} (kind {kind})"
            );
            prop_check_eq!(sb.next_lost(), naive.next_lost(), "next_lost after op {op} (kind {kind})");
            for (i, want) in naive.entries.iter().enumerate() {
                let seq = naive.base + i as u64;
                let got = sb.get(seq).expect("tracked segment");
                prop_check_eq!(
                    (got.state, got.tx_time, got.retx, got.delivered_at_send),
                    (want.state, want.tx_time, want.retx, want.delivered_at_send),
                    "segment {seq} after op {op} (kind {kind})"
                );
            }
        }
        Ok(())
    });
}
