//! `node-lossy`: the auditor and provider daemons' soak over the
//! baseline, lossy and partitioned fault schedules, with one provider
//! holding corrupted data.
//!
//! Everything runs on a virtual clock, so fault counts are exact and
//! wall time is pure host cost. Each unit is one soak from a seed
//! derived from the run's seed.

use std::collections::BTreeMap;

use dsaudit_node::{run_soak, SoakConfig, SoakReport};
use dsaudit_obs::Snapshot;

use dsaudit_perfbench::runner::{UnitRun, Workload};
use dsaudit_perfbench::stats::Tally;
use dsaudit_perfbench::trace::Tracer;

/// Sessions per soak, split evenly over the three schedules.
const SESSIONS: u32 = 168;
/// Sessions of each warm-up soak in set-up.
const WARMUP_SESSIONS: u32 = 24;

/// State: the seed the units derive theirs from, and totals of the
/// reports seen so far.
#[derive(Default)]
pub struct NodeLossy {
    seed: u64,
    soaks: u64,
    sessions: u64,
    settled: u64,
    retries: u64,
    sheds: u64,
    expired: u64,
    corrupt_frames: u64,
    late_proofs: u64,
    proofs_resent: u64,
    virtual_ms: u64,
}

fn soak(seed: u64, sessions: u32) -> SoakReport {
    run_soak(&SoakConfig {
        seed,
        sessions,
        ..SoakConfig::default()
    })
}

impl NodeLossy {
    fn absorb(&mut self, r: &SoakReport) {
        self.soaks += 1;
        self.sessions += r.total_sessions();
        for s in &r.schedules {
            self.settled += s.settled_accept + s.settled_reject;
            self.retries += s.retries;
            self.sheds += s.overloaded;
            self.expired += s.expired;
            self.corrupt_frames += s.corrupt_frames;
            self.late_proofs += s.late_proofs;
            self.proofs_resent += s.proofs_resent;
            self.virtual_ms += s.virtual_ms;
        }
    }
}

impl Workload for NodeLossy {
    const NAME: &'static str = "node-lossy";
    const OP: &'static str = "session";
    const ATTRIBUTED_OBS: &'static [&'static str] = &["node.schedule"];

    fn setup(seed: u64) -> Self {
        // a small soak builds the lazily cached tables and warms the
        // provider set-up path before timing starts
        let warm = soak(seed ^ 0x5e7u64, WARMUP_SESSIONS);
        assert!(warm.ok(), "warm-up soak broke the lifecycle invariant");
        Self {
            seed,
            ..Self::default()
        }
    }

    fn unit(&mut self, tr: &mut Tracer, tally: &mut Tally) -> UnitRun {
        let seed = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.soaks;
        let t0 = std::time::Instant::now();
        let report = tr.time("node.soak", || soak(seed, SESSIONS));
        let elapsed = t0.elapsed().as_secs_f64();
        // every session must end in exactly one of Settled(Accept),
        // Settled(Reject) or Expired; expiry is the lifecycle's answer
        // to a partitioned or unresponsive provider
        let rejects = report.schedules.iter().map(|s| s.settled_reject).sum();
        tally.record_batch(report.total_sessions(), rejects);
        let violations = report.violations();
        tally.fail_many(
            violations.len() as u64,
            0,
            format!("soak seed {seed:#x}: {}", violations.join("; ")),
        );
        self.absorb(&report);
        UnitRun::timed(report.total_sessions() as f64, elapsed)
    }

    fn layer_counts(&self, snap: &Snapshot, out: &mut BTreeMap<&'static str, f64>) {
        let soaks = self.soaks.max(1) as f64;
        out.insert("node.retries", self.retries as f64 / soaks);
        out.insert("node.sheds", self.sheds as f64 / soaks);
        out.insert("node.expired", self.expired as f64 / soaks);
        out.insert("node.corrupt_frames", self.corrupt_frames as f64 / soaks);
        out.insert("node.late_proofs", self.late_proofs as f64 / soaks);
        out.insert("node.proofs_resent", self.proofs_resent as f64 / soaks);
        out.insert("node.virtual_ms", self.virtual_ms as f64 / soaks);
        // proofs sent, resends included, counted by the providers in
        // the traced units; settled sessions of the same units
        let sent =
            snap.counter("node.provider.proofs_sent") + snap.counter("node.provider.proofs_resent");
        let settled = snap.counter("node.session.settled_accept")
            + snap.counter("node.session.settled_reject");
        if sent > 0 {
            out.insert("node.useful_proof_ratio", settled as f64 / sent as f64);
        }
    }
}
