//! `network-sim`: the whole-network simulator at CI scale: 32
//! providers, 4 owners, 3-of-6 erasure coding and 4 auditor shards,
//! with the default churn and faults, lossy transport included.
//!
//! Each unit builds a fresh `Simulation` (its set-up) from a seed
//! derived from the run's seed, then times `run`.

use std::collections::BTreeMap;
use std::time::Instant;

use dsaudit_obs::Snapshot;
use dsaudit_sim::{SimConfig, SimReport, Simulation};

use dsaudit_perfbench::runner::{UnitRun, Workload};
use dsaudit_perfbench::stats::Tally;
use dsaudit_perfbench::trace::Tracer;

/// Epochs per simulation.
const EPOCHS: u32 = 20;

/// State: the seed the units derive theirs from, and totals of the
/// reports seen so far.
pub struct NetworkSim {
    seed: u64,
    sims: u64,
    audits: u64,
    epoch_gas: u64,
    epoch_bytes: u64,
    repairs: u64,
    migrations: u64,
    repair_bytes: u64,
    transport_retries: u64,
    faults_detected: u64,
}

/// The simulator configuration of one unit.
pub fn config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        epochs: EPOCHS,
        providers: 32,
        owners: 4,
        erasure_k: 3,
        erasure_n: 6,
        shards: 4,
        ..SimConfig::default()
    }
}

impl NetworkSim {
    fn absorb(&mut self, r: &SimReport) {
        self.sims += 1;
        self.audits += r.audits;
        self.epoch_gas += r.per_epoch.iter().map(|e| e.gas).sum::<u64>();
        self.epoch_bytes += r
            .per_epoch
            .iter()
            .map(|e| e.chain_bytes as u64)
            .sum::<u64>();
        self.repairs += r.repairs;
        self.migrations += r.migrations;
        self.repair_bytes += r.repair_traffic_bytes;
        self.transport_retries += r.transport_retries;
        self.faults_detected += r.detected_faults;
    }
}

impl Workload for NetworkSim {
    const NAME: &'static str = "network-sim";
    const OP: &'static str = "settled round";
    const ATTRIBUTED_OBS: &'static [&'static str] = &["sim.epoch"];

    fn setup(seed: u64) -> Self {
        Self {
            seed,
            sims: 0,
            audits: 0,
            epoch_gas: 0,
            epoch_bytes: 0,
            repairs: 0,
            migrations: 0,
            repair_bytes: 0,
            transport_retries: 0,
            faults_detected: 0,
        }
    }

    fn unit(&mut self, tr: &mut Tracer, tally: &mut Tally) -> UnitRun {
        let seed = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.sims;
        let t0 = Instant::now();
        let sim = Simulation::new(config(seed));
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let report = tr.time("sim.run", || sim.run());
        let timed_s = t1.elapsed().as_secs_f64();

        let wrong = report.false_accepts + report.false_rejects + report.transport_false_rejects;
        tally.record_batch(
            report.audits,
            report.failures.saturating_sub(report.false_rejects),
        );
        tally.fail_many(
            wrong,
            report.false_accepts + report.false_rejects,
            format!(
                "sim seed {seed:#x}: {} false accepts, {} false rejects, {} transport false rejects",
                report.false_accepts, report.false_rejects, report.transport_false_rejects
            ),
        );
        self.absorb(&report);
        UnitRun {
            ops: report.audits as f64,
            timed_s,
            setup_s: Some(setup_s),
        }
    }

    fn layer_counts(&self, _snap: &Snapshot, out: &mut BTreeMap<&'static str, f64>) {
        let rounds = self.audits.max(1) as f64;
        let sims = self.sims.max(1) as f64;
        out.insert("chain.gas_per_round", self.epoch_gas as f64 / rounds);
        out.insert("chain.bytes_per_round", self.epoch_bytes as f64 / rounds);
        out.insert("sim.repairs", self.repairs as f64 / sims);
        out.insert("sim.migrations", self.migrations as f64 / sims);
        out.insert("sim.repair_bytes", self.repair_bytes as f64 / sims);
        out.insert(
            "sim.transport_retries",
            self.transport_retries as f64 / sims,
        );
        out.insert("sim.faults_detected", self.faults_detected as f64 / sims);
    }
}
