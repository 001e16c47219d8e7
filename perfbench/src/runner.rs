//! The runner: drives a [`Workload`] in a closed loop, alternating
//! untraced and traced units when asked, and turns what it measured
//! into the end-to-end or per-layer metrics and the result line.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dsaudit_obs::{Registry, Snapshot};

use crate::host::{self, Host};
use crate::stats::{self, Tally};
use crate::trace::{self, Tracer};

/// What one timed unit of a workload did.
pub struct UnitRun {
    /// Operations completed (rounds, megabytes, settled rounds or
    /// sessions, depending on the workload).
    pub ops: f64,
    /// Seconds of the unit's timed phase.
    pub timed_s: f64,
    /// Seconds of set-up the unit did before its timed phase, for
    /// workloads whose every unit builds fresh state; these then replace
    /// the [`Workload::setup`] times as the run's set-up samples.
    pub setup_s: Option<f64>,
}

impl UnitRun {
    /// A unit without a set-up phase of its own.
    pub fn timed(ops: f64, timed_s: f64) -> Self {
        Self {
            ops,
            timed_s,
            setup_s: None,
        }
    }
}

/// A closed-loop workload: set up once, then run units back to back.
pub trait Workload: Sized {
    /// Name on the command line.
    const NAME: &'static str;
    /// What one operation is, for the log.
    const OP: &'static str;
    /// Fewest untraced units a run measures, whatever its time budget.
    const MIN_UNITS: usize = 1;
    /// In-program obs spans that together cover the timed phase, when
    /// the benchmark's own spans do not.
    const ATTRIBUTED_OBS: &'static [&'static str] = &[];

    /// Builds the state the timed phase needs from the seed alone.
    fn setup(seed: u64) -> Self;

    /// Runs one unit, wrapping each public call in a span of `tr` and
    /// recording every operation's outcome in `tally`.
    fn unit(&mut self, tr: &mut Tracer, tally: &mut Tally) -> UnitRun;

    /// Exact per-layer counts the workload gathered itself.
    fn layer_counts(&self, snap: &Snapshot, out: &mut BTreeMap<&'static str, f64>);
}

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not reach reads 0. Every time is per workload operation.
const PER_LAYER: &[(&str, &str)] = &[
    ("round.residual_ms", "ms"),
    ("chain.challenge_block_ms", "ms"),
    ("backend.prove_ms", "ms"),
    ("node.frame_codec_us", "us"),
    ("chain.prove_tx_ms", "ms"),
    ("contract.verify_block_ms", "ms"),
    ("core.keygen_ms", "ms"),
    ("core.encode_ms", "ms"),
    ("core.tag_ms", "ms"),
    ("core.ingest_ms", "ms"),
    ("contract.deploy_ms", "ms"),
    ("upload.residual_ms", "ms"),
    ("core.prove_private_ms", "ms"),
    ("core.verify_private_ms", "ms"),
    ("core.compute_chi_ms", "ms"),
    ("crypto.challenge_expand_ms", "ms"),
    ("core.chi_cache_hit_ratio", "ratio"),
    ("algebra.msm_ms", "ms"),
    ("algebra.msm_calls", "count"),
    ("algebra.msm_points", "count"),
    ("algebra.miller_loop_ms", "ms"),
    ("algebra.final_exp_ms", "ms"),
    ("algebra.pairing_terms", "count"),
    ("contract.gas", "gas"),
    ("contract.proof_bytes", "B"),
    ("chain.gas_per_round", "gas"),
    ("chain.bytes_per_round", "B"),
    ("sim.epoch_ms", "ms"),
    ("sim.repairs", "count"),
    ("sim.migrations", "count"),
    ("sim.repair_bytes", "B"),
    ("sim.transport_retries", "count"),
    ("sim.faults_detected", "count"),
    ("node.retries", "count"),
    ("node.sheds", "count"),
    ("node.expired", "count"),
    ("node.corrupt_frames", "count"),
    ("node.late_proofs", "count"),
    ("node.proofs_resent", "count"),
    ("node.virtual_ms", "ms"),
    ("node.useful_proof_ratio", "ratio"),
    ("check.false_verdicts", "count"),
    ("check.failed_frac", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.residual_pct", "%"),
    ("host.fq_mul_ns", "ns"),
    ("host.nproc", "count"),
];

/// Span name (the benchmark's own, or in-program obs) → per-layer
/// metric and the nanoseconds in one of its units.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("round", "round.residual_ms", 1e6),
    ("chain.challenge_block", "chain.challenge_block_ms", 1e6),
    ("backend.prove", "backend.prove_ms", 1e6),
    ("node.frame_codec", "node.frame_codec_us", 1e3),
    ("chain.prove_tx", "chain.prove_tx_ms", 1e6),
    ("contract.verify_block", "contract.verify_block_ms", 1e6),
    ("core.keygen", "core.keygen_ms", 1e6),
    ("core.encode", "core.encode_ms", 1e6),
    ("core.tag", "core.tag_ms", 1e6),
    ("core.ingest", "core.ingest_ms", 1e6),
    ("contract.deploy", "contract.deploy_ms", 1e6),
    ("upload", "upload.residual_ms", 1e6),
    ("core.prove_private", "core.prove_private_ms", 1e6),
    ("core.verify_private", "core.verify_private_ms", 1e6),
    ("core.compute_chi", "core.compute_chi_ms", 1e6),
    ("core.challenge_expand", "crypto.challenge_expand_ms", 1e6),
    ("algebra.msm", "algebra.msm_ms", 1e6),
    ("algebra.miller_loop", "algebra.miller_loop_ms", 1e6),
    ("algebra.final_exp", "algebra.final_exp_ms", 1e6),
    ("sim.epoch", "sim.epoch_ms", 1e6),
];

/// Seconds between calibration bursts.
const CALIBRATE_EVERY_S: f64 = 0.5;

/// Set-ups per untraced run; the median is reported.
const SETUP_REPEATS: usize = 5;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["audit-round", "upload", "network-sim", "node-lossy"];

/// Usage line for bad arguments.
pub const USAGE: &str = "usage: perfbench --workload <audit-round|upload|network-sim|node-lossy> \
                         --seed <n> --seconds <s> --trace <0|1>";

/// A parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`, in any
/// order. A lone `--bench`, which `cargo bench` appends, is ignored.
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let argv: Vec<String> = argv.into_iter().filter(|a| a != "--bench").collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                flags.insert(k, v);
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let seconds: u32 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload: workload.to_owned(),
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: f64::from(seconds),
        trace,
    })
}

/// Timings of one kind of unit (traced or untraced).
#[derive(Default)]
struct Phase {
    units: usize,
    ops: f64,
    timed_s: f64,
    ms_per_op: Vec<f64>,
}

impl Phase {
    fn record_unit(&mut self, ops: f64, timed_s: f64) {
        self.units += 1;
        self.ops += ops;
        self.timed_s += timed_s;
        if ops > 0.0 {
            self.ms_per_op.push(timed_s * 1e3 / ops);
        }
    }

    fn s_per_op(&self) -> f64 {
        self.timed_s / self.ops.max(f64::MIN_POSITIVE)
    }
}

/// Everything a run measured.
struct Measured {
    host: Host,
    setup_s: Vec<f64>,
    plain: Phase,
    traced: Phase,
    tracer: Tracer,
    snapshot: Snapshot,
    counts: BTreeMap<&'static str, f64>,
    tally: Tally,
}

fn measure<W: Workload>(args: &Args) -> Measured {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(W::setup(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one set-up");

    let registry = Arc::new(Registry::new_wall());
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let min_plain = if args.trace { 1 } else { W::MIN_UNITS };
    let mut unit_setup_s = Vec::new();
    let mut calibration = vec![host::fq_mul_ns()];
    let mut last_calibration = Instant::now();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds
        || plain.units < min_plain
        || (args.trace && traced.units == 0)
    {
        // a traced run alternates untraced and traced units, so both
        // see the same box conditions
        let on = args.trace && i % 2 == 1;
        if on {
            dsaudit_obs::install(Arc::clone(&registry));
        }
        tracer.set_enabled(on);
        let u = w.unit(&mut tracer, &mut tally);
        tracer.set_enabled(false);
        if on {
            dsaudit_obs::uninstall();
        }
        unit_setup_s.extend(u.setup_s);
        if on { &mut traced } else { &mut plain }.record_unit(u.ops, u.timed_s);
        i += 1;
        // calibration bursts between units, so the host block describes
        // the box while the run measured it
        if last_calibration.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S {
            calibration.push(host::fq_mul_ns());
            last_calibration = Instant::now();
        }
    }
    if !unit_setup_s.is_empty() {
        setup_s = unit_setup_s;
    }
    let snapshot = registry.snapshot();
    let host = Host::probe(&calibration);
    let mut counts = BTreeMap::new();
    w.layer_counts(&snapshot, &mut counts);
    Measured {
        host,
        setup_s,
        plain,
        traced,
        tracer,
        snapshot,
        counts,
        tally,
    }
}

fn end_to_end(m: &Measured) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("setup_s", stats::median(&m.setup_s).unwrap_or(0.0));
    out.insert(
        "op_ms_p50",
        stats::median(&m.plain.ms_per_op).unwrap_or(0.0),
    );
    out.insert("ops_per_s", 1.0 / m.plain.s_per_op());
    out.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    out
}

fn per_layer<W: Workload>(m: &Measured) -> BTreeMap<&'static str, f64> {
    let ops = m.traced.ops.max(f64::MIN_POSITIVE);
    let bench = trace::self_times(m.tracer.spans());
    let obs = trace::obs_span_totals(&m.snapshot);
    let mut out = m.counts.clone();
    for &(span, metric, ns_per_unit) in SPAN_METRICS {
        let ns = bench
            .get(span)
            .map(|t| t.self_ns)
            .or_else(|| obs.get(span).map(|t| t.self_ns));
        if let Some(ns) = ns {
            out.insert(metric, ns as f64 / ns_per_unit / ops);
        }
    }
    let snap = &m.snapshot;
    let per_op = |n: u64| n as f64 / ops;
    out.insert(
        "algebra.msm_calls",
        per_op(snap.counter("algebra.msm_calls")),
    );
    out.insert(
        "algebra.msm_points",
        per_op(trace::obs_histogram_sum(snap, "algebra.msm_points")),
    );
    out.insert(
        "algebra.pairing_terms",
        per_op(trace::obs_histogram_sum(snap, "algebra.pairing_terms")),
    );
    out.insert("contract.gas", per_op(snap.counter("contract.gas")));
    out.insert(
        "contract.proof_bytes",
        per_op(snap.counter("contract.proof_bytes")),
    );
    let (hits, misses) = (
        snap.counter("core.cache.chi.hits"),
        snap.counter("core.cache.chi.misses"),
    );
    if hits + misses > 0 {
        out.insert(
            "core.chi_cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }

    out.insert("check.false_verdicts", m.tally.false_verdicts as f64);
    out.insert("check.failed_frac", m.tally.failed_frac());
    out.insert(
        "obs.trace_overhead_pct",
        (m.traced.s_per_op() / m.plain.s_per_op() - 1.0) * 100.0,
    );
    // the share of the traced units' time that no span accounts for
    let traced_ns = m.traced.timed_s * 1e9;
    let spans = m.tracer.spans();
    let root_names: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.name)
        .collect();
    let root_self: u64 = root_names.iter().map(|n| bench[n].self_ns).sum();
    let attributed = (trace::root_ns(spans) - root_self) as f64
        + W::ATTRIBUTED_OBS
            .iter()
            .filter_map(|n| obs.get(*n))
            .map(|t| t.self_ns as f64)
            .sum::<f64>();
    out.insert(
        "trace.residual_pct",
        (traced_ns - attributed) / traced_ns * 100.0,
    );
    out.insert("host.fq_mul_ns", m.host.fq_mul_ns);
    out.insert("host.nproc", m.host.nproc as f64);
    out
}

/// The workload's headline figures under the names its documentation
/// uses, for the run's log.
fn log_summary<W: Workload>(m: &Measured) {
    let e2e = end_to_end(m);
    eprintln!("workload {} ({} per op)", W::NAME, W::OP);
    eprintln!(
        "  units {} untraced / {} traced, ops {} untraced",
        m.plain.units, m.traced.units, m.plain.ops
    );
    eprintln!(
        "  setup_s          {:.4} (median of {})",
        e2e["setup_s"],
        m.setup_s.len()
    );
    eprintln!(
        "  op_ms p50        {:.4} (n = {})",
        e2e["op_ms_p50"],
        m.plain.ms_per_op.len()
    );
    match stats::tail(&m.plain.ms_per_op, 0.95) {
        Some(p95) => eprintln!("  op_ms p95        {p95:.4}"),
        None => eprintln!("  op_ms p95        n/a (fewer than 200 samples)"),
    }
    eprintln!("  ops_per_s        {:.4}", e2e["ops_per_s"]);
    for (k, v) in &m.counts {
        eprintln!("  {k:<16} {v:.4}");
    }
    eprintln!(
        "  attempted {}, failed {} (failed_frac {:.6}), false verdicts {}, correct rejects {}",
        m.tally.attempted,
        m.tally.failed,
        m.tally.failed_frac(),
        m.tally.false_verdicts,
        m.tally.correct_rejects
    );
    for note in &m.tally.notes {
        eprintln!("  FAILED: {note}");
    }
}

fn metrics_json(values: &BTreeMap<&'static str, f64>, table: &[(&str, &str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs workload `W` as `args` asks, prints the host block and the
/// result line, and returns the exit code (1 when a check failed).
pub fn run<W: Workload>(args: &Args) -> ExitCode {
    let m = measure::<W>(args);
    log_summary::<W>(&m);
    let correct = m.tally.all_correct();
    let metrics = match (correct, args.trace) {
        // a run whose checks fail gives no numbers
        (false, _) => "{}".to_owned(),
        (true, false) => metrics_json(&end_to_end(&m), END_TO_END),
        (true, true) => metrics_json(&per_layer::<W>(&m), PER_LAYER),
    };
    println!("{}", m.host.to_json());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        m.tally.attempted, m.tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, one entry per line.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json = benchmark_json();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\"")));
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_line_takes_the_four_flags_in_any_order() {
        let want = Args {
            workload: "upload".into(),
            seed: 7,
            seconds: 10.0,
            trace: true,
        };
        assert_eq!(
            args("--workload upload --seed 7 --seconds 10 --trace 1"),
            Ok(want)
        );
        let a = args("--trace 0 --seconds 3 --seed 1 --workload node-lossy --bench").unwrap();
        assert_eq!((a.workload.as_str(), a.trace), ("node-lossy", false));
        for bad in [
            "--workload upload --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload upload --seed x --seconds 10 --trace 0",
            "--workload upload --seed 7 --seconds 0 --trace 0",
            "--workload upload --seed 7 --seconds 10 --trace 2",
            "--workload upload --seed 7 --seconds 10 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_span_metric_is_a_per_layer_metric() {
        for (_, metric, _) in SPAN_METRICS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn metrics_render_in_table_order_with_missing_as_zero() {
        let mut v = BTreeMap::new();
        v.insert("ops_per_s", 2.5);
        v.insert("setup_s", f64::NAN);
        let table = [
            ("setup_s", "s"),
            ("ops_per_s", "1/s"),
            ("peak_rss_mb", "MB"),
        ];
        assert_eq!(
            metrics_json(&v, &table),
            "{\"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}, \
             \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}}"
        );
    }

    #[test]
    fn phase_reports_per_op_cost() {
        let mut p = Phase::default();
        p.record_unit(2.0, 0.1);
        p.record_unit(0.0, 0.5);
        p.record_unit(4.0, 0.4);
        assert_eq!(p.units, 3);
        assert_eq!(p.ms_per_op, [50.0, 100.0]);
        assert!((p.s_per_op() - 1.0 / 6.0).abs() < 1e-12);
    }
}
