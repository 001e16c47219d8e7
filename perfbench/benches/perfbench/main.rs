//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo bench --offline --manifest-path perfbench/Cargo.toml --bench perfbench -- \
//!     --workload <audit-round|upload|network-sim|node-lossy> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up from the seed, runs it in a closed loop for the
//! given time, checks every operation's outcome, and prints as its last
//! stdout line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run alternates untraced and traced units and the
//! metrics are the per-layer ones. See `README.md` beside this crate.

use std::process::ExitCode;

use dsaudit_perfbench::runner::{parse_args, run, Workload, USAGE};

mod audit_round;
mod network_sim;
mod node_lossy;
mod upload;

use audit_round::AuditRound;
use network_sim::NetworkSim;
use node_lossy::NodeLossy;
use upload::Upload;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        AuditRound::NAME => run::<AuditRound>(&args),
        Upload::NAME => run::<Upload>(&args),
        NetworkSim::NAME => run::<NetworkSim>(&args),
        NodeLossy::NAME => run::<NodeLossy>(&args),
        other => {
            eprintln!("perfbench: workload `{other}` has no implementation");
            ExitCode::from(2)
        }
    }
}
