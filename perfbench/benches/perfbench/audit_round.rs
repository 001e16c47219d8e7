//! `audit-round`: one client runs audit rounds back to back, rotating
//! over pairing `BackendContract`s on one chain.
//!
//! One round is five blocking steps: the block that fires `Chal`,
//! `AuditBackend::prove` over the stored bytes, the proof frame through
//! `Frame::to_wire`/`from_wire`, the `prove` transaction, and the block
//! that fires `Verify` and emits the verdict event.

use std::collections::BTreeMap;

use dsaudit_backend::{AuditBackend, BackendProof, PairingBackend, ProverKit};
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, gwei, Address, Block, Transaction, TxKind, TxStatus, Wei};
use dsaudit_contract::{BackendAgreement, BackendContract};
use dsaudit_core::codec::Codec;
use dsaudit_core::{AuditParams, PRIVATE_PROOF_BYTES};
use dsaudit_node::frame::ProofFrame;
use dsaudit_node::Frame;
use dsaudit_obs::Snapshot;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use dsaudit_perfbench::runner::{UnitRun, Workload};
use dsaudit_perfbench::stats::{Outcome, Tally};
use dsaudit_perfbench::trace::Tracer;

/// Contracts the rounds rotate over.
const CONTRACTS: usize = 8;
/// How many of them hold wiped bytes; every round against them must
/// reject.
const WIPED: usize = 2;
/// Size of each audited file.
const FILE_BYTES: usize = 1 << 20;
/// Paper's verification cost, metered as a fixed figure so gas is exact.
const NOMINAL_VERIFY_MS: f64 = 7.2;
/// Seconds between one contract's rounds; the whole rotation fits
/// inside it, so each `Chal` block fires exactly one contract.
const INTERVAL_SECS: u64 = 86_400;
/// Response window of a round.
const DEADLINE_SECS: u64 = 600;
/// Chain-time gap between consecutive contracts' challenges.
const STAGGER_SECS: u64 = 2_000;

/// Gas of one settled round: the `Chal` trigger, the 288-byte `prove`
/// transaction and the `Verify` trigger at the nominal verify cost.
pub const EXPECTED_GAS_PER_ROUND: u64 = 588_488;
/// Bytes of the three blocks of one round.
pub const EXPECTED_CHAIN_BYTES_PER_ROUND: usize = 654;

struct Deployed {
    contract: Address,
    provider: Address,
    kit: ProverKit,
    stored: Vec<u8>,
    intact: bool,
    next_chal: u64,
    round: u64,
}

/// State built by set-up: the chain and the contract rotation.
pub struct AuditRound {
    chain: Blockchain,
    backend: PairingBackend,
    fleet: Vec<Deployed>,
    rng: StdRng,
    next: usize,
    rounds: u64,
    gas: u64,
    chain_bytes: u64,
}

fn call(from: Address, to: Address, method: &str, data: Vec<u8>, value: Wei) -> Transaction {
    Transaction {
        from,
        to,
        value,
        kind: TxKind::Call {
            method: method.into(),
            data,
        },
    }
}

/// The single event of `name` that `contract` emitted in `block`.
fn event<'a>(block: &'a Block, contract: Address, name: &str) -> Option<&'a [u8]> {
    block
        .txs
        .iter()
        .flat_map(|(_, r)| &r.logs)
        .find(|e| e.contract == contract && e.name == name)
        .map(|e| e.data.as_slice())
}

impl AuditRound {
    /// Runs contract `i`'s next round; `Ok` carries whether it passed.
    fn round(&mut self, i: usize, tr: &mut Tracer) -> Result<bool, &'static str> {
        let d = &mut self.fleet[i];
        let chain = &mut self.chain;

        // 1. the block that fires this contract's challenge
        chain.advance_time(d.next_chal.saturating_sub(chain.now));
        let beacon = tr
            .time("chain.challenge_block", || {
                let b = chain.mine_block();
                event(b, d.contract, "challenged")
                    .filter(|_| b.txs.len() == 1)
                    .and_then(|data| <[u8; 48]>::try_from(data).ok())
            })
            .ok_or("the Chal block did not challenge exactly this contract")?;

        // 2. prove over the bytes the provider actually stores
        let proof = tr
            .time("backend.prove", || {
                self.backend
                    .prove(&mut self.rng, &d.kit, &d.stored, &beacon)
            })
            .map_err(|_| "prove failed")?;
        if proof.bytes.len() != PRIVATE_PROOF_BYTES {
            return Err("proof is not 288 bytes");
        }

        // 3. the proof frame through the node wire codec
        let frame = Frame::Proof(ProofFrame {
            challenge_id: [i as u8; 32],
            round: d.round,
            proof,
        });
        let decoded = tr.time("node.frame_codec", || Frame::from_wire(&frame.to_wire()));
        let proof: BackendProof = match decoded {
            Ok(Frame::Proof(f)) if Frame::Proof(f.clone()) == frame => f.proof,
            _ => return Err("proof frame did not survive the wire"),
        };

        // 4. the prove transaction
        let posted = tr.time("chain.prove_tx", || {
            chain.submit(call(d.provider, d.contract, "prove", proof.encode(), 0));
            let b = chain.mine_block();
            b.txs.len() == 1
                && b.txs[0].1.status == TxStatus::Success
                && event(b, d.contract, "proofposted").is_some()
        });
        if !posted {
            return Err("prove transaction reverted");
        }

        // 5. the block that fires Verify and settles the round
        chain.advance_time(DEADLINE_SECS);
        tr.time("contract.verify_block", || {
            let b = chain.mine_block();
            d.next_chal = b.timestamp + INTERVAL_SECS;
            match (event(b, d.contract, "pass"), event(b, d.contract, "fail")) {
                (Some(_), None) => Ok(true),
                (None, Some(_)) => Ok(false),
                _ => Err("the Verify block settled no verdict"),
            }
        })
    }
}

impl Workload for AuditRound {
    const NAME: &'static str = "audit-round";
    const OP: &'static str = "round";
    const MIN_UNITS: usize = 200;

    fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa0d1_7000);
        let mut beacon_seed = b"perfbench/audit-round/".to_vec();
        beacon_seed.extend_from_slice(&seed.to_le_bytes());
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(&beacon_seed)));
        let backend = PairingBackend::new(AuditParams::default());
        let reward = gwei(1_000);
        let rounds_cap = 1_000_000;
        let fleet = (0..CONTRACTS)
            .map(|i| {
                let mut data = vec![0u8; FILE_BYTES];
                rng.fill_bytes(&mut data);
                let setup = backend.setup(&mut rng, &data).expect("pairing setup");
                let owner = Address::from_label(&format!("perfbench/owner-{i}"));
                let provider = Address::from_label(&format!("perfbench/provider-{i}"));
                let deposit = reward * Wei::from(rounds_cap);
                chain.fund_account(owner, deposit + eth(1));
                chain.fund_account(provider, deposit + eth(1));
                let terms = BackendAgreement {
                    owner,
                    provider,
                    num_audits: rounds_cap,
                    interval_secs: INTERVAL_SECS,
                    deadline_secs: DEADLINE_SECS,
                    reward,
                    penalty: reward,
                    owner_deposit: deposit,
                    provider_deposit: deposit,
                };
                let contract = BackendContract::new(Box::new(backend), setup.commitment, terms)
                    .expect("commitment matches backend")
                    .with_nominal_verify_ms(NOMINAL_VERIFY_MS);
                let addr = chain.deploy(&format!("perfbench/contract-{i}"), Box::new(contract));
                chain.submit(call(owner, addr, "freeze", Vec::new(), deposit));
                chain.submit(call(provider, addr, "freeze", Vec::new(), deposit));
                let b = chain.mine_block();
                assert!(
                    b.txs.iter().all(|(_, r)| r.status == TxStatus::Success),
                    "deposits must lock"
                );
                let next_chal = b.timestamp + INTERVAL_SECS;
                chain.advance_time(STAGGER_SECS);
                let intact = i >= WIPED;
                Deployed {
                    contract: addr,
                    provider,
                    kit: setup.kit,
                    stored: if intact { data } else { vec![0u8; FILE_BYTES] },
                    intact,
                    next_chal,
                    round: 0,
                }
            })
            .collect();
        Self {
            chain,
            backend,
            fleet,
            rng,
            next: 0,
            rounds: 0,
            gas: 0,
            chain_bytes: 0,
        }
    }

    fn unit(&mut self, tr: &mut Tracer, tally: &mut Tally) -> UnitRun {
        let i = self.next;
        self.next = (self.next + 1) % self.fleet.len();
        let mark = self.chain.block_count();
        let t0 = std::time::Instant::now();
        let root = tr.begin("round");
        let settled = self.round(i, tr);
        tr.end(root);
        let elapsed = t0.elapsed().as_secs_f64();

        let gas = self.chain.gas_used_since(mark);
        let bytes = self.chain.bytes_since(mark);
        self.rounds += 1;
        self.gas += gas;
        self.chain_bytes += bytes as u64;
        let d = &mut self.fleet[i];
        d.round += 1;
        let result = settled.map_err(str::to_owned).and_then(|accepted| {
            if gas != EXPECTED_GAS_PER_ROUND {
                Err(format!("used {gas} gas, expected {EXPECTED_GAS_PER_ROUND}"))
            } else if bytes != EXPECTED_CHAIN_BYTES_PER_ROUND {
                Err(format!(
                    "put {bytes} bytes on chain, expected {EXPECTED_CHAIN_BYTES_PER_ROUND}"
                ))
            } else {
                Ok(accepted)
            }
        });
        let outcome = match result {
            Ok(accepted) => Outcome::of_verdict(accepted, d.intact),
            Err(_) => Outcome::Error,
        };
        tally.record(outcome, || {
            let what = match result {
                Ok(accepted) => format!("accepted = {accepted}, data intact = {}", d.intact),
                Err(e) => e,
            };
            format!("contract {i} round {}: {what}", d.round)
        });
        UnitRun::timed(1.0, elapsed)
    }

    fn layer_counts(&self, _snap: &Snapshot, out: &mut BTreeMap<&'static str, f64>) {
        let rounds = self.rounds.max(1) as f64;
        out.insert("chain.gas_per_round", self.gas as f64 / rounds);
        out.insert("chain.bytes_per_round", self.chain_bytes as f64 / rounds);
    }
}
