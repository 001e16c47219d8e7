//! The backend-generic audit contract: the Fig. 2 lifecycle over any
//! [`AuditBackend`], selected per contract at deployment.
//!
//! Where [`crate::AuditContract`] is the paper's pairing protocol in
//! full (negotiation, micro-payments, disputes, batch verdicts), this
//! contract is the *scheme-agnostic* round loop: it decodes and
//! validates an erased [`Commitment`] once at deployment into the
//! backend's [`CommitmentVerifier`], decodes an erased [`BackendProof`]
//! at `prove` time, and lets the prepared verifier decide the verdict
//! at every `Verify` trigger.
//! Several contracts with *different* backends coexist on one chain —
//! backend choice is a term of the storage agreement, not a property
//! of the chain.
//!
//! Verdict contract, enforced here: wire problems (garbage calldata,
//! a proof tagged for another backend) revert the `prove` transaction
//! with [`VmError::BadCalldata`] and never reach verdict logic; only a
//! well-formed proof that fails its backend's check settles the round
//! as a failure. A commitment that does not decode or validate fails
//! the deployment, so no contract exists that could never verify.

use dsaudit_backend::{AuditBackend, BackendId, BackendProof, Commitment, CommitmentVerifier};
use dsaudit_chain::gas::GasSchedule;
use dsaudit_chain::runtime::{CallEnv, ContractBehavior, VmError};
use dsaudit_chain::types::{Address, Wei};
use dsaudit_core::codec::Codec;

/// Phases (subset of Fig. 2 — negotiation collapsed, as in the
/// baseline [`crate::MerkleAuditContract`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendPhase {
    /// Awaiting both deposits.
    Freeze,
    /// Between rounds.
    Audit,
    /// Challenge open.
    Prove,
    /// Finished.
    Completed,
}

/// Economic terms of a backend-generic contract.
#[derive(Clone, Copy, Debug)]
pub struct BackendAgreement {
    /// Data owner account.
    pub owner: Address,
    /// Storage provider account.
    pub provider: Address,
    /// Number of audit rounds.
    pub num_audits: u64,
    /// Seconds between rounds.
    pub interval_secs: u64,
    /// Response window in seconds.
    pub deadline_secs: u64,
    /// Per-round reward to the provider.
    pub reward: Wei,
    /// Per-failure compensation to the owner.
    pub penalty: Wei,
    /// Owner's locked deposit.
    pub owner_deposit: Wei,
    /// Provider's locked deposit.
    pub provider_deposit: Wei,
}

/// The backend-generic audit contract state.
pub struct BackendContract {
    /// The scheme this contract verifies with: the id byte of the
    /// commitment it was deployed over.
    backend: BackendId,
    /// The commitment, decoded and validated at deployment.
    verifier: Box<dyn CommitmentVerifier>,
    terms: BackendAgreement,
    phase: BackendPhase,
    cnt: u64,
    owner_in: bool,
    provider_in: bool,
    owner_pool: Wei,
    provider_pool: Wei,
    challenge_rand: Option<[u8; 48]>,
    pending: Option<BackendProof>,
    /// When set, verification is metered at this fixed cost in
    /// milliseconds instead of the wall clock — the simulator uses it
    /// to keep gas totals reproducible across runs and machines.
    pub nominal_verify_ms: Option<f64>,
    /// Bytes of proof material persisted on chain so far.
    pub onchain_proof_bytes: usize,
    /// Gas this contract itself has metered (storage + verification),
    /// for per-backend head-to-head reporting.
    pub metered_gas: u64,
    /// Rounds settled as passed.
    pub rounds_passed: u64,
    /// Rounds settled as failed (bad proof or timeout).
    pub rounds_failed: u64,
}

impl BackendContract {
    /// Creates the contract over an erased commitment, preparing the
    /// backend's verifier from it once.
    ///
    /// # Errors
    /// [`VmError::BadCalldata`] if the commitment's backend id does not
    /// match the supplied backend, or its payload does not decode or
    /// validate — a deployment-time bug that must not produce a
    /// contract that can never verify.
    pub fn new(
        backend: Box<dyn AuditBackend>,
        commitment: Commitment,
        terms: BackendAgreement,
    ) -> Result<Self, VmError> {
        let verifier = backend
            .verifier(&commitment)
            .map_err(|e| VmError::BadCalldata(format!("commitment rejected at deployment: {e}")))?;
        Ok(Self {
            backend: backend.id(),
            verifier,
            terms,
            phase: BackendPhase::Freeze,
            cnt: 0,
            owner_in: false,
            provider_in: false,
            owner_pool: 0,
            provider_pool: 0,
            challenge_rand: None,
            pending: None,
            nominal_verify_ms: None,
            onchain_proof_bytes: 0,
            metered_gas: 0,
            rounds_passed: 0,
            rounds_failed: 0,
        })
    }

    /// Fixes the metered verification cost (deterministic-gas mode).
    #[must_use]
    pub fn with_nominal_verify_ms(mut self, ms: f64) -> Self {
        self.nominal_verify_ms = Some(ms);
        self
    }

    /// Current phase.
    pub fn phase(&self) -> BackendPhase {
        self.phase
    }

    /// The backend this contract verifies with.
    pub fn backend_id(&self) -> BackendId {
        self.backend
    }

    fn charge(&mut self, env: &mut CallEnv, gas: u64) {
        self.metered_gas += gas;
        dsaudit_obs::counter_add("contract.gas", gas);
        dsaudit_obs::counter_add(self.gas_metric(), gas);
        env.charge_gas(gas);
    }

    /// Obs counter name for this contract's per-backend gas total
    /// (static strings so the metered path never formats).
    fn gas_metric(&self) -> &'static str {
        match self.backend {
            BackendId::Pairing => "contract.gas.pairing",
            BackendId::Merkle => "contract.gas.merkle",
            BackendId::Groth16Merkle => "contract.gas.groth16",
        }
    }

    /// Obs counter name for this contract's per-backend proof bytes.
    fn proof_bytes_metric(&self) -> &'static str {
        match self.backend {
            BackendId::Pairing => "contract.proof_bytes.pairing",
            BackendId::Merkle => "contract.proof_bytes.merkle",
            BackendId::Groth16Merkle => "contract.proof_bytes.groth16",
        }
    }

    /// Obs counter name for settled rounds, split by outcome.
    fn round_metric(&self, passed: bool) -> &'static str {
        match (self.backend, passed) {
            (BackendId::Pairing, true) => "contract.rounds_passed.pairing",
            (BackendId::Pairing, false) => "contract.rounds_failed.pairing",
            (BackendId::Merkle, true) => "contract.rounds_passed.merkle",
            (BackendId::Merkle, false) => "contract.rounds_failed.merkle",
            (BackendId::Groth16Merkle, true) => "contract.rounds_passed.groth16",
            (BackendId::Groth16Merkle, false) => "contract.rounds_failed.groth16",
        }
    }

    fn settle(&mut self, env: &mut CallEnv, passed: bool) {
        let _span = dsaudit_obs::span("contract.settle");
        dsaudit_obs::counter_inc(self.round_metric(passed));
        if passed {
            let reward = self.terms.reward.min(self.owner_pool);
            self.owner_pool -= reward;
            env.pay(self.terms.provider, reward);
            self.rounds_passed += 1;
            env.emit("pass", self.cnt.to_le_bytes().to_vec());
        } else {
            let penalty = self.terms.penalty.min(self.provider_pool);
            self.provider_pool -= penalty;
            env.pay(self.terms.owner, penalty);
            self.rounds_failed += 1;
            env.emit("fail", self.cnt.to_le_bytes().to_vec());
        }
        // cumulative metering snapshot: off-chain harnesses (the
        // simulator's head-to-head lanes) read per-contract gas and
        // proof-byte totals from the event log instead of needing
        // access to contract state
        let mut metered = self.metered_gas.to_le_bytes().to_vec();
        metered.extend_from_slice(&(self.onchain_proof_bytes as u64).to_le_bytes());
        env.emit("metered", metered);
        self.cnt += 1;
        self.challenge_rand = None;
        self.pending = None;
        if self.cnt >= self.terms.num_audits {
            if self.owner_pool > 0 {
                env.pay(self.terms.owner, self.owner_pool);
                self.owner_pool = 0;
            }
            if self.provider_pool > 0 {
                env.pay(self.terms.provider, self.provider_pool);
                self.provider_pool = 0;
            }
            self.phase = BackendPhase::Completed;
            env.emit("completed", Vec::new());
        } else {
            self.phase = BackendPhase::Audit;
            env.schedule(env.now + self.terms.interval_secs, "Chal");
        }
    }
}

impl ContractBehavior for BackendContract {
    fn execute(&mut self, env: &mut CallEnv, method: &str, data: &[u8]) -> Result<(), VmError> {
        match method {
            "freeze" => {
                if self.phase != BackendPhase::Freeze {
                    return Err(VmError::BadState("not in freeze".into()));
                }
                if env.caller == self.terms.owner && !self.owner_in {
                    if env.value != self.terms.owner_deposit {
                        return Err(VmError::BadValue("owner deposit".into()));
                    }
                    self.owner_in = true;
                    self.owner_pool = env.value;
                } else if env.caller == self.terms.provider && !self.provider_in {
                    if env.value != self.terms.provider_deposit {
                        return Err(VmError::BadValue("provider deposit".into()));
                    }
                    self.provider_in = true;
                    self.provider_pool = env.value;
                } else {
                    return Err(VmError::Unauthorized);
                }
                if self.owner_in && self.provider_in {
                    self.phase = BackendPhase::Audit;
                    env.emit("inited", vec![self.backend.as_u8()]);
                    env.schedule(env.now + self.terms.interval_secs, "Chal");
                }
                Ok(())
            }
            "prove" => {
                if self.phase != BackendPhase::Prove {
                    return Err(VmError::BadState("no open challenge".into()));
                }
                if env.caller != self.terms.provider {
                    return Err(VmError::Unauthorized);
                }
                // decode failures (garbage, unknown backend id, forged
                // length) revert the transaction — a wire problem is
                // never a verdict
                let proof = BackendProof::decode(data)
                    .map_err(|e| VmError::BadCalldata(e.to_string()))?;
                if proof.backend != self.backend {
                    return Err(VmError::BadCalldata(format!(
                        "proof is for backend `{}`, contract speaks `{}`",
                        proof.backend, self.backend
                    )));
                }
                self.onchain_proof_bytes += data.len();
                dsaudit_obs::counter_add("contract.proof_bytes", data.len() as u64);
                dsaudit_obs::counter_add(self.proof_bytes_metric(), data.len() as u64);
                let gas = GasSchedule::default().storage_gas(data.len() + 48);
                self.charge(env, gas);
                self.pending = Some(proof);
                env.emit("proofposted", self.cnt.to_le_bytes().to_vec());
                Ok(())
            }
            other => Err(VmError::UnknownMethod(other.into())),
        }
    }

    fn on_trigger(&mut self, env: &mut CallEnv, tag: &str) -> Result<(), VmError> {
        match tag {
            "Chal" => {
                if self.phase != BackendPhase::Audit {
                    return Err(VmError::BadState("not auditing".into()));
                }
                self.challenge_rand = Some(env.beacon);
                self.phase = BackendPhase::Prove;
                env.emit("challenged", env.beacon.to_vec());
                env.schedule(env.now + self.terms.deadline_secs, "Verify");
                Ok(())
            }
            "Verify" => {
                if self.phase != BackendPhase::Prove {
                    return Err(VmError::BadState("no round".into()));
                }
                let Some(rand) = self.challenge_rand else {
                    return Err(VmError::BadState("prove phase without challenge".into()));
                };
                let passed = match self.pending.take() {
                    Some(proof) => {
                        let t0 = std::time::Instant::now();
                        // the commitment was validated at deployment,
                        // so an error here is a proof payload that
                        // framed correctly but does not decode
                        let verdict = self
                            .verifier
                            .verify(&rand, &proof)
                            .map_err(|e| VmError::BadState(e.to_string()))?;
                        let ms = self
                            .nominal_verify_ms
                            .unwrap_or_else(|| t0.elapsed().as_secs_f64() * 1e3);
                        let gas = GasSchedule::default().compute_gas(ms);
                        self.charge(env, gas);
                        verdict.accepted()
                    }
                    None => {
                        env.emit("timeout", self.cnt.to_le_bytes().to_vec());
                        false
                    }
                };
                self.settle(env, passed);
                Ok(())
            }
            other => Err(VmError::UnknownMethod(other.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsaudit_backend::{
        backend_for, BackendId, Groth16MerkleBackend, MerkleBackend, PairingBackend,
    };
    use dsaudit_chain::beacon::TrustedBeacon;
    use dsaudit_chain::chain::Blockchain;
    use dsaudit_chain::types::{eth, gwei, Transaction, TxKind, TxStatus};
    use dsaudit_core::AuditParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_backend(id: BackendId) -> Box<dyn AuditBackend> {
        match id {
            BackendId::Pairing => Box::new(PairingBackend::new(
                AuditParams::new(4, 3).expect("valid"),
            )),
            BackendId::Merkle => Box::new(MerkleBackend { leaf_size: 32, k: 3 }),
            BackendId::Groth16Merkle => Box::new(Groth16MerkleBackend { batch: 2 }),
        }
    }

    fn terms(owner: Address, provider: Address, num_audits: u64) -> BackendAgreement {
        BackendAgreement {
            owner,
            provider,
            num_audits,
            interval_secs: 3600,
            deadline_secs: 600,
            reward: gwei(1_000_000),
            penalty: gwei(1_000_000),
            owner_deposit: gwei(2_000_000),
            provider_deposit: gwei(2_000_000),
        }
    }

    fn call_tx(from: Address, to: Address, method: &str, data: Vec<u8>, value: Wei) -> Transaction {
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

    struct Deployed {
        contract: Address,
        provider: Address,
        kit: dsaudit_backend::ProverKit,
        id: BackendId,
    }

    /// Deploys one BackendContract per id on the SAME chain and locks
    /// both deposits — the mixed-backend-chain scenario of the issue.
    fn deploy_fleet(chain: &mut Blockchain, data: &[u8], num_audits: u64) -> Vec<Deployed> {
        let mut rng = StdRng::seed_from_u64(0xbac0);
        BackendId::ALL
            .into_iter()
            .map(|id| {
                let backend = small_backend(id);
                let setup = backend.setup(&mut rng, data).expect("setup");
                let owner = Address::from_label(&format!("{id}/owner"));
                let provider = Address::from_label(&format!("{id}/provider"));
                chain.fund_account(owner, eth(1));
                chain.fund_account(provider, eth(1));
                let contract = BackendContract::new(
                    backend,
                    setup.commitment,
                    terms(owner, provider, num_audits),
                )
                .expect("ids match");
                let addr = chain.deploy(&format!("backend/{id}"), Box::new(contract));
                for who in [owner, provider] {
                    chain.submit(call_tx(who, addr, "freeze", Vec::new(), gwei(2_000_000)));
                    let b = chain.mine_block();
                    assert_eq!(b.txs[0].1.status, TxStatus::Success);
                }
                Deployed {
                    contract: addr,
                    provider,
                    kit: setup.kit,
                    id,
                }
            })
            .collect()
    }

    fn latest_beacon(chain: &Blockchain, contract: Address) -> Option<[u8; 48]> {
        chain
            .all_events()
            .into_iter()
            .rev()
            .find(|e| e.contract == contract && e.name == "challenged")
            .map(|e| e.data.as_slice().try_into().expect("48 bytes"))
    }

    fn verdict_counts(chain: &Blockchain, contract: Address) -> (usize, usize) {
        let events = chain.all_events();
        let count = |name: &str| {
            events
                .iter()
                .filter(|e| e.contract == contract && e.name == name)
                .count()
        };
        (count("pass"), count("fail"))
    }

    #[test]
    fn mixed_backends_share_one_chain_and_all_pass() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-ct")));
        let data: Vec<u8> = (0..1024).map(|i| (i % 247) as u8).collect();
        let fleet = deploy_fleet(&mut chain, &data, 2);
        let mut rng = StdRng::seed_from_u64(0x50a1);
        for _ in 0..2 {
            chain.advance_time(3601);
            chain.mine_block();
            for d in &fleet {
                let beacon = latest_beacon(&chain, d.contract).expect("challenged");
                let backend = small_backend(d.id);
                let proof = backend
                    .prove(&mut rng, &d.kit, &data, &beacon)
                    .expect("prove");
                chain.submit(call_tx(d.provider, d.contract, "prove", proof.encode(), 0));
                let b = chain.mine_block();
                assert_eq!(
                    b.txs[0].1.status,
                    TxStatus::Success,
                    "{}: {:?}",
                    d.id,
                    b.txs[0].1.revert_reason
                );
            }
            chain.advance_time(601);
            chain.mine_block();
        }
        for d in &fleet {
            assert_eq!(
                verdict_counts(&chain, d.contract),
                (2, 0),
                "backend `{}` must pass both rounds",
                d.id
            );
        }
    }

    #[test]
    fn corrupted_store_fails_round_on_every_backend() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-corrupt")));
        let data: Vec<u8> = (0..1024).map(|i| (i % 247) as u8).collect();
        let fleet = deploy_fleet(&mut chain, &data, 1);
        // flip a bit in every 31-byte window so each backend's
        // challenged unit hits damage regardless of leaf geometry
        let mut bad = data.clone();
        for i in (0..bad.len()).step_by(31) {
            bad[i] ^= 0x08;
        }
        let mut rng = StdRng::seed_from_u64(0x50a2);
        chain.advance_time(3601);
        chain.mine_block();
        for d in &fleet {
            let beacon = latest_beacon(&chain, d.contract).expect("challenged");
            let proof = small_backend(d.id)
                .prove(&mut rng, &d.kit, &bad, &beacon)
                .expect("prove");
            chain.submit(call_tx(d.provider, d.contract, "prove", proof.encode(), 0));
            let b = chain.mine_block();
            assert_eq!(b.txs[0].1.status, TxStatus::Success);
        }
        chain.advance_time(601);
        chain.mine_block();
        for d in &fleet {
            assert_eq!(
                verdict_counts(&chain, d.contract),
                (0, 1),
                "backend `{}` must fail the corrupted round",
                d.id
            );
        }
    }

    #[test]
    fn wire_problems_revert_and_never_settle() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-wire")));
        let data = vec![5u8; 512];
        let fleet = deploy_fleet(&mut chain, &data, 1);
        let pairing = &fleet[0];
        assert_eq!(pairing.id, BackendId::Pairing);
        chain.advance_time(3601);
        chain.mine_block();
        let beacon = latest_beacon(&chain, pairing.contract).expect("challenged");

        // garbage calldata
        chain.submit(call_tx(pairing.provider, pairing.contract, "prove", vec![0xff; 3], 0));
        let b = chain.mine_block();
        assert!(matches!(b.txs[0].1.status, TxStatus::Reverted));

        // a well-formed proof for the WRONG backend
        let merkle = &fleet[1];
        let mut rng = StdRng::seed_from_u64(0x50a3);
        let foreign = small_backend(merkle.id)
            .prove(&mut rng, &merkle.kit, &data, &beacon)
            .expect("prove");
        chain.submit(call_tx(
            pairing.provider,
            pairing.contract,
            "prove",
            foreign.encode(),
            0,
        ));
        let b = chain.mine_block();
        assert!(matches!(b.txs[0].1.status, TxStatus::Reverted));

        // no verdict has been settled by either revert
        assert_eq!(verdict_counts(&chain, pairing.contract), (0, 0));

        // the silent round times out and settles as a failure — the
        // timeout, not the malformed bytes, is what costs the provider
        chain.advance_time(601);
        chain.mine_block();
        assert_eq!(verdict_counts(&chain, pairing.contract), (0, 1));
        let timeouts = chain
            .all_events()
            .iter()
            .filter(|e| e.contract == pairing.contract && e.name == "timeout")
            .count();
        assert_eq!(timeouts, 1);
    }

    #[test]
    fn undecodable_commitment_is_a_deploy_error() {
        let mut rng = StdRng::seed_from_u64(0x50a5);
        let setup = small_backend(BackendId::Pairing)
            .setup(&mut rng, &[2u8; 300])
            .expect("setup");
        let owner = Address::from_label("bad/owner");
        let provider = Address::from_label("bad/provider");
        let truncated = setup.commitment.bytes[..setup.commitment.bytes.len() - 1].to_vec();
        // the right id byte over a payload that does not decode: the
        // deployment fails, no contract exists to fail at `Verify`
        for bytes in [vec![0xa5; 40], truncated] {
            let commitment = Commitment {
                backend: BackendId::Pairing,
                bytes,
            };
            assert!(matches!(
                BackendContract::new(
                    small_backend(BackendId::Pairing),
                    commitment,
                    terms(owner, provider, 1),
                ),
                Err(VmError::BadCalldata(_))
            ));
        }
    }

    #[test]
    fn commitment_backend_mismatch_is_a_deploy_error() {
        let mut rng = StdRng::seed_from_u64(0x50a4);
        let setup = backend_for(BackendId::Merkle)
            .setup(&mut rng, &[1u8; 64])
            .expect("setup");
        let owner = Address::from_label("mm/owner");
        let provider = Address::from_label("mm/provider");
        assert!(BackendContract::new(
            backend_for(BackendId::Pairing),
            setup.commitment,
            terms(owner, provider, 1),
        )
        .is_err());
    }
}
