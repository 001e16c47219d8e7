//! The audit contract of Fig. 2, over any [`AuditBackend`] selected per
//! contract at deployment.
//!
//! Lifecycle (states match the figure; negotiation is folded into
//! deployment):
//!
//! ```text
//! deploy(D, commitment)                             Freeze
//!   Freeze --freeze(D) + freeze(S)--> Audit         (broadcast "inited")
//!   Freeze --reject(S)--> Aborted                   (owner deposit refunded)
//!   Audit  --trigger "Chal"--> Prove                (broadcast "challenged")
//!   Prove  --prove(S)--> Prove                      (broadcast "proofposted")
//!   Prove  --trigger "Verify"--> Audit | Completed  ("pass"/"fail" + payment)
//!   Prove  --trigger "Verify"--> AwaitVerdict       (batched mode, proof posted)
//!   AwaitVerdict --verdict(auditor) | trigger "VerdictTimeout"--> Audit | Completed
//!   Audit  --migrate(D) + takeover(S')--> Audit     (provider re-homed)
//! ```
//!
//! Deploying with the commitment is the owner's `negotiate`: the
//! contract decodes and validates it once into the backend's
//! [`CommitmentVerifier`], and checks the economic terms. The
//! provider's deposit is its `acked`; until it deposits it may `reject`
//! instead. On `pass` the provider earns the per-round reward from the
//! owner's deposit; on `fail` (bad proof **or** timeout) the owner is
//! paid the penalty from the provider's deposit. When the round counter
//! reaches the agreed number the remaining deposits are released.
//!
//! Every challenge ends in exactly one terminal verdict. Wire problems
//! (garbage calldata, a proof for another backend, a payload that does
//! not decode) revert the `prove` transaction with
//! [`VmError::BadCalldata`], so the provider may resubmit before the
//! deadline; a proof that is admitted is always judged, and any error
//! the verifier still reports settles the round as a failure. A
//! commitment that does not decode or validate fails the deployment,
//! so no contract exists that could never verify. Several contracts
//! with *different* backends coexist on one chain: backend choice is a
//! term of the storage agreement, not a property of the chain.

use dsaudit_backend::{AuditBackend, BackendId, BackendProof, Commitment, CommitmentVerifier};
use dsaudit_chain::gas::GasSchedule;
use dsaudit_chain::runtime::{CallEnv, ContractBehavior, VmError};
use dsaudit_chain::types::{Address, Wei};
use dsaudit_core::codec::Codec;

/// Contract phase (the `st` variable of Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendPhase {
    /// Deployed, awaiting both deposits.
    Freeze,
    /// Between rounds; the next `Chal` trigger is scheduled.
    Audit,
    /// Challenge open; waiting for the proof and the `Verify` trigger.
    Prove,
    /// Batched mode only: proof posted and deadline reached, waiting for
    /// the round's shared batch verdict from the designated auditor.
    AwaitVerdict,
    /// All rounds done; deposits released.
    Completed,
    /// The provider rejected the agreement before depositing.
    Aborted,
}

/// Economic terms of an audit contract (the `agrmts` of Fig. 2).
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
    /// Owner's locked deposit (must cover all rewards).
    pub owner_deposit: Wei,
    /// Provider's locked deposit (must cover all penalties).
    pub provider_deposit: Wei,
}

impl BackendAgreement {
    /// Validates the economic consistency of the terms.
    ///
    /// # Errors
    /// [`VmError::BadValue`] for terms whose deposits cannot cover the
    /// promised flows, or that schedule no audit at all.
    pub fn validate(&self) -> Result<(), VmError> {
        let rounds = Wei::from(self.num_audits);
        if self.owner_deposit < self.reward.saturating_mul(rounds) {
            return Err(VmError::BadValue("owner deposit cannot cover all rewards".into()));
        }
        if self.provider_deposit < self.penalty.saturating_mul(rounds) {
            return Err(VmError::BadValue("provider deposit cannot cover all penalties".into()));
        }
        if self.num_audits == 0 {
            return Err(VmError::BadValue("need at least one audit".into()));
        }
        Ok(())
    }
}

/// The audit contract state.
pub struct BackendContract {
    /// The scheme this contract verifies with.
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
    /// Batched-verification mode (§VII-D): when set, the `Verify`
    /// trigger defers a posted proof to this address, which settles a
    /// whole round of contracts with one batch check and posts each
    /// contract's verdict. `None` verifies per contract.
    batch_auditor: Option<Address>,
    /// Provider migration in flight: the owner named this address as
    /// the share's next holder; it becomes the provider once it posts
    /// the takeover deposit.
    pending_migration: Option<Address>,
    /// When set, verification is metered at this fixed cost in
    /// milliseconds instead of the wall clock — the simulator uses it
    /// to keep gas totals reproducible across runs and machines.
    pub nominal_verify_ms: Option<f64>,
    /// Bytes of proof material persisted on chain so far.
    pub onchain_proof_bytes: usize,
    /// Gas this contract itself has metered per round (storage +
    /// verification), for per-backend head-to-head reporting.
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
    /// contract that can never verify. [`VmError::BadValue`] for
    /// inconsistent terms (see [`BackendAgreement::validate`]).
    pub fn new(
        backend: Box<dyn AuditBackend>,
        commitment: Commitment,
        terms: BackendAgreement,
    ) -> Result<Self, VmError> {
        let verifier = backend
            .verifier(&commitment)
            .map_err(|e| VmError::BadCalldata(format!("commitment rejected at deployment: {e}")))?;
        Self::with_verifier(verifier, terms)
    }

    /// Creates the contract over an already prepared verifier (for
    /// callers that hold the decoded commitment, e.g.
    /// `PairingBackend::verifier_for`).
    ///
    /// # Errors
    /// [`VmError::BadValue`] for inconsistent terms (see
    /// [`BackendAgreement::validate`]).
    pub fn with_verifier(
        verifier: Box<dyn CommitmentVerifier>,
        terms: BackendAgreement,
    ) -> Result<Self, VmError> {
        terms.validate()?;
        Ok(Self {
            backend: verifier.backend(),
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
            batch_auditor: None,
            pending_migration: None,
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

    /// Switches the contract into batched-verification mode: a posted
    /// proof's verdict is accepted from `auditor` (the §VII-D batch
    /// verifier) instead of being computed at the `Verify` trigger.
    #[must_use]
    pub fn with_batch_auditor(mut self, auditor: Address) -> Self {
        self.batch_auditor = Some(auditor);
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

    /// The deposit a migration candidate must attach to `takeover`: the
    /// remaining rounds' penalties, sized like the provider deposit.
    pub fn takeover_deposit(&self) -> Wei {
        self.terms.penalty * Wei::from(self.terms.num_audits.saturating_sub(self.cnt))
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

    /// Verifies the round's kept proof on the contract and meters the
    /// verification. The proof was admitted at `prove`, so the round
    /// must end here: a verifier error settles it as a failure rather
    /// than leaving the challenge open with nothing scheduled.
    fn verify_kept(&mut self, env: &mut CallEnv, rand: &[u8; 48], proof: &BackendProof) -> bool {
        let t0 = std::time::Instant::now();
        let passed = self
            .verifier
            .verify(rand, proof)
            .is_ok_and(|verdict| verdict.accepted());
        let ms = self
            .nominal_verify_ms
            .unwrap_or_else(|| t0.elapsed().as_secs_f64() * 1e3);
        self.charge(env, GasSchedule::default().compute_gas(ms));
        passed
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
            // deposits from both parties; when complete, auditing starts.
            // The provider's deposit is its acknowledgment of the terms.
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
                    // one-time on-chain registration of the commitment
                    // (the Fig. 4 key-registration cost); not a per-round
                    // cost, so not metered
                    env.charge_gas(
                        GasSchedule::default().pk_registration_gas(self.verifier.commitment_len()),
                    );
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
            // S refuses the agreement instead of depositing (dispute: D
            // already paid storage fees); D's deposit, if any, goes back
            "reject" => {
                if self.phase != BackendPhase::Freeze || self.provider_in {
                    return Err(VmError::BadState("not awaiting the provider".into()));
                }
                if env.caller != self.terms.provider {
                    return Err(VmError::Unauthorized);
                }
                if self.owner_pool > 0 {
                    env.pay(self.terms.owner, self.owner_pool);
                    self.owner_pool = 0;
                }
                self.phase = BackendPhase::Aborted;
                env.emit("rejected", Vec::new());
                Ok(())
            }
            "prove" => {
                if self.phase != BackendPhase::Prove {
                    return Err(VmError::BadState("no open challenge".into()));
                }
                if env.caller != self.terms.provider {
                    return Err(VmError::Unauthorized);
                }
                // decode failures (garbage, unknown or foreign backend
                // id, forged length, a payload that does not decode)
                // revert the transaction — a wire problem is never a
                // verdict, and the provider may resubmit
                let proof = BackendProof::decode(data)
                    .map_err(|e| VmError::BadCalldata(e.to_string()))?;
                self.verifier
                    .check_format(&proof)
                    .map_err(|e| VmError::BadCalldata(e.to_string()))?;
                self.onchain_proof_bytes += data.len();
                dsaudit_obs::counter_add("contract.proof_bytes", data.len() as u64);
                dsaudit_obs::counter_add(self.proof_bytes_metric(), data.len() as u64);
                let gas = GasSchedule::default().storage_gas(data.len() + 48);
                self.charge(env, gas);
                self.pending = Some(proof);
                env.emit("proofposted", self.cnt.to_le_bytes().to_vec());
                Ok(())
            }
            // the designated batch auditor settles a deferred round:
            // calldata is 1 verdict byte plus the amortized verification
            // time in milliseconds (8-byte LE f64) for gas metering
            "verdict" => {
                if self.phase != BackendPhase::AwaitVerdict {
                    return Err(VmError::BadState("no verdict pending".into()));
                }
                if Some(env.caller) != self.batch_auditor {
                    return Err(VmError::Unauthorized);
                }
                let Ok([flag @ (0 | 1), ms @ ..]) = <[u8; 9]>::try_from(data) else {
                    return Err(VmError::BadCalldata(
                        "verdict is 1 flag byte + 8-byte f64 ms".into(),
                    ));
                };
                let ms = f64::from_le_bytes(ms);
                if ms.is_finite() && ms > 0.0 {
                    self.charge(env, GasSchedule::default().compute_gas(ms));
                }
                self.settle(env, flag == 1);
                Ok(())
            }
            // --- provider migration ----------------------------------
            //
            // When repair re-places a share on a different provider, the
            // contract follows the share instead of being torn down: the
            // owner names the new holder, the new holder posts a deposit
            // covering the remaining penalties, the old holder is
            // refunded its remaining pool, and the round schedule
            // continues — one contract's history spans providers.
            //
            // D names the share's next holder; calldata = 20-byte address
            "migrate" => {
                if self.phase != BackendPhase::Audit {
                    return Err(VmError::BadState("can only migrate between rounds".into()));
                }
                if env.caller != self.terms.owner {
                    return Err(VmError::Unauthorized);
                }
                let addr: [u8; 20] = data.try_into().map_err(|_| {
                    VmError::BadCalldata("migrate calldata is a 20-byte address".into())
                })?;
                let candidate = Address(addr);
                if candidate == self.terms.provider {
                    return Err(VmError::BadValue("candidate already holds the slot".into()));
                }
                self.pending_migration = Some(candidate);
                env.emit("migrationproposed", addr.to_vec());
                Ok(())
            }
            // the named candidate takes the slot by posting its deposit
            "takeover" => {
                if self.phase != BackendPhase::Audit {
                    return Err(VmError::BadState("can only take over between rounds".into()));
                }
                if Some(env.caller) != self.pending_migration {
                    return Err(VmError::Unauthorized);
                }
                if env.value != self.takeover_deposit() {
                    return Err(VmError::BadValue(
                        "takeover deposit must cover the remaining penalties".into(),
                    ));
                }
                // refund the outgoing provider's remaining pool
                if self.provider_pool > 0 {
                    env.pay(self.terms.provider, self.provider_pool);
                }
                self.provider_pool = env.value;
                self.terms.provider = env.caller;
                self.pending_migration = None;
                env.emit("migrated", env.caller.0.to_vec());
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
                if self.batch_auditor.is_some() && self.pending.is_some() {
                    // batched mode: keep the proof and wait for the
                    // shared batch verifier's verdict. The wait is
                    // bounded: if the auditor never answers, the
                    // VerdictTimeout trigger verifies the kept proof on
                    // the contract, so a dead auditor cannot freeze the
                    // deposits.
                    self.phase = BackendPhase::AwaitVerdict;
                    env.emit("needsverdict", self.cnt.to_le_bytes().to_vec());
                    env.schedule(env.now + self.terms.deadline_secs, "VerdictTimeout");
                    return Ok(());
                }
                let passed = match self.pending.take() {
                    Some(proof) => self.verify_kept(env, &rand, &proof),
                    None => {
                        env.emit("timeout", self.cnt.to_le_bytes().to_vec());
                        false
                    }
                };
                self.settle(env, passed);
                Ok(())
            }
            // batched mode's escape hatch: the auditor missed its window,
            // so the contract verifies the kept proof itself. A stale
            // trigger arriving after the verdict already settled the
            // round is a silent no-op.
            "VerdictTimeout" => {
                if self.phase != BackendPhase::AwaitVerdict {
                    return Ok(());
                }
                env.emit("verdicttimeout", self.cnt.to_le_bytes().to_vec());
                let passed = match (self.challenge_rand, self.pending.take()) {
                    (Some(rand), Some(proof)) => self.verify_kept(env, &rand, &proof),
                    // unreachable by construction (AwaitVerdict is only
                    // entered with both); settling still ends the round
                    _ => false,
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

    /// Every challenge ends in one terminal state: a proof whose frame
    /// is valid but whose payload does not decode reverts at `prove`
    /// (so it can never reach `Verify` and wedge the round), the
    /// provider may resubmit before the deadline, and a round with
    /// nothing admitted times out into the penalty path.
    #[test]
    fn malformed_payload_reverts_at_prove_and_the_round_still_settles() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-wedge")));
        let data: Vec<u8> = (0..1024).map(|i| (i % 239) as u8).collect();
        let fleet = deploy_fleet(&mut chain, &data, 2);
        let mut rng = StdRng::seed_from_u64(0x50a6);
        let owners: Vec<Address> = fleet
            .iter()
            .map(|d| Address::from_label(&format!("{}/owner", d.id)))
            .collect();
        let malformed = |id| BackendProof { backend: id, bytes: vec![0; 3] }.encode();

        // round 0: only the malformed proof is offered; it reverts and
        // the round times out as a failure that pays the owner
        chain.advance_time(3601);
        chain.mine_block();
        let before: Vec<Wei> = owners.iter().map(|o| chain.balance(*o)).collect();
        for d in &fleet {
            chain.submit(call_tx(d.provider, d.contract, "prove", malformed(d.id), 0));
            let b = chain.mine_block();
            assert_eq!(b.txs[0].1.status, TxStatus::Reverted, "{}: 3-byte payload", d.id);
        }
        chain.advance_time(601);
        chain.mine_block();
        for (d, (owner, before)) in fleet.iter().zip(owners.iter().zip(before)) {
            assert_eq!(verdict_counts(&chain, d.contract), (0, 1), "{}", d.id);
            assert_eq!(
                chain.balance(*owner) - before,
                gwei(1_000_000),
                "{}: the penalty reaches the owner",
                d.id
            );
        }

        // round 1: after a reverted malformed attempt the honest
        // resubmission is admitted and passes
        chain.advance_time(3601);
        chain.mine_block();
        for d in &fleet {
            chain.submit(call_tx(d.provider, d.contract, "prove", malformed(d.id), 0));
            let b = chain.mine_block();
            assert_eq!(b.txs[0].1.status, TxStatus::Reverted, "{}", d.id);
            let beacon = latest_beacon(&chain, d.contract).expect("challenged");
            let proof = small_backend(d.id)
                .prove(&mut rng, &d.kit, &data, &beacon)
                .expect("prove");
            chain.submit(call_tx(d.provider, d.contract, "prove", proof.encode(), 0));
            let b = chain.mine_block();
            assert_eq!(b.txs[0].1.status, TxStatus::Success, "{}", d.id);
        }
        chain.advance_time(601);
        chain.mine_block();
        for d in &fleet {
            assert_eq!(verdict_counts(&chain, d.contract), (1, 1), "{}", d.id);
            assert!(chain
                .all_events()
                .iter()
                .any(|e| e.contract == d.contract && e.name == "completed"));
        }
    }

    #[test]
    fn reject_refunds_the_owner_and_aborts_the_agreement() {
        let mut rng = StdRng::seed_from_u64(0x50a7);
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-reject")));
        let owner = Address::from_label("rej/owner");
        let provider = Address::from_label("rej/provider");
        chain.fund_account(owner, eth(1));
        chain.fund_account(provider, eth(1));
        let deploy = |chain: &mut Blockchain, rng: &mut StdRng, label: &str| {
            let backend = small_backend(BackendId::Merkle);
            let setup = backend.setup(rng, &[4u8; 256]).expect("setup");
            let contract = BackendContract::new(backend, setup.commitment, terms(owner, provider, 2))
                .expect("valid deployment");
            chain.deploy(label, Box::new(contract))
        };

        // the owner has deposited; the provider refuses instead
        let addr = deploy(&mut chain, &mut rng, "rej/a");
        chain.submit(call_tx(owner, addr, "freeze", Vec::new(), gwei(2_000_000)));
        chain.mine_block();
        assert_eq!(chain.balance(addr), gwei(2_000_000));
        chain.submit(call_tx(owner, addr, "reject", Vec::new(), 0));
        chain.submit(call_tx(provider, addr, "reject", Vec::new(), 0));
        let b = chain.mine_block();
        assert_eq!(b.txs[0].1.status, TxStatus::Reverted, "only the provider may reject");
        assert_eq!(b.txs[1].1.status, TxStatus::Success);
        assert_eq!(chain.balance(addr), 0, "owner deposit refunded");
        assert_eq!(chain.balance(owner), eth(1));
        // every later deposit reverts
        chain.submit(call_tx(provider, addr, "freeze", Vec::new(), gwei(2_000_000)));
        let b = chain.mine_block();
        assert_eq!(b.txs[0].1.status, TxStatus::Reverted);

        // once the provider has deposited, it has accepted the terms
        let addr = deploy(&mut chain, &mut rng, "rej/b");
        chain.submit(call_tx(provider, addr, "freeze", Vec::new(), gwei(2_000_000)));
        chain.submit(call_tx(provider, addr, "reject", Vec::new(), 0));
        let b = chain.mine_block();
        assert_eq!(b.txs[0].1.status, TxStatus::Success);
        assert_eq!(b.txs[1].1.status, TxStatus::Reverted);
    }

    #[test]
    fn inconsistent_terms_are_a_deploy_error() {
        let mut rng = StdRng::seed_from_u64(0x50a8);
        let owner = Address::from_label("terms/owner");
        let provider = Address::from_label("terms/provider");
        let base = terms(owner, provider, 2);
        let underfunded_owner = BackendAgreement { owner_deposit: gwei(1_999_999), ..base };
        let underfunded_provider = BackendAgreement { provider_deposit: gwei(1), ..base };
        let no_rounds = BackendAgreement { num_audits: 0, ..base };
        for bad in [underfunded_owner, underfunded_provider, no_rounds] {
            let backend = small_backend(BackendId::Merkle);
            let setup = backend.setup(&mut rng, &[6u8; 128]).expect("setup");
            assert!(matches!(
                BackendContract::new(backend, setup.commitment, bad),
                Err(VmError::BadValue(_))
            ));
        }
    }

    /// The §II Sia-style Merkle baseline end to end on chain: one raw
    /// 64-byte leaf and its path per round, two honest rounds passing.
    #[test]
    fn merkle_baseline_full_round_on_chain() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"merkle-ct")));
        let owner = Address::from_label("m/owner");
        let provider = Address::from_label("m/provider");
        chain.fund_account(owner, eth(2));
        chain.fund_account(provider, eth(2));

        let file: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        let backend = MerkleBackend { leaf_size: 64, k: 1 };
        let mut rng = StdRng::seed_from_u64(0x50a9);
        let setup = backend.setup(&mut rng, &file).expect("setup");
        let contract = BackendContract::new(
            Box::new(backend),
            setup.commitment,
            terms(owner, provider, 2),
        )
        .expect("valid deployment");
        let addr = chain.deploy("merkle-audit", Box::new(contract));

        // deposits
        for who in [owner, provider] {
            chain.submit(call_tx(who, addr, "freeze", Vec::new(), gwei(2_000_000)));
            let b = chain.mine_block();
            assert_eq!(b.txs[0].1.status, TxStatus::Success);
        }

        for _ in 0..2 {
            // fire challenge
            chain.advance_time(3601);
            chain.mine_block();
            let rand = latest_beacon(&chain, addr).expect("challenge");
            // provider answers with leaf + path (raw data on chain!)
            let proof = backend
                .prove(&mut rng, &setup.kit, &file, &rand)
                .expect("prove");
            chain.submit(call_tx(provider, addr, "prove", proof.encode(), 0));
            let b = chain.mine_block();
            assert_eq!(b.txs[0].1.status, TxStatus::Success, "{:?}", b.txs[0].1.revert_reason);
            // verdict
            chain.advance_time(601);
            chain.mine_block();
        }
        let events: Vec<String> = chain.all_events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(events.iter().filter(|n| *n == "pass").count(), 2);
        assert!(events.contains(&"completed".to_string()));
    }
}
