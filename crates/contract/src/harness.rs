//! Driver glue between off-chain actors (data owner, storage provider)
//! and the on-chain contract: deployment, deposits, and the
//! challenge/prove/verify round-trip of one audit round.
//!
//! The off-chain sides are the role handles of `dsaudit-core`: a
//! [`DataOwner`] produces the outsourcing bundle, a [`StorageProvider`]
//! validates and holds it, and the deployed [`BackendContract`] carries
//! the pairing backend's prepared verifier. (The typed off-chain
//! session type is `dsaudit_core::session::AuditSession`; the on-chain
//! pendant here is [`ContractSession`].)

use dsaudit_backend::{BackendId, BackendProof, PairingBackend};
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{Address, Transaction, TxKind, TxStatus, Wei};
use dsaudit_core::{Challenge, Codec, DataOwner, StorageProvider};

use crate::backend_contract::{BackendAgreement, BackendContract};

/// A fully initialized audit session on chain: deployed contract, both
/// deposits locked, first challenge scheduled.
pub struct ContractSession {
    /// Deployed contract address.
    pub contract: Address,
    /// Data owner account.
    pub owner: Address,
    /// Storage provider account.
    pub provider: Address,
    /// Provider-side role handle for responding to challenges.
    pub provider_state: StorageProvider,
    /// Terms in force.
    pub agreement: BackendAgreement,
}

impl ContractSession {
    /// The provider's wire response to a challenge: the 288-byte
    /// proof in its pairing-backend frame, posted as `prove` calldata.
    pub fn respond_wire<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &Challenge,
    ) -> Vec<u8> {
        pairing_calldata(&self.provider_state.respond(rng, challenge))
    }
}

/// `prove` calldata for a pairing proof: the erased backend frame
/// around its canonical 288-byte encoding.
pub fn pairing_calldata(proof: &dsaudit_core::PrivateProof) -> Vec<u8> {
    BackendProof {
        backend: BackendId::Pairing,
        bytes: proof.encode(),
    }
    .encode()
}

/// Sets up a complete audit session on the chain: keygen, encode, tag,
/// provider-side tag validation, deploy (the owner's commitment to key
/// and file), and both deposits.
///
/// # Panics
/// Panics if any setup transaction reverts or the honest bundle fails
/// validation (programming error in the harness, not a runtime
/// condition).
pub fn setup_session<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    label: &str,
    data: &[u8],
    params: dsaudit_core::params::AuditParams,
    owner_handle: Option<DataOwner>,
    terms: AgreementTerms,
) -> ContractSession {
    let owner = Address::from_label(&format!("{label}/owner"));
    let provider = Address::from_label(&format!("{label}/provider"));
    chain.fund_account(owner, terms.owner_deposit + dsaudit_chain::types::eth(1));
    chain.fund_account(provider, terms.provider_deposit + dsaudit_chain::types::eth(1));

    let owner_handle = owner_handle.unwrap_or_else(|| DataOwner::generate(rng, params));
    let bundle = owner_handle.outsource(rng, data);
    let verifier = PairingBackend::verifier_for(bundle.pk.clone(), bundle.meta())
        .expect("harness meta is auditable");
    // the provider validates the authenticators before depositing
    let provider_state =
        StorageProvider::ingest(rng, bundle).expect("honest bundle must validate");
    let agreement = BackendAgreement {
        owner,
        provider,
        num_audits: terms.num_audits,
        interval_secs: terms.audit_interval_secs,
        deadline_secs: terms.prove_deadline_secs,
        reward: terms.reward_per_audit,
        penalty: terms.penalty_per_fail,
        owner_deposit: terms.owner_deposit,
        provider_deposit: terms.provider_deposit,
    };
    let mut contract_obj =
        BackendContract::with_verifier(verifier, agreement).expect("harness terms are consistent");
    if let Some(auditor) = terms.batch_auditor {
        contract_obj = contract_obj.with_batch_auditor(auditor);
    }
    let contract = chain.deploy(label, Box::new(contract_obj));
    submit_ok(chain, owner, contract, "freeze", Vec::new(), terms.owner_deposit);
    submit_ok(chain, provider, contract, "freeze", Vec::new(), terms.provider_deposit);

    ContractSession {
        contract,
        owner,
        provider,
        provider_state,
        agreement,
    }
}

/// Economic terms for [`setup_session`], without the addresses.
#[derive(Clone, Copy, Debug)]
pub struct AgreementTerms {
    /// Number of audit rounds.
    pub num_audits: u64,
    /// Seconds between rounds.
    pub audit_interval_secs: u64,
    /// Response window in seconds.
    pub prove_deadline_secs: u64,
    /// Per-round reward to the provider.
    pub reward_per_audit: Wei,
    /// Per-failure compensation to the owner.
    pub penalty_per_fail: Wei,
    /// Owner's locked deposit.
    pub owner_deposit: Wei,
    /// Provider's locked deposit.
    pub provider_deposit: Wei,
    /// When set, contracts defer round verdicts to this batch-verifier
    /// address (§VII-D amortized verification); `None` keeps classic
    /// per-contract verification at the `Verify` trigger.
    pub batch_auditor: Option<Address>,
}

impl Default for AgreementTerms {
    fn default() -> Self {
        use dsaudit_chain::types::gwei;
        Self {
            num_audits: 3,
            audit_interval_secs: 86_400,
            prove_deadline_secs: 3_600,
            reward_per_audit: gwei(1_000_000), // 0.001 ETH
            penalty_per_fail: gwei(5_000_000), // 0.005 ETH
            owner_deposit: gwei(1_000_000) * 100,
            provider_deposit: gwei(5_000_000) * 100,
            batch_auditor: None,
        }
    }
}

/// Submits a contract call and asserts success.
///
/// # Panics
/// Panics when the transaction reverts.
pub fn submit_ok(
    chain: &mut Blockchain,
    from: Address,
    to: Address,
    method: &str,
    data: Vec<u8>,
    value: Wei,
) {
    chain.submit(Transaction {
        from,
        to,
        value,
        kind: TxKind::Call {
            method: method.into(),
            data,
        },
    });
    let block = chain.mine_block();
    let (_, receipt) = block.txs.last().expect("tx was submitted");
    assert_eq!(
        receipt.status,
        TxStatus::Success,
        "{method} reverted: {:?}",
        receipt.revert_reason
    );
}

/// Extracts the latest "challenged" event's beacon bytes from the chain.
pub fn latest_challenge(chain: &Blockchain, contract: Address) -> Option<Challenge> {
    chain
        .all_events()
        .into_iter()
        .rev()
        .find(|e| e.contract == contract && e.name == "challenged")
        .map(|e| {
            let mut beacon = [0u8; 48];
            beacon.copy_from_slice(&e.data);
            Challenge::from_beacon(&beacon)
        })
}

/// Runs one complete audit round for a single session on its own chain.
/// `honest` controls the provider: `true` posts a valid-format proof over
/// whatever data it holds, `false` simulates a timeout. Returns whether
/// the round passed.
pub fn run_round<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    session: &ContractSession,
    honest: bool,
) -> bool {
    run_round_multi(rng, chain, &[(session, honest)])[0]
}

/// Runs one audit round for several sessions sharing one chain, in
/// lockstep: a single time advance fires every session's "Chal" trigger,
/// all providers respond in the same block window, and a single deadline
/// pass fires every "Verify". Returns per-session pass flags in input
/// order.
///
/// All sessions must share the same interval/deadline settings (they are
/// driven by one clock).
///
/// # Panics
/// Panics if a session is missing its challenge or verdict event —
/// a harness programming error.
pub fn run_round_multi<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    sessions: &[(&ContractSession, bool)],
) -> Vec<bool> {
    assert!(!sessions.is_empty());
    let interval = sessions[0].0.agreement.interval_secs;
    let deadline = sessions[0].0.agreement.deadline_secs;
    // fire all Chal triggers
    chain.advance_time(interval + 1);
    chain.mine_block();
    // all honest providers respond within the same window
    for (session, honest) in sessions {
        if *honest {
            let challenge =
                latest_challenge(chain, session.contract).expect("challenge event");
            let proof = session.respond_wire(rng, &challenge);
            submit_ok(chain, session.provider, session.contract, "prove", proof, 0);
        }
    }
    // fire all Verify triggers
    chain.advance_time(deadline + 1);
    chain.mine_block();
    sessions
        .iter()
        .map(|(session, _)| {
            chain
                .all_events()
                .into_iter()
                .rev()
                .find(|e| {
                    e.contract == session.contract && (e.name == "pass" || e.name == "fail")
                })
                .expect("verdict event")
                .name
                == "pass"
        })
        .collect()
}
