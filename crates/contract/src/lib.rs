//! # dsaudit-contract
//!
//! The on-chain side of the paper: one storage-auditing smart contract,
//! [`BackendContract`], running the Fig. 2 lifecycle over any
//! proof-of-storage backend (Initialize: deploy with the commitment →
//! both deposits, or the provider's reject; Audit: challenge → prove →
//! verify → pay, with batched verdicts and provider migration), plus
//! the session harness and the multi-user network of the scalability
//! experiments (§VII-D).

#![forbid(unsafe_code)]

pub mod backend_contract;
pub mod harness;
pub mod registry;

pub use backend_contract::{BackendAgreement, BackendContract, BackendPhase};
pub use harness::{
    run_round, run_round_multi, setup_session, AgreementTerms, ContractSession,
};
pub use registry::{AuditNetwork, NetworkStats};
