//! A pairing [`BackendContract`] verifies every round with the verifier
//! it prepared at deployment. Its verdicts must be exactly those of
//! cold one-shot verification, and its hash-to-curve cache must serve
//! hits from the second round on.
//!
//! This file holds one test on purpose: the obs registry is
//! process-wide, and the cache counters read below must count this
//! contract's lookups only.

use std::sync::Arc;

use dsaudit_backend::{AuditBackend, BackendProof, PairingBackend};
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, gwei, Address, Block, Transaction, TxKind, TxStatus, Wei};
use dsaudit_contract::{BackendAgreement, BackendContract};
use dsaudit_core::codec::Codec;
use dsaudit_core::AuditParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn event<'a>(block: &'a Block, contract: Address, name: &str) -> Option<&'a [u8]> {
    block
        .txs
        .iter()
        .flat_map(|(_, r)| &r.logs)
        .find(|e| e.contract == contract && e.name == name)
        .map(|e| e.data.as_slice())
}

#[test]
fn warm_contract_settles_like_cold_verification_and_hits_its_cache() {
    // 80 chunks, 64 challenged per round: every round flushes the cache
    // counters to obs at least once, and consecutive rounds overlap
    let backend = PairingBackend::new(AuditParams::new(4, 64).expect("valid"));
    let data: Vec<u8> = (0..4 * 31 * 80).map(|i| (i * 11 % 257) as u8).collect();
    let damaged: Vec<u8> = data.iter().map(|b| b ^ 0x02).collect();
    let mut rng = StdRng::seed_from_u64(0xc0de_ca5e);
    let setup = backend.setup(&mut rng, &data).expect("setup");

    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"prepared-verifier")));
    let owner = Address::from_label("warm/owner");
    let provider = Address::from_label("warm/provider");
    chain.fund_account(owner, eth(1));
    chain.fund_account(provider, eth(1));
    let honest_rounds = [true, true, false, true, false, true];
    let terms = BackendAgreement {
        owner,
        provider,
        num_audits: honest_rounds.len() as u64,
        interval_secs: 3600,
        deadline_secs: 600,
        reward: gwei(1_000),
        penalty: gwei(1_000),
        owner_deposit: gwei(10_000),
        provider_deposit: gwei(10_000),
    };
    let contract = BackendContract::new(Box::new(backend), setup.commitment.clone(), terms)
        .expect("commitment decodes");
    let addr = chain.deploy("warm", Box::new(contract));
    chain.submit(call(owner, addr, "freeze", Vec::new(), gwei(10_000)));
    chain.submit(call(provider, addr, "freeze", Vec::new(), gwei(10_000)));
    assert!(chain.mine_block().txs.iter().all(|(_, r)| r.status == TxStatus::Success));

    let reg = Arc::new(dsaudit_obs::Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&reg));
    let mut rounds: Vec<([u8; 48], BackendProof, bool)> = Vec::new();
    let mut chi_hits = Vec::new();
    for &honest in &honest_rounds {
        chain.advance_time(3601);
        let b = chain.mine_block();
        let beacon: [u8; 48] = event(b, addr, "challenged")
            .and_then(|d| d.try_into().ok())
            .expect("challenged");
        let stored = if honest { &data } else { &damaged };
        let proof = backend
            .prove(&mut rng, &setup.kit, stored, &beacon)
            .expect("prove");
        chain.submit(call(provider, addr, "prove", proof.encode(), 0));
        assert_eq!(chain.mine_block().txs[0].1.status, TxStatus::Success);
        chain.advance_time(601);
        let b = chain.mine_block();
        let passed = match (event(b, addr, "pass"), event(b, addr, "fail")) {
            (Some(_), None) => true,
            (None, Some(_)) => false,
            _ => panic!("the Verify block settled no verdict"),
        };
        rounds.push((beacon, proof, passed));
        chi_hits.push(reg.snapshot().counter("core.cache.chi.hits"));
    }
    dsaudit_obs::uninstall();

    let settled: Vec<bool> = rounds.iter().map(|(_, _, passed)| *passed).collect();
    assert_eq!(settled, honest_rounds);
    for (round, (beacon, proof, passed)) in rounds.iter().enumerate() {
        let cold = backend
            .verify(&setup.commitment, beacon, proof)
            .expect("decodes");
        assert_eq!(cold.accepted(), *passed, "round {round}");
    }
    assert_eq!(chi_hits[0], 0, "the first round starts cold");
    for round in 1..chi_hits.len() {
        assert!(
            chi_hits[round] > chi_hits[round - 1],
            "round {round} served no cache hits: {chi_hits:?}"
        );
    }
}
