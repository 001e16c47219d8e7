//! Multi-user orchestration (§VII-D, Fig. 10): many owners auditing
//! against one or more providers on a single chain.
//!
//! With [`AgreementTerms::batch_auditor`] set, a whole round's proofs are
//! checked with **one** shared pairing product
//! ([`dsaudit_core::batch::verify_private_batch`], all users sharing a
//! single final exponentiation) instead of one three-pairing product per
//! user — the amortization the paper measures for ~30 co-hosted users per
//! provider. If the batch rejects, the round falls back to per-user
//! verification to attribute blame, so accept/reject outcomes are always
//! identical to the unbatched path.

use std::time::Instant;

use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::Address;
use dsaudit_core::batch::BatchItem;
use dsaudit_core::{Auditor, Challenge, AuditParams, PrivateProof};

use crate::harness::{
    latest_challenge, pairing_calldata, setup_session, submit_ok, AgreementTerms,
    ContractSession,
};

/// A population of audit sessions sharing one chain.
pub struct AuditNetwork {
    /// The shared chain.
    pub chain: Blockchain,
    /// All live sessions.
    pub sessions: Vec<ContractSession>,
    /// The §VII-D batch verifier address, when batched verification is on.
    pub batch_auditor: Option<Address>,
    /// The batch verifier's role handle: its caches stay warm across
    /// the whole network's rounds.
    auditor: Auditor,
}

/// Aggregate statistics after driving the network.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetworkStats {
    /// Rounds executed in total.
    pub rounds: u64,
    /// Rounds that passed.
    pub passes: u64,
    /// Rounds that failed.
    pub failures: u64,
    /// Total gas consumed by the chain so far.
    pub total_gas: u64,
    /// Total chain size in bytes.
    pub chain_bytes: usize,
}

impl AuditNetwork {
    /// Builds a network of `users` sessions with `file_bytes` of data
    /// each on a fresh chain. When `terms.batch_auditor` is set every
    /// contract is deployed in batched-verification mode and
    /// [`AuditNetwork::run_round_all`] settles rounds through the shared
    /// batch verifier.
    pub fn new<R: rand::RngCore + ?Sized>(
        rng: &mut R,
        users: usize,
        file_bytes: usize,
        params: AuditParams,
        terms: AgreementTerms,
    ) -> Self {
        let mut chain = Blockchain::new(Box::new(dsaudit_chain::beacon::TrustedBeacon::new(
            b"network",
        )));
        let mut sessions = Vec::with_capacity(users);
        for u in 0..users {
            let data: Vec<u8> = (0..file_bytes).map(|i| ((i * 31 + u * 7) % 251) as u8).collect();
            let session = setup_session(
                rng,
                &mut chain,
                &format!("user{u}"),
                &data,
                params,
                None,
                terms,
            );
            sessions.push(session);
        }
        Self {
            chain,
            sessions,
            batch_auditor: terms.batch_auditor,
            auditor: Auditor::new(),
        }
    }

    /// Runs one audit round for every session (all honest, in lockstep)
    /// and returns aggregate stats. Routes through the shared batch
    /// verifier when the network was built with one.
    pub fn run_round_all<R: rand::RngCore + ?Sized>(&mut self, rng: &mut R) -> NetworkStats {
        let mut stats = NetworkStats::default();
        let results = match self.batch_auditor {
            Some(auditor) if !self.sessions.is_empty() => self.run_round_batched(rng, auditor),
            _ => {
                let pairs: Vec<(&ContractSession, bool)> =
                    self.sessions.iter().map(|s| (s, true)).collect();
                crate::harness::run_round_multi(rng, &mut self.chain, &pairs)
            }
        };
        for passed in results {
            stats.rounds += 1;
            if passed {
                stats.passes += 1;
            } else {
                stats.failures += 1;
            }
        }
        stats.total_gas = self.chain.total_gas_used();
        stats.chain_bytes = self.chain.total_size_bytes();
        stats
    }

    /// One round in batched mode: challenge + prove in lockstep as usual,
    /// then a single `verify_private_batch` over all posted proofs; the
    /// auditor submits the per-contract verdicts (falling back to
    /// per-user verification when the batch rejects, so a cheating
    /// provider is singled out rather than failing the whole round).
    fn run_round_batched<R: rand::RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        auditor: Address,
    ) -> Vec<bool> {
        let interval = self.sessions[0].agreement.interval_secs;
        let deadline = self.sessions[0].agreement.deadline_secs;
        let chain = &mut self.chain;
        // fire all Chal triggers
        chain.advance_time(interval + 1);
        chain.mine_block();
        // providers respond; keep the parsed proofs for the batch check,
        // tagged with the session index so a contract that emitted no
        // challenge this round (already settled, out of funds) sits the
        // batch out without misaligning the verdict submission below
        let mut round: Vec<(usize, Challenge, PrivateProof)> =
            Vec::with_capacity(self.sessions.len());
        for (i, session) in self.sessions.iter().enumerate() {
            let Some(challenge) = latest_challenge(chain, session.contract) else {
                continue;
            };
            let proof = session.provider_state.respond(rng, &challenge);
            submit_ok(
                chain,
                session.provider,
                session.contract,
                "prove",
                pairing_calldata(&proof),
                0,
            );
            round.push((i, challenge, proof));
        }
        if round.is_empty() {
            return Vec::new();
        }
        // deadline passes: contracts park in AwaitVerdict ("needsverdict")
        chain.advance_time(deadline + 1);
        chain.mine_block();
        // one pairing product for the whole round
        let items: Vec<BatchItem<'_>> = round
            .iter()
            .map(|&(i, ref challenge, ref proof)| BatchItem {
                pk: self.sessions[i].provider_state.public_key(),
                meta: self.sessions[i].provider_state.meta(),
                challenge: *challenge,
                proof: *proof,
            })
            .collect();
        let t0 = Instant::now();
        // a proof the auditor cannot even check (metadata mismatch) is
        // rejected, exactly as the contract would reject it
        let batch_accepts = self
            .auditor
            .verify_private_batch(rng, &items)
            .is_ok_and(|v| v.accepted());
        let verdicts: Vec<bool> = if batch_accepts {
            vec![true; items.len()]
        } else {
            items
                .iter()
                .map(|it| {
                    self.auditor
                        .verify_private(it.pk, &it.meta, &it.challenge, &it.proof)
                        .is_ok_and(|v| v.accepted())
                })
                .collect()
        };
        // amortized per-user verification time, metered by each contract
        let ms = t0.elapsed().as_secs_f64() * 1e3 / items.len() as f64;
        drop(items);
        for (&(i, _, _), verdict) in round.iter().zip(&verdicts) {
            let mut data = vec![u8::from(*verdict)];
            data.extend_from_slice(&ms.to_le_bytes());
            submit_ok(chain, auditor, self.sessions[i].contract, "verdict", data, 0);
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn small_network_round_all_pass() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4e7f);
        let params = AuditParams::new(4, 3).unwrap();
        let terms = AgreementTerms {
            num_audits: 2,
            ..AgreementTerms::default()
        };
        let mut net = AuditNetwork::new(&mut rng, 3, 400, params, terms);
        let stats = net.run_round_all(&mut rng);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.passes, 3);
        assert_eq!(stats.failures, 0);
        assert!(stats.total_gas > 0);
        assert!(stats.chain_bytes > 0);
    }

    /// Per-contract verdict flags in session order, from the event log.
    fn verdicts(net: &AuditNetwork) -> Vec<bool> {
        net.sessions
            .iter()
            .map(|s| {
                net.chain
                    .all_events()
                    .into_iter()
                    .rev()
                    .find(|e| e.contract == s.contract && (e.name == "pass" || e.name == "fail"))
                    .expect("verdict event")
                    .name
                    == "pass"
            })
            .collect()
    }

    #[test]
    fn batched_matches_per_user_outcomes() {
        // k >= d so the corrupted chunk is challenged every round
        let params = AuditParams::new(4, 8).unwrap();
        let build = |batched: bool| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xbeef);
            let terms = AgreementTerms {
                num_audits: 2,
                batch_auditor: batched.then(|| Address::from_label("network/batch-auditor")),
                ..AgreementTerms::default()
            };
            let mut net = AuditNetwork::new(&mut rng, 3, 400, params, terms);
            // the provider for user 1 silently corrupts a stored block
            net.sessions[1].provider_state.corrupt_block(0, 0);
            net
        };
        let run = |mut net: AuditNetwork| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xf00d);
            let stats = net.run_round_all(&mut rng);
            (stats, verdicts(&net))
        };
        let (stats_per_user, v_per_user) = run(build(false));
        let (stats_batched, v_batched) = run(build(true));
        assert_eq!(
            v_per_user, v_batched,
            "batched and per-user verdicts must agree"
        );
        assert_eq!(
            v_batched,
            vec![true, false, true],
            "only the cheating provider fails"
        );
        assert_eq!(stats_per_user.rounds, stats_batched.rounds);
        assert_eq!(stats_per_user.passes, stats_batched.passes);
        assert_eq!(stats_per_user.failures, stats_batched.failures);
    }

    #[test]
    fn batched_verdict_timeout_falls_back_to_self_verification() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5111);
        let params = AuditParams::new(4, 3).unwrap();
        let terms = AgreementTerms {
            num_audits: 1,
            batch_auditor: Some(Address::from_label("auditor/asleep")),
            ..AgreementTerms::default()
        };
        let mut net = AuditNetwork::new(&mut rng, 1, 300, params, terms);
        let session = &net.sessions[0];
        let interval = session.agreement.interval_secs;
        let deadline = session.agreement.deadline_secs;
        // challenge fires; the provider responds honestly
        net.chain.advance_time(interval + 1);
        net.chain.mine_block();
        let ch = latest_challenge(&net.chain, session.contract).expect("challenge");
        let proof = session.respond_wire(&mut rng, &ch);
        submit_ok(&mut net.chain, session.provider, session.contract, "prove", proof, 0);
        // Verify trigger parks the round in AwaitVerdict
        net.chain.advance_time(deadline + 1);
        net.chain.mine_block();
        // the auditor never answers; the verdict timeout passes and the
        // contract must verify the proof itself and settle the round
        net.chain.advance_time(deadline + 1);
        net.chain.mine_block();
        assert!(
            net.chain.all_events().iter().any(|e| e.name == "verdicttimeout"),
            "timeout event recorded"
        );
        assert_eq!(
            verdicts(&net),
            vec![true],
            "honest proof passes via the self-verification fallback"
        );
    }

    #[test]
    fn verdict_from_a_stranger_reverts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5112);
        let params = AuditParams::new(4, 3).unwrap();
        let auditor = Address::from_label("network/designated");
        let terms = AgreementTerms {
            num_audits: 1,
            batch_auditor: Some(auditor),
            ..AgreementTerms::default()
        };
        let mut net = AuditNetwork::new(&mut rng, 1, 300, params, terms);
        let session = &net.sessions[0];
        net.chain.advance_time(session.agreement.interval_secs + 1);
        net.chain.mine_block();
        let ch = latest_challenge(&net.chain, session.contract).expect("challenge");
        let proof = session.respond_wire(&mut rng, &ch);
        submit_ok(&mut net.chain, session.provider, session.contract, "prove", proof, 0);
        // the round parks awaiting the batch verdict
        net.chain.advance_time(session.agreement.deadline_secs + 1);
        net.chain.mine_block();
        let stranger = Address::from_label("network/stranger");
        net.chain.fund_account(stranger, dsaudit_chain::types::eth(1));
        let mut verdict = vec![1u8];
        verdict.extend_from_slice(&1.0f64.to_le_bytes());
        // neither an outsider nor either party may post the verdict
        for caller in [stranger, session.provider, session.owner] {
            net.chain.submit(dsaudit_chain::types::Transaction {
                from: caller,
                to: session.contract,
                value: 0,
                kind: dsaudit_chain::types::TxKind::Call {
                    method: "verdict".into(),
                    data: verdict.clone(),
                },
            });
            let block = net.chain.mine_block();
            assert_eq!(
                block.txs[0].1.status,
                dsaudit_chain::types::TxStatus::Reverted,
                "verdict from a non-designated caller must revert"
            );
        }
        // the designated auditor settles the round
        submit_ok(&mut net.chain, auditor, session.contract, "verdict", verdict, 0);
        assert_eq!(verdicts(&net), vec![true]);
    }

    #[test]
    fn batched_honest_round_all_pass_and_continues() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x77aa);
        let params = AuditParams::new(4, 3).unwrap();
        let terms = AgreementTerms {
            num_audits: 2,
            batch_auditor: Some(Address::from_label("network/batch-auditor")),
            ..AgreementTerms::default()
        };
        let mut net = AuditNetwork::new(&mut rng, 2, 300, params, terms);
        // two full rounds through the batch verifier: the contracts must
        // re-arm their Chal triggers after an externally settled round
        for _ in 0..2 {
            let stats = net.run_round_all(&mut rng);
            assert_eq!(stats.passes, 2);
            assert_eq!(stats.failures, 0);
        }
    }
}
