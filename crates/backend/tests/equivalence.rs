//! Cross-backend equivalence: every backend, fed the same file and the
//! same corruption through the same lifecycle, must return the same
//! [`Verdict`] — the scheme changes the *cost profile* of a round,
//! never its *outcome*. The verifier a contract prepares once at
//! deployment must agree with one-shot verification on every proof.
//! Plus adversarial wire tests on the erased proof codec shared by all
//! backends.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsaudit_backend::{
    AuditBackend, BackendError, BackendId, BackendProof, Groth16MerkleBackend, MerkleBackend,
    PairingBackend,
};
use dsaudit_core::codec::Codec;
use dsaudit_core::{AuditParams, Verdict};

/// Small-parameter instances of every backend, in registry order.
///
/// Scaled down like the simulator does (`s = 4`, `k = 3`, 32-byte
/// leaves, batch 2) so the whole matrix runs in test time; the
/// lifecycle is identical at paper-scale parameters.
fn fleet() -> Vec<Box<dyn AuditBackend>> {
    vec![
        Box::new(PairingBackend::new(AuditParams::new(4, 3).expect("valid"))),
        Box::new(MerkleBackend { leaf_size: 32, k: 3 }),
        Box::new(Groth16MerkleBackend { batch: 2 }),
    ]
}

/// Runs one full `setup → challenge → prove → verify` round on every
/// backend, with `mutate` applied to the provider's stored copy, and
/// returns `(backend name, verdict accepted?)` per backend.
fn round_on_all(data: &[u8], beacon: [u8; 48], mutate: impl Fn(&mut Vec<u8>)) -> Vec<(&'static str, bool)> {
    let mut out = Vec::new();
    for backend in fleet() {
        let mut rng = StdRng::seed_from_u64(0xe9_u64 ^ backend.id().as_u8() as u64);
        let setup = backend.setup(&mut rng, data).expect("setup");
        assert_eq!(setup.commitment.backend, backend.id());
        assert_eq!(setup.kit.backend, backend.id());
        let mut stored = data.to_vec();
        mutate(&mut stored);
        let proof = backend
            .prove(&mut rng, &setup.kit, &stored, &beacon)
            .expect("prove");
        let verdict = backend
            .verify(&setup.commitment, &beacon, &proof)
            .expect("verify");
        out.push((backend.id().name(), verdict.accepted()));
    }
    out
}

#[test]
fn honest_provider_accepted_by_every_backend() {
    let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
    for (name, accepted) in round_on_all(&data, [5u8; 48], |_| {}) {
        assert!(accepted, "backend `{name}` rejected an honest provider");
    }
}

#[test]
fn corrupted_provider_rejected_by_every_backend() {
    let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
    // flip one bit in every 31-byte window: whatever leaf/chunk
    // geometry a backend uses, each challenged unit hits damage
    let verdicts = round_on_all(&data, [6u8; 48], |stored| {
        for i in (0..stored.len()).step_by(31) {
            stored[i] ^= 0x10;
        }
    });
    for (name, accepted) in verdicts {
        assert!(!accepted, "backend `{name}` accepted corrupted data");
    }
}

#[test]
fn verdicts_agree_pairwise_per_scenario() {
    let data: Vec<u8> = (0..640).map(|i| (i * 13 % 251) as u8).collect();
    for (label, mutate) in [
        ("honest", None),
        ("all-corrupt", Some(0xffu8)),
    ] {
        let verdicts = match mutate {
            None => round_on_all(&data, [8u8; 48], |_| {}),
            Some(mask) => round_on_all(&data, [8u8; 48], move |stored| {
                for b in stored.iter_mut() {
                    *b ^= mask;
                }
            }),
        };
        let first = verdicts[0].1;
        for (name, accepted) in &verdicts {
            assert_eq!(
                *accepted, first,
                "scenario `{label}`: backend `{name}` disagrees with `{}`",
                verdicts[0].0
            );
        }
    }
}

#[test]
fn every_backend_survives_empty_and_tiny_files() {
    for data in [vec![], vec![0xabu8], vec![7u8; 31]] {
        for (name, accepted) in round_on_all(&data, [9u8; 48], |_| {}) {
            assert!(accepted, "backend `{name}` failed on a {}-byte file", data.len());
        }
    }
}

/// Every way a proof can reach a verifier in one round: honest, from a
/// corrupted store, and honest but tampered with in transit (a flipped
/// bit at the first, middle and last payload byte).
fn round_proofs(
    backend: &dyn AuditBackend,
    setup: &dsaudit_backend::BackendSetup,
    data: &[u8],
    beacon: &[u8; 48],
    rng: &mut StdRng,
) -> Vec<(String, BackendProof)> {
    let honest = backend.prove(rng, &setup.kit, data, beacon).expect("prove");
    let corrupted: Vec<u8> = data.iter().map(|b| b ^ 0x20).collect();
    let mut out = vec![
        ("honest".to_string(), honest.clone()),
        (
            "corrupted store".to_string(),
            backend
                .prove(rng, &setup.kit, &corrupted, beacon)
                .expect("prove"),
        ),
    ];
    let len = honest.bytes.len();
    for pos in [0, len / 2, len - 1] {
        let mut tampered = honest.clone();
        tampered.bytes[pos] ^= 0x04;
        out.push((format!("tampered at byte {pos}"), tampered));
    }
    out
}

#[test]
fn prepared_verifier_matches_one_shot_verify() {
    let data: Vec<u8> = (0..1024).map(|i| (i * 7 % 253) as u8).collect();
    let beacon = [0x31u8; 48];
    for backend in fleet() {
        let mut rng = StdRng::seed_from_u64(0x7e ^ backend.id().as_u8() as u64);
        let setup = backend.setup(&mut rng, &data).expect("setup");
        let verifier = backend.verifier(&setup.commitment).expect("commitment decodes");
        assert_eq!(verifier.backend(), backend.id());
        assert_eq!(
            verifier.commitment_len(),
            setup.commitment.bytes.len(),
            "backend `{}`",
            backend.id()
        );
        for (label, proof) in round_proofs(backend.as_ref(), &setup, &data, &beacon, &mut rng) {
            let prepared = verifier.verify(&beacon, &proof);
            let one_shot = backend.verify(&setup.commitment, &beacon, &proof);
            assert_eq!(prepared, one_shot, "backend `{}`, {label} proof", backend.id());
            // the format check passes exactly on the proofs verify can
            // judge, so a proof admitted at `prove` always gets a verdict
            assert_eq!(
                verifier.check_format(&proof).is_ok(),
                prepared.is_ok(),
                "backend `{}`, {label} proof",
                backend.id()
            );
            match label.as_str() {
                "honest" => assert_eq!(prepared, Ok(Verdict::Accept), "backend `{}`", backend.id()),
                "corrupted store" => assert!(
                    matches!(prepared, Ok(Verdict::Reject(_))),
                    "backend `{}` accepted a corrupted store",
                    backend.id()
                ),
                // a tampered proof may fail to decode or reject, but it
                // never verifies
                _ => assert_ne!(
                    prepared,
                    Ok(Verdict::Accept),
                    "backend `{}`, {label}",
                    backend.id()
                ),
            }
        }
    }
}

#[test]
fn prepared_verifier_refuses_foreign_and_garbage_proofs() {
    let data: Vec<u8> = (0..512).map(|i| (i % 239) as u8).collect();
    let beacon = [0x32u8; 48];
    let backends = fleet();
    let setups: Vec<_> = backends
        .iter()
        .map(|b| {
            let mut rng = StdRng::seed_from_u64(0x7f ^ b.id().as_u8() as u64);
            let setup = b.setup(&mut rng, &data).expect("setup");
            let proof = b.prove(&mut rng, &setup.kit, &data, &beacon).expect("prove");
            (setup, proof)
        })
        .collect();
    for (backend, (setup, _)) in backends.iter().zip(&setups) {
        let verifier = backend.verifier(&setup.commitment).expect("commitment decodes");
        for (other, (_, foreign)) in backends.iter().zip(&setups) {
            if other.id() == backend.id() {
                continue;
            }
            let wrong = Err(BackendError::WrongBackend {
                expected: backend.id(),
                got: other.id(),
            });
            assert_eq!(
                verifier.verify(&beacon, foreign),
                wrong,
                "backend `{}` given a `{}` proof",
                backend.id(),
                other.id()
            );
            assert_eq!(verifier.check_format(foreign), wrong.map(drop));
        }
        for garbage in [Vec::new(), vec![0u8; 3], vec![0xff; 7], vec![0u8; 4096]] {
            let proof = BackendProof {
                backend: backend.id(),
                bytes: garbage,
            };
            assert!(
                verifier.verify(&beacon, &proof).is_err(),
                "backend `{}` settled garbage bytes",
                backend.id()
            );
            assert!(
                verifier.check_format(&proof).is_err(),
                "backend `{}` admitted garbage bytes",
                backend.id()
            );
        }
    }
}

#[test]
fn repeated_rounds_on_one_pairing_verifier_match_cold_verification() {
    let backend = PairingBackend::new(AuditParams::new(4, 3).expect("valid"));
    let data: Vec<u8> = (0..2048).map(|i| (i * 5 % 251) as u8).collect();
    let mut rng = StdRng::seed_from_u64(0x10_0d);
    let setup = backend.setup(&mut rng, &data).expect("setup");
    let verifier = backend.verifier(&setup.commitment).expect("commitment decodes");
    let mut damaged = data.clone();
    for i in (0..damaged.len()).step_by(31) {
        damaged[i] ^= 0x01;
    }
    for round in 0u8..10 {
        let beacon = [round.wrapping_mul(29).wrapping_add(1); 48];
        // every third round answers from damaged bytes
        let stored = if round % 3 == 2 { &damaged } else { &data };
        let proof = backend
            .prove(&mut rng, &setup.kit, stored, &beacon)
            .expect("prove");
        let warm = verifier.verify(&beacon, &proof);
        let cold = backend.verify(&setup.commitment, &beacon, &proof);
        assert_eq!(warm, cold, "round {round}");
        assert_eq!(warm.expect("decodes").accepted(), round % 3 != 2, "round {round}");
    }
}

/// One honest encoded proof per backend, produced once (setup is the
/// expensive step — the property tests only mangle bytes).
fn honest_proofs() -> &'static [(BackendId, Vec<u8>)] {
    static PROOFS: std::sync::OnceLock<Vec<(BackendId, Vec<u8>)>> = std::sync::OnceLock::new();
    PROOFS.get_or_init(|| {
        let data: Vec<u8> = (0..640).map(|i| (i % 253) as u8).collect();
        let beacon = [2u8; 48];
        fleet()
            .into_iter()
            .map(|backend| {
                let mut rng = StdRng::seed_from_u64(0x9 ^ backend.id().as_u8() as u64);
                let setup = backend.setup(&mut rng, &data).expect("setup");
                let proof = backend
                    .prove(&mut rng, &setup.kit, &data, &beacon)
                    .expect("prove");
                (backend.id(), proof.encode())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating an encoded proof at ANY boundary is a typed decode
    /// error for every backend — never a panic, never a verdict.
    #[test]
    fn truncated_proofs_are_typed_errors(cut in 0usize..4096) {
        for (id, bytes) in honest_proofs() {
            let cut = cut % bytes.len();
            prop_assert!(
                dsaudit_backend::BackendProof::decode(&bytes[..cut]).is_err(),
                "backend `{id}`: truncation at {cut}/{} decoded",
                bytes.len(),
            );
        }
    }

    /// Flipping any bit of an encoded proof either fails to decode or
    /// decodes to a different object — the codec hides nothing.
    #[test]
    fn bit_flips_never_decode_to_the_original(pos in 0usize..4096, bit in 0u8..8) {
        for (id, bytes) in honest_proofs() {
            let original = dsaudit_backend::BackendProof::decode(bytes).expect("honest");
            let mut flipped = bytes.clone();
            let pos = pos % flipped.len();
            flipped[pos] ^= 1 << bit;
            match dsaudit_backend::BackendProof::decode(&flipped) {
                Err(_) => {}
                Ok(decoded) => prop_assert_ne!(
                    decoded, original.clone(),
                    "backend `{}`: bit flip at byte {} went unnoticed", id, pos
                ),
            }
        }
    }
}
