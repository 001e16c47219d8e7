//! The paper's privacy-assured pairing (HLA) scheme behind the
//! [`AuditBackend`] trait — a pure adapter over `dsaudit-core` with
//! zero behavior change: same keys, same tags, same challenge
//! expansion, same 288-byte blinded proof, same verification equation.

use rand::RngCore;

use dsaudit_algebra::g1::G1Affine;
use dsaudit_algebra::Fr;
use dsaudit_core::codec::{ByteReader, Codec};
use dsaudit_core::verify::FileMeta;
use dsaudit_core::{
    AuditParams, Auditor, Challenge, DataOwner, EncodedFile, PrivateProof, Prover, PublicKey,
    Verdict,
};

use crate::wire::{BackendProof, Commitment, ProverKit};
use crate::{AuditBackend, BackendError, BackendId, BackendSetup, CommitmentVerifier};

/// The pairing backend; configured by the paper's audit parameters
/// (blocks per chunk `s`, challenges per round `k`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PairingBackend {
    /// Audit parameters every file under this backend is encoded with.
    pub params: AuditParams,
}

impl PairingBackend {
    /// A backend with explicit parameters (the simulator passes its
    /// scaled-down `s`/`k` through here).
    pub fn new(params: AuditParams) -> Self {
        Self { params }
    }

    /// Commitment payload: `pk || name || num_chunks (4 B) || k (4 B)`
    /// — the public key plus the [`FileMeta`] verification needs.
    fn decode_commitment(bytes: &[u8]) -> Result<(PublicKey, FileMeta), BackendError> {
        let mut r = ByteReader::new(bytes, "PairingCommitment");
        let pk = PublicKey::decode_from(&mut r)?;
        let name = Fr::decode_from(&mut r)?;
        let num_chunks = r.u32_le("num_chunks")? as usize;
        let k = r.u32_le("k")? as usize;
        r.finish()?;
        Ok((pk, FileMeta { name, num_chunks, k }))
    }

    /// Kit payload: `pk || name || s (4 B) || k (4 B) || tags` — what
    /// the provider needs to re-encode its stored bytes and answer.
    fn decode_kit(
        bytes: &[u8],
    ) -> Result<(PublicKey, Fr, AuditParams, Vec<G1Affine>), BackendError> {
        let mut r = ByteReader::new(bytes, "PairingKit");
        let pk = PublicKey::decode_from(&mut r)?;
        let name = Fr::decode_from(&mut r)?;
        let s = r.u32_le("s")? as usize;
        let k = r.u32_le("k")? as usize;
        let tags = Vec::<G1Affine>::decode_from(&mut r)?;
        r.finish()?;
        Ok((pk, name, AuditParams::new(s, k)?, tags))
    }
}

impl AuditBackend for PairingBackend {
    fn id(&self) -> BackendId {
        BackendId::Pairing
    }

    fn setup(&self, rng: &mut dyn RngCore, data: &[u8]) -> Result<BackendSetup, BackendError> {
        let owner = DataOwner::generate(rng, self.params);
        let out = owner.outsource(rng, data);
        let meta = out.meta();

        let mut commitment = Vec::new();
        out.pk.encode_into(&mut commitment);
        meta.name.encode_into(&mut commitment);
        commitment.extend_from_slice(&(meta.num_chunks as u32).to_le_bytes());
        commitment.extend_from_slice(&(meta.k as u32).to_le_bytes());

        let mut kit = Vec::new();
        out.pk.encode_into(&mut kit);
        meta.name.encode_into(&mut kit);
        kit.extend_from_slice(&(self.params.s as u32).to_le_bytes());
        kit.extend_from_slice(&(self.params.k as u32).to_le_bytes());
        out.tags.encode_into(&mut kit);

        Ok(BackendSetup {
            commitment: Commitment {
                backend: BackendId::Pairing,
                bytes: commitment,
            },
            kit: ProverKit {
                backend: BackendId::Pairing,
                bytes: kit,
            },
        })
    }

    fn prove(
        &self,
        rng: &mut dyn RngCore,
        kit: &ProverKit,
        stored: &[u8],
        beacon: &[u8; 48],
    ) -> Result<BackendProof, BackendError> {
        kit.expect_backend(BackendId::Pairing)?;
        let (pk, name, params, tags) = Self::decode_kit(&kit.bytes)?;
        let file = EncodedFile::encode_with_name(name, stored, params);
        if file.num_chunks() != tags.len() {
            // stored bytes shrank or grew past a chunk boundary — the
            // prover cannot even line its tags up any more
            return Err(BackendError::Shape("chunk count vs. tag count"));
        }
        let prover = Prover::new(&pk, &file, &tags)?;
        let challenge = Challenge::from_beacon(beacon);
        let proof = prover.prove_private(rng, &challenge);
        Ok(BackendProof {
            backend: BackendId::Pairing,
            bytes: proof.encode(),
        })
    }

    fn verifier(
        &self,
        commitment: &Commitment,
    ) -> Result<Box<dyn CommitmentVerifier>, BackendError> {
        commitment.expect_backend(BackendId::Pairing)?;
        let (pk, meta) = Self::decode_commitment(&commitment.bytes)?;
        Self::verifier_for(pk, meta)
    }
}

impl PairingBackend {
    /// The prepared verifier for an already-decoded key and file: what
    /// [`AuditBackend::verifier`] ends in after decoding a commitment.
    /// A [`PublicKey`] value is valid by construction (only key
    /// generation and the validating decoder make one), so callers that
    /// hold one skip the commitment decode entirely.
    ///
    /// # Errors
    /// [`BackendError::Audit`] when `meta` can never be audited (zero
    /// chunks or zero challenge count).
    pub fn verifier_for(
        pk: PublicKey,
        meta: FileMeta,
    ) -> Result<Box<dyn CommitmentVerifier>, BackendError> {
        meta.validate()?;
        // one hash-to-curve point per chunk and the key's two G2 points
        // are everything this commitment can ever ask the caches for
        let auditor = Auditor::with_capacities(meta.num_chunks, 2);
        Ok(Box::new(PairingVerifier { pk, meta, auditor }))
    }
}

/// The pairing scheme's prepared verifier: the validated public key and
/// file metadata, plus an [`Auditor`] whose caches stay warm across
/// rounds.
struct PairingVerifier {
    pk: PublicKey,
    meta: FileMeta,
    auditor: Auditor,
}

/// The pairing proof inside an erased frame.
fn decode_proof(proof: &BackendProof) -> Result<PrivateProof, BackendError> {
    proof.expect_backend(BackendId::Pairing)?;
    Ok(PrivateProof::decode(&proof.bytes)?)
}

impl CommitmentVerifier for PairingVerifier {
    fn backend(&self) -> BackendId {
        BackendId::Pairing
    }

    fn commitment_len(&self) -> usize {
        // pk || name || num_chunks (4 B) || k (4 B)
        self.pk.encoded_len() + self.meta.name.encoded_len() + 8
    }

    fn check_format(&self, proof: &BackendProof) -> Result<(), BackendError> {
        decode_proof(proof).map(drop)
    }

    fn verify(&self, beacon: &[u8; 48], proof: &BackendProof) -> Result<Verdict, BackendError> {
        let p = decode_proof(proof)?;
        let challenge = Challenge::from_beacon(beacon);
        Ok(self.auditor.verify_private(&self.pk, &self.meta, &challenge, &p)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x9a171)
    }

    fn small() -> PairingBackend {
        PairingBackend::new(AuditParams::new(4, 3).expect("valid"))
    }

    #[test]
    fn honest_round_accepts() {
        let mut r = rng();
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        let b = small();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon = [7u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon).unwrap();
        assert_eq!(proof.bytes.len(), dsaudit_core::PRIVATE_PROOF_BYTES);
        let verdict = b.verify(&setup.commitment, &beacon, &proof).unwrap();
        assert!(verdict.accepted());
    }

    #[test]
    fn corrupted_store_rejects() {
        let mut r = rng();
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        let b = small();
        let setup = b.setup(&mut r, &data).unwrap();
        let mut bad = data.clone();
        bad[17] ^= 0x40;
        let beacon = [9u8; 48];
        let proof = b.prove(&mut r, &setup.kit, &bad, &beacon).unwrap();
        let verdict = b.verify(&setup.commitment, &beacon, &proof).unwrap();
        assert!(!verdict.accepted());
    }

    #[test]
    fn wrong_backend_objects_are_typed_errors() {
        let mut r = rng();
        let data = vec![3u8; 200];
        let b = small();
        let setup = b.setup(&mut r, &data).unwrap();
        let beacon = [1u8; 48];
        let mut kit = setup.kit.clone();
        kit.backend = BackendId::Merkle;
        assert!(matches!(
            b.prove(&mut r, &kit, &data, &beacon),
            Err(BackendError::WrongBackend { .. })
        ));
        let proof = b.prove(&mut r, &setup.kit, &data, &beacon).unwrap();
        let mut wrong = proof.clone();
        wrong.backend = BackendId::Groth16Merkle;
        assert!(matches!(
            b.verify(&setup.commitment, &beacon, &wrong),
            Err(BackendError::WrongBackend { .. })
        ));
    }
}
