//! The canonical wire codec of the protocol.
//!
//! Every object that crosses a trust boundary — public keys registered
//! on chain, challenges, proofs, tag vectors shipped to a provider —
//! implements [`Codec`]: a single length-prefixed, canonical byte
//! format shared by the `contract` and `chain` layers. Canonical means
//! `decode(encode(x)) == x` for every value *and* every accepted byte
//! string re-encodes to itself — there are no two encodings of the same
//! value, so on-chain equality of bytes is equality of values.
//!
//! Decoding never panics on malformed input: truncation, non-curve
//! points, out-of-range scalars, inconsistent length prefixes and
//! trailing garbage all surface as typed [`DsAuditError`]s naming the
//! offending field.

#![deny(missing_docs)]

use dsaudit_algebra::g1::G1Affine;
use dsaudit_algebra::g2::G2Affine;
use dsaudit_algebra::pairing::Gt;
use dsaudit_algebra::Fr;

use crate::error::DsAuditError;
use crate::par::par_map;

/// Canonical serialization to/from the protocol's wire format.
pub trait Codec: Sized {
    /// Type name used in decode errors (e.g. `"PrivateProof"`).
    const TYPE_NAME: &'static str;

    /// Exact byte length of this value's encoding.
    fn encoded_len(&self) -> usize;

    /// Appends the canonical encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader, consuming exactly its bytes.
    ///
    /// # Errors
    /// Typed [`DsAuditError`] on truncated or malformed input.
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError>;

    /// The canonical encoding as a fresh vector.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        debug_assert_eq!(out.len(), self.encoded_len(), "encoded_len must be exact");
        out
    }

    /// Decodes a value that must occupy the whole input.
    ///
    /// # Errors
    /// Typed [`DsAuditError`] on truncation, malformed fields, or
    /// trailing bytes after a complete value.
    fn decode(bytes: &[u8]) -> Result<Self, DsAuditError> {
        let mut r = ByteReader::new(bytes, Self::TYPE_NAME);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Cursor over wire bytes producing typed errors with field context.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    ty: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Starts reading `bytes` as an encoding of type `ty`.
    pub fn new(bytes: &'a [u8], ty: &'static str) -> Self {
        Self { bytes, pos: 0, ty }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes, attributing a shortfall to `field`.
    ///
    /// # Errors
    /// [`DsAuditError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DsAuditError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(out) => {
                self.pos += n;
                Ok(out)
            }
            None => Err(DsAuditError::Truncated {
                ty: self.ty,
                field,
                expected: n,
                got: self.remaining(),
            }),
        }
    }

    /// Takes a fixed-size array, attributing a shortfall to `field`.
    ///
    /// # Errors
    /// [`DsAuditError::Truncated`] when fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DsAuditError> {
        let slice = self.take(N, field)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Takes a little-endian `u32` length prefix.
    ///
    /// # Errors
    /// [`DsAuditError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32_le(&mut self, field: &'static str) -> Result<u32, DsAuditError> {
        Ok(u32::from_le_bytes(self.array::<4>(field)?))
    }

    /// A [`DsAuditError::Malformed`] attributed to `field` of the type
    /// being decoded.
    pub fn malformed(&self, field: &'static str) -> DsAuditError {
        DsAuditError::Malformed {
            ty: self.ty,
            field,
        }
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    /// [`DsAuditError::Malformed`] (field `"trailing bytes"`) when
    /// unconsumed bytes remain.
    pub fn finish(&self) -> Result<(), DsAuditError> {
        if self.remaining() != 0 {
            return Err(DsAuditError::Malformed {
                ty: self.ty,
                field: "trailing bytes",
            });
        }
        Ok(())
    }
}

// --- group/field primitives ------------------------------------------------
//
// The primitive impls give composite types one obvious building block;
// their `TYPE_NAME` only appears in errors when a primitive is decoded
// standalone (composites pass their own reader, so errors carry the
// composite's type name with the primitive's field name).

impl Codec for Fr {
    const TYPE_NAME: &'static str = "Fr";

    fn encoded_len(&self) -> usize {
        32
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes_be());
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let bytes = r.array::<32>("scalar")?;
        Fr::from_bytes_be(&bytes).ok_or_else(|| r.malformed("scalar"))
    }
}

impl Codec for G1Affine {
    const TYPE_NAME: &'static str = "G1Affine";

    fn encoded_len(&self) -> usize {
        32
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_compressed());
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let bytes = r.array::<32>("g1 point")?;
        G1Affine::from_compressed(&bytes).ok_or_else(|| r.malformed("g1 point"))
    }
}

impl Codec for G2Affine {
    const TYPE_NAME: &'static str = "G2Affine";

    fn encoded_len(&self) -> usize {
        64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_compressed());
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let bytes = r.array::<64>("g2 point")?;
        G2Affine::from_compressed(&bytes).ok_or_else(|| r.malformed("g2 point"))
    }
}

impl Codec for Gt {
    const TYPE_NAME: &'static str = "Gt";

    fn encoded_len(&self) -> usize {
        192
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_compressed());
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let bytes = r.array::<192>("gt element")?;
        Gt::from_compressed(&bytes).ok_or_else(|| r.malformed("gt element"))
    }
}

/// Tag vectors ship owner → provider as a length-prefixed sequence of
/// compressed G1 points: `count (4 B LE) || count x 32 B`.
impl Codec for Vec<G1Affine> {
    const TYPE_NAME: &'static str = "TagVector";

    fn encoded_len(&self) -> usize {
        4 + 32 * self.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for tag in self {
            tag.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let count = r.u32_le("count")? as usize;
        // the prefix must be consistent with the bytes actually present,
        // so a forged count cannot trigger a huge allocation
        if r.remaining() < 32 * count {
            return Err(DsAuditError::Truncated {
                ty: Self::TYPE_NAME,
                field: "tags",
                expected: 32 * count,
                got: r.remaining(),
            });
        }
        // each record costs a square root to decompress and records are
        // independent, so they decompress across cores
        let records: Vec<&[u8]> = r.take(32 * count, "tags")?.chunks_exact(32).collect();
        par_map(records.len(), |i| {
            let bytes: [u8; 32] = records.get(i).copied()?.try_into().ok()?;
            G1Affine::from_compressed(&bytes)
        })
        .into_iter()
        .collect::<Option<Vec<G1Affine>>>()
        .ok_or_else(|| r.malformed("tag"))
    }
}

/// G2 vectors cross the wire inside SNARK key material: `count (4 B LE)
/// || count x 64 B` compressed points, mirroring the G1 tag vector.
impl Codec for Vec<G2Affine> {
    const TYPE_NAME: &'static str = "G2Vector";

    fn encoded_len(&self) -> usize {
        4 + 64 * self.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for p in self {
            p.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let count = r.u32_le("count")? as usize;
        // length-prefix consistency bounds the allocation, exactly as
        // for the G1 tag vector above
        if r.remaining() < 64 * count {
            return Err(DsAuditError::Truncated {
                ty: Self::TYPE_NAME,
                field: "points",
                expected: 64 * count,
                got: r.remaining(),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let bytes = r.array::<64>("point")?;
            out.push(G2Affine::from_compressed(&bytes).ok_or_else(|| r.malformed("point"))?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsaudit_algebra::field::Field;
    use dsaudit_algebra::g1::G1Projective;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xc0dec)
    }

    #[test]
    fn primitives_roundtrip() {
        let mut rng = rng();
        let x = Fr::random(&mut rng);
        assert_eq!(Fr::decode(&x.encode()).unwrap(), x);
        let p = G1Projective::random(&mut rng).to_affine();
        assert_eq!(G1Affine::decode(&p.encode()).unwrap(), p);
        let gt = Gt::generator().pow(Fr::random(&mut rng));
        assert_eq!(Gt::decode(&gt.encode()).unwrap(), gt);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut rng = rng();
        let mut bytes = Fr::random(&mut rng).encode();
        bytes.push(0);
        assert_eq!(
            Fr::decode(&bytes),
            Err(DsAuditError::Malformed {
                ty: "Fr",
                field: "trailing bytes"
            })
        );
    }

    #[test]
    fn truncation_names_the_field() {
        let mut rng = rng();
        let bytes = G1Projective::random(&mut rng).to_affine().encode();
        match G1Affine::decode(&bytes[..31]) {
            Err(DsAuditError::Truncated { ty, field, expected, got }) => {
                assert_eq!((ty, field, expected, got), ("G1Affine", "g1 point", 32, 31));
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn tag_vector_roundtrips_and_bounds_allocation() {
        let mut rng = rng();
        let tags: Vec<G1Affine> = (0..5)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let bytes = tags.encode();
        assert_eq!(bytes.len(), 4 + 5 * 32);
        assert_eq!(Vec::<G1Affine>::decode(&bytes).unwrap(), tags);
        // a forged huge count must fail on the length check, not allocate
        let mut forged = bytes.clone();
        forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Vec::<G1Affine>::decode(&forged),
            Err(DsAuditError::Truncated { field: "tags", .. })
        ));
        // empty vector is fine
        assert_eq!(
            Vec::<G1Affine>::decode(&Vec::<G1Affine>::new().encode()).unwrap(),
            Vec::new()
        );
    }

    /// `n` distinct tags: successive multiples of a random point.
    fn tag_vector(n: usize) -> Vec<G1Affine> {
        let step = G1Projective::random(&mut rng());
        let points: Vec<G1Projective> = std::iter::successors(Some(step), |p| Some(p.add(&step)))
            .take(n)
            .collect();
        points.iter().map(G1Projective::to_affine).collect()
    }

    #[test]
    fn tag_vector_roundtrips_on_both_sides_of_the_parallel_cutoff() {
        // 31 records decompress serially, 677 across the worker threads
        for n in [31, 677] {
            let tags = tag_vector(n);
            let bytes = tags.encode();
            assert_eq!(bytes.len(), 4 + 32 * n);
            assert_eq!(Vec::<G1Affine>::decode(&bytes).unwrap(), tags, "{n} tags");
        }
    }

    #[test]
    fn malformed_tag_record_is_the_same_error_at_any_position() {
        for n in [31, 677] {
            let bytes = tag_vector(n).encode();
            for at in [0, n / 2, n - 1] {
                let mut bad = bytes.clone();
                // the infinity flag with a nonzero body is no point
                bad[4 + 32 * at..4 + 32 * (at + 1)].copy_from_slice(&[0xff; 32]);
                assert_eq!(
                    Vec::<G1Affine>::decode(&bad),
                    Err(DsAuditError::Malformed {
                        ty: "TagVector",
                        field: "tag"
                    }),
                    "{n} tags, bad record at {at}"
                );
            }
            // one record more than the bytes hold
            let mut forged = bytes.clone();
            forged[..4].copy_from_slice(&(n as u32 + 1).to_le_bytes());
            assert!(matches!(
                Vec::<G1Affine>::decode(&forged),
                Err(DsAuditError::Truncated { field: "tags", .. })
            ));
        }
    }

    #[test]
    fn g2_vector_roundtrips_and_bounds_allocation() {
        use dsaudit_algebra::g2::G2Projective;
        let mut rng = rng();
        let points: Vec<G2Affine> = (0..3)
            .map(|_| G2Projective::generator().mul(Fr::random(&mut rng)).to_affine())
            .collect();
        let bytes = points.encode();
        assert_eq!(bytes.len(), 4 + 3 * 64);
        assert_eq!(Vec::<G2Affine>::decode(&bytes).unwrap(), points);
        let mut forged = bytes.clone();
        forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Vec::<G2Affine>::decode(&forged),
            Err(DsAuditError::Truncated { field: "points", .. })
        ));
        assert_eq!(
            Vec::<G2Affine>::decode(&Vec::<G2Affine>::new().encode()).unwrap(),
            Vec::new()
        );
    }
}
