//! `upload`: one owner outsources 4 MiB files one after another through
//! the whole write path: key generation, encoding, tagging, the
//! provider's batch tag check on ingest, and the contract deployment
//! with both deposits.

use std::collections::BTreeMap;

use dsaudit_backend::{AuditBackend, BackendId, Commitment, PairingBackend};
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, gwei, Address, Transaction, TxKind, TxStatus, Wei};
use dsaudit_contract::{BackendAgreement, BackendContract};
use dsaudit_core::codec::Codec;
use dsaudit_core::verify::FileMeta;
use dsaudit_core::{AuditParams, DataOwner, Outsourcing, PublicKey, StorageProvider};
use dsaudit_obs::Snapshot;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use dsaudit_perfbench::runner::{UnitRun, Workload};
use dsaudit_perfbench::stats::{Outcome, Tally};
use dsaudit_perfbench::trace::Tracer;

/// Size of each uploaded file.
const FILE_BYTES: usize = 4 << 20;
/// Distinct seeded files the uploads cycle through.
const POOL: usize = 2;
/// Audit rounds each deployed agreement covers.
const NUM_AUDITS: u64 = 10;

/// State built by set-up: the chain, the accounts and the input files.
pub struct Upload {
    chain: Blockchain,
    rng: StdRng,
    pool: Vec<Vec<u8>>,
    owner: Address,
    provider: Address,
    files: u64,
}

/// The pairing backend's commitment: `pk || name || num_chunks (4 B LE)
/// || k (4 B LE)`, built from what the provider holds after ingest.
fn commitment(pk: &PublicKey, meta: &FileMeta) -> Commitment {
    let mut bytes = Vec::new();
    pk.encode_into(&mut bytes);
    meta.name.encode_into(&mut bytes);
    bytes.extend_from_slice(&(meta.num_chunks as u32).to_le_bytes());
    bytes.extend_from_slice(&(meta.k as u32).to_le_bytes());
    Commitment {
        backend: BackendId::Pairing,
        bytes,
    }
}

/// Checks that [`commitment`] reproduces the backend's own layout: the
/// backend's set-up and the write path draw the same randomness from
/// identically seeded generators.
fn commitment_layout_matches(seed: u64) -> bool {
    let data = vec![0x5au8; 4096];
    let params = AuditParams::default();
    let expected = PairingBackend::new(params)
        .setup(&mut StdRng::seed_from_u64(seed), &data)
        .expect("pairing setup")
        .commitment;
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::generate(&mut rng, params);
    let out = owner.outsource(&mut rng, &data);
    commitment(&out.pk, &out.meta()) == expected
}

fn call(from: Address, to: Address, method: &str, value: Wei) -> Transaction {
    Transaction {
        from,
        to,
        value,
        kind: TxKind::Call {
            method: method.into(),
            data: Vec::new(),
        },
    }
}

impl Upload {
    /// One file through the write path; `Err` names the failed step.
    fn upload(&mut self, tr: &mut Tracer, data_index: usize) -> Result<(), &'static str> {
        let params = AuditParams::default();
        let rng = &mut self.rng;
        let data = &self.pool[data_index];
        let owner = tr.time("core.keygen", || DataOwner::generate(rng, params));
        let file = tr.time("core.encode", || owner.encode(rng, data));
        let tags = tr.time("core.tag", || owner.tag(&file));
        let chunks = file.num_chunks();
        if tags.len() != chunks {
            return Err("one tag per chunk");
        }
        let bundle = Outsourcing {
            pk: owner.public_key().clone(),
            file,
            tags,
        };
        let provider = tr
            .time("core.ingest", || StorageProvider::ingest(rng, bundle))
            .map_err(|_| "ingest rejected honest tags")?;

        let chain = &mut self.chain;
        let (owner_addr, provider_addr) = (self.owner, self.provider);
        let label = format!("perfbench/upload-{}", self.files);
        self.files += 1;
        tr.time("contract.deploy", || {
            let deposit = gwei(1_000) * Wei::from(NUM_AUDITS);
            let terms = BackendAgreement {
                owner: owner_addr,
                provider: provider_addr,
                num_audits: NUM_AUDITS,
                interval_secs: 86_400,
                deadline_secs: 600,
                reward: gwei(1_000),
                penalty: gwei(1_000),
                owner_deposit: deposit,
                provider_deposit: deposit,
            };
            let contract = BackendContract::new(
                Box::new(PairingBackend::new(params)),
                commitment(provider.public_key(), &provider.meta()),
                terms,
            )
            .map_err(|_| "deploy rejected the commitment")?;
            let addr = chain.deploy(&label, Box::new(contract));
            chain.submit(call(owner_addr, addr, "freeze", deposit));
            chain.submit(call(provider_addr, addr, "freeze", deposit));
            let b = chain.mine_block();
            let locked = b.txs.len() == 2
                && b.txs.iter().all(|(_, r)| r.status == TxStatus::Success)
                && b.txs
                    .iter()
                    .flat_map(|(_, r)| &r.logs)
                    .any(|e| e.contract == addr && e.name == "inited");
            if locked {
                Ok(())
            } else {
                Err("deposits did not lock")
            }
        })
    }
}

impl Workload for Upload {
    const NAME: &'static str = "upload";
    const OP: &'static str = "MB";

    fn setup(seed: u64) -> Self {
        assert!(
            commitment_layout_matches(seed),
            "the upload commitment no longer matches the pairing backend's layout"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b10_ad00);
        let pool = (0..POOL)
            .map(|_| {
                let mut data = vec![0u8; FILE_BYTES];
                rng.fill_bytes(&mut data);
                data
            })
            .collect();
        let mut beacon_seed = b"perfbench/upload/".to_vec();
        beacon_seed.extend_from_slice(&seed.to_le_bytes());
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(&beacon_seed)));
        let owner = Address::from_label("perfbench/upload-owner");
        let provider = Address::from_label("perfbench/upload-provider");
        chain.fund_account(owner, eth(1_000_000));
        chain.fund_account(provider, eth(1_000_000));
        let mut up = Self {
            chain,
            rng,
            pool,
            owner,
            provider,
            files: 0,
        };
        // one warm-up file builds the lazily cached generator tables
        up.upload(&mut Tracer::new(false), 0)
            .expect("warm-up upload");
        up
    }

    fn unit(&mut self, tr: &mut Tracer, tally: &mut Tally) -> UnitRun {
        let t0 = std::time::Instant::now();
        let root = tr.begin("upload");
        let result = self.upload(tr, self.files as usize % POOL);
        tr.end(root);
        let elapsed = t0.elapsed().as_secs_f64();
        match result {
            Ok(()) => tally.record(Outcome::Ok, String::new),
            Err(e) => tally.record(Outcome::Error, || format!("file {}: {e}", self.files)),
        }
        UnitRun::timed(FILE_BYTES as f64 / 1e6, elapsed)
    }

    fn layer_counts(&self, _snap: &Snapshot, _out: &mut BTreeMap<&'static str, f64>) {}
}
