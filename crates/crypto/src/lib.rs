//! # sae-crypto
//!
//! Cryptographic substrate for the SAE reproduction ("Separating Authentication
//! from Query Execution in Outsourced Databases", ICDE 2009).
//!
//! The paper implements all cryptographic components with the Crypto++ library
//! and uses 20-byte digests. This crate provides from-scratch replacements:
//!
//! * [`Digest`] — the fixed 20-byte digest type used throughout the system,
//!   together with the XOR-aggregation algebra that underpins the SAE
//!   verification token (`VT = t_i.h ⊕ … ⊕ t_j.h`).
//! * [`sha1`] / [`sha256`] — one-way, collision-resistant hash functions
//!   implemented from the FIPS specifications (SHA-256 output is truncated to
//!   20 bytes when used through [`HashAlgorithm::Sha256`]). SHA-1 runs on the
//!   CPU's SHA extensions where present ([`sha1::backend`]).
//! * [`hmac`] — keyed MACs over either hash, used by the fast
//!   [`signer::MacSigner`] and in tests.
//! * [`bigint`] / [`rsa`] — an unsigned big-integer implementation and a
//!   textbook RSA signature scheme, standing in for the public-key signature
//!   the data owner places on the MB-Tree root in the TOM baseline.
//! * [`signer`] — the [`signer::Signer`] / [`signer::Verifier`] abstraction the
//!   outsourcing models program against, with RSA and MAC implementations.
//!
//! Everything in this crate is deterministic and dependency-free apart from
//! `rand` (key generation), which makes it suitable for the simulation-style
//! benchmarks in `sae-bench`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bigint;
mod block;
pub mod digest;
pub mod hash;
pub mod hmac;
pub mod rsa;
pub mod sha1;
pub mod sha256;
pub mod signer;

pub use digest::{Digest, XorDigest, DIGEST_LEN};
pub use hash::{hash_bytes, HashAlgorithm, Hasher};
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey, RsaSignature};
pub use signer::{MacSigner, RsaSigner, SignatureBytes, Signer, Verifier};
